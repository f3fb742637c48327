"""Cutwidth-preserving planarization via crossover gadgets.

Given a graph with a linear layout, builds the arc drawing, replaces
every crossing (left to right) by a copy of the gadget, and produces a
layout of the planarized graph with one block per drawing element.  The
resulting cutwidth is at most ctw(input layout) + ctw(gadget layout) + 4,
and the per-gap invariants behind that bound are asserted on every run:
gaps after original vertices never exceed the input cutwidth, and gaps
inside gadget copies never exceed input + gadget + 4.

Planarity of the result is proven from the drawing itself: while G' is
assembled, the arc positions give every host vertex its rotation, and
each gadget copy takes the gadget's rotation with its connector slots
filled in.  ``check_spliced_embedding`` proves this rotation
system planar by splicing: every copy is compared with the gadget's
rotation, which is proven once per gadget, and faces are counted
(``graph.check_embedding_arrays``) only on the graph C in which each
copy is contracted to one vertex, about 4 edges per copy instead of
the gadget's h.m + 2.  No general planarity test runs on G'.

``verify_planarization`` solves G' under the gadget's problem with one
DP block step per gadget copy (``planarized_optimum``), after checking
that every copy is an exact copy of the gadget attached at its four
terminals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drawing import build_arc_drawing, count_crossings
from .errors import InvariantError, OracleLimitError, ResourceLimitError
from .gadgets import CrossoverGadget
from .graph import (CopyLabels, CutProfile, Graph, LinearLayout,
                    check_embedding_arrays, cut_profile)
from . import solvers

# the largest host verify_planarization solves by brute force
VERIFY_HOST_LIMIT = 24

# the most vertices of G' that planarize builds; the crossings are
# counted, and G' refused, before anything of that size is allocated
PLANARIZE_VERTEX_LIMIT = 10**7


@dataclass(frozen=True)
class PlanarizationResult:
    # the host G and threshold t of the instance (G, t) that was reduced
    host: Graph
    t: int
    g_prime: Graph
    layout_prime: LinearLayout
    crossings_replaced: int
    width_in: int
    # per-gap cuts of layout_prime on g_prime
    cut_profile: CutProfile
    # the gadget whose copies replaced the crossings
    gadget: CrossoverGadget

    @property
    def width_out(self) -> int:
        return self.cut_profile.max_width

    @property
    def t_prime(self) -> int:
        return self.t + self.crossings_replaced * self.gadget.shift


def planarize(g: Graph, layout: LinearLayout, t: int,
              gadget: CrossoverGadget) -> PlanarizationResult:
    """Replace all crossings of the arc drawing by gadget copies.

    Copy k of the gadget replaces the k-th crossing in crossing order and
    takes the ids g.n + k * h.n onwards.  Its vertices are labelled
    X{e}:{name}, where e is the crossing's index in the element order
    and name the gadget vertex's label; the labels are a CopyLabels made
    when read, so no string is built per vertex.

    Each crossed edge is routed left to right through the copies of its
    crossings, so remaining crossings keep their original drawing
    locations.  The route is the edge's stop list: its left end, the
    entry and exit terminal of every copy it passes, its right end.  The
    stop lists, connector edges, slot fills and host rotation are numpy
    passes over the crossings' (arc, copy) visits, and the edges,
    rotations and layout blocks of all gadget copies are laid down at
    once by broadcasting the gadget's arrays (its edges, its layout and
    ``CrossoverGadget.rotation``) over the copies' base ids.  The
    rotation system is proven planar by ``check_spliced_embedding``.

    Raises ResourceLimitError when G' would have more than
    PLANARIZE_VERTEX_LIMIT vertices, GadgetError when the gadget has no
    planar drawing with its connectors in the crossover order or its
    rotation fails its proof, and InvariantError when a width claim fails
    or the splice proof rejects the rotation system of G'.
    """
    h = gadget.graph
    ell = count_crossings(g, layout)
    n_prime = g.n + ell * h.n
    if n_prime > PLANARIZE_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"planarized graph would have {n_prime} vertices ({ell} "
            f"crossings), planarize limit is {PLANARIZE_VERTEX_LIMIT}")
    drawing = build_arc_drawing(g, layout)
    width_in = cut_profile(g, layout).max_width

    u, up, v, vp = gadget.terminals
    host_order = layout.order_array
    # each arc's left and right end as vertex ids
    left, right = host_order[drawing.arcs.T - 1]
    # copy k takes the ids bases[k] .. bases[k] + h.n - 1; its crossing
    # comes after the vertices at positions 1 .. floors[k]
    floors = drawing.floors
    bases = g.n + h.n * np.arange(ell, dtype=np.int64)
    # the visits of the crossed arcs to the copies, by arc and then by
    # copy: the left arc of a crossing enters at u and leaves at u', the
    # right one at v and v', so the connectors run counter-clockwise
    # u, v, u', v'
    arc = drawing.pairs.ravel()
    by_arc = np.argsort(arc, kind="stable")
    arc = arc[by_arc]
    entry = (bases[:, None] + (u, v)).ravel()[by_arc]
    leave = (bases[:, None] + (up, vp)).ravel()[by_arc]
    first = np.ones(len(arc), dtype=bool)
    first[1:] = arc[1:] != arc[:-1]
    last = np.ones(len(arc), dtype=bool)
    last[:-1] = first[1:]
    # the stop before each entry: the arc's left end, or the exit of the
    # copy before
    before = np.roll(leave, 1)
    before[first] = left[arc[first]]
    chain = np.concatenate((np.stack((before, entry), axis=1),
                            np.stack((leave[last], right[arc[last]]),
                                     axis=1)))

    crossed = np.zeros(len(left), dtype=bool)
    crossed[arc] = True
    kept = np.stack((left, right), axis=1)[~crossed]
    copies = (bases[:, None, None] + h.edge_array).reshape(-1, 2)
    names = [h.labels.get(w, str(w)) for w in range(h.n)]
    tags = [f"X{e}" for e in (np.arange(ell) + floors).tolist()]
    g_prime = Graph.from_edges(n_prime,
                               np.concatenate((kept, copies, chain)),
                               CopyLabels(g.labels, g.n, names, tags))

    # a host vertex sees, counter-clockwise from the east, its right-going
    # arcs by increasing span, then its left-going arcs by decreasing
    # span; each arc ends in its first and last stop after the host vertex
    span = drawing.arcs[:, 1] - drawing.arcs[:, 0]
    first_stop = right.copy()
    first_stop[arc[first]] = entry[first]
    last_stop = left.copy()
    last_stop[arc[last]] = leave[last]
    at = np.concatenate((left, right))
    side = np.repeat(np.array([0, 1]), len(left))
    host = np.lexsort((np.concatenate((span, -span)), side, at))
    # counter-clockwise rotation of every vertex of G': the host vertices,
    # then the gadget's rotation per copy, whose connector slots (index 0
    # of a terminal's rotation) hold the other end of the terminal's
    # connector edge
    flat = gadget.rotation
    lens = np.concatenate((np.bincount(at, minlength=g.n),
                           np.tile(flat.lens, ell)))
    rotation = np.concatenate((np.concatenate((first_stop, last_stop))[host],
                               (bases[:, None] + flat.heads).ravel()))
    # every connector end with an id from g.n on is a gadget terminal
    ends = np.concatenate((chain, chain[:, ::-1]))
    filled = ends[ends[:, 0] >= g.n]
    rotation[(np.cumsum(lens) - lens)[filled[:, 0]]] = filled[:, 1]

    # one layout block per element: the vertex at position i + 1 follows
    # the crossings with floor <= i, and copy k the vertices at positions
    # up to floors[k]; a copy is laid out by the gadget's layout
    order = np.empty(n_prime, dtype=np.int64)
    i = np.arange(g.n, dtype=np.int64)
    order[i + h.n * np.searchsorted(floors, i, side="right")] = host_order
    order[(floors + h.n * np.arange(ell))[:, None] + np.arange(h.n)] = (
        bases[:, None] + gadget.layout.order_array)
    layout_prime = LinearLayout(order)

    result = PlanarizationResult(
        host=g, t=t, g_prime=g_prime, layout_prime=layout_prime,
        crossings_replaced=ell, width_in=width_in,
        cut_profile=cut_profile(g_prime, layout_prime), gadget=gadget,
    )
    _assert_invariants(result)
    check_spliced_embedding(result, lens, rotation)
    return result


def _assert_invariants(res: PlanarizationResult) -> None:
    """Hard runtime checks of the construction's guarantees; a violation
    falsifies the width argument and must never be shipped past."""
    g, h, ell = res.host, res.gadget.graph, res.crossings_replaced
    bound = res.width_in + res.gadget.width + 4
    # per-gap claims: original-vertex gaps <= width_in, gadget gaps <= bound
    order = res.layout_prime.order_array[:-1]
    widths = res.cut_profile.width_array
    # the ids below g.n are the original vertices
    over = np.flatnonzero(widths > np.where(order < g.n, res.width_in, bound))
    if over.size:
        i = int(over[0])
        cut, w = int(widths[i]), int(order[i])
        label = res.g_prime.labels.get(w, str(w))
        if w < g.n:
            raise InvariantError(
                f"gap {i}: cut after original vertex {label} is {cut} "
                f"> input width {res.width_in}")
        raise InvariantError(
            f"gap {i}: cut after vertex {label} of gadget copy "
            f"{label.split(':')[0]} is {cut} > bound {bound}")
    if res.width_out > bound:
        raise InvariantError(
            f"cutwidth bound violated: {res.width_out} > {bound}")
    # vertex / edge accounting
    if res.g_prime.n != g.n + ell * h.n:
        raise InvariantError("vertex count mismatch")
    if res.g_prime.m != g.m + ell * (h.m + 2):
        raise InvariantError("edge count mismatch")


def verify_planarization(result: PlanarizationResult) -> bool:
    """Check the cutwidth inequality and the optimum shift
    opt(G') = opt(G) + crossings * shift of the gadget's problem, using
    brute force on the host G (at most VERIFY_HOST_LIMIT vertices) and
    ``planarized_optimum`` on G'.

    Planarity of G' is not tested again: ``planarize`` proves it before
    returning and raises InvariantError otherwise.
    """
    if result.width_out > result.width_in + result.gadget.width + 4:
        return False
    g = result.host
    if g.n > VERIFY_HOST_LIMIT:
        raise OracleLimitError(
            f"host graph too large for the brute-force oracle ({g.n})")
    before = solvers.SOLVERS[result.gadget.problem][0](g)
    return planarized_optimum(result) == before + result.t_prime - result.t


def planarized_optimum(result: PlanarizationResult) -> int:
    """opt(G') under the gadget's problem, solved with one block step per
    gadget copy.

    G' is contracted to C: each copy's u is merged into u' and its v into
    v', and its other vertices are dropped; the two merged terminals take
    the place of the copy's layout block.  ``solvers.block_dp`` sweeps C
    and crosses each copy with one block step, which reads the gadget's
    transfer table (``CrossoverGadget.transfer``, built once per gadget)
    at the digits of the two vertices before u and v.  The optimum
    equals the layout DP's on G' (``dp_is``/``dp_ds``) because a copy
    meets the rest of G' only at its four terminals, one edge each,
    which ``_contract`` checks first.
    """
    gadget = result.gadget
    transfer = gadget.transfer if result.crossings_replaced else None
    c, layout, first = _contract(result)
    return solvers.block_dp(c, layout, first, transfer, gadget.problem).optimum


def _contract(result: PlanarizationResult
              ) -> tuple[Graph, LinearLayout, int]:
    """The contracted graph C of ``planarized_optimum``, its layout and
    its first block vertex, host.n.  C keeps the host ids; copy k becomes
    U = first + 2k (u and u') and V = first + 2k + 1 (v and v'), with V
    right after U where the copy's first vertex stands in the layout of
    G'.  The order inside a copy's block does not matter.

    Raises InvariantError as ``_exact_copies`` does unless every copy is
    an exact copy of the gadget attached at its four terminals, and
    naming the copy (X{e}) unless in C the vertex before u (the end of
    u's edge) and the one before v are distinct, U comes after the first
    and before the end of the edge of u', and V after the second and
    before the end of the edge of v'.  So U and V each have exactly one
    earlier neighbour, the one a block step reads.
    """
    gp, h, ell = result.g_prime, result.gadget.graph, result.crossings_replaced
    first = result.host.n
    out, beyond = _exact_copies(result)
    result.layout_prime.validate(gp)

    u, up, v, vp = result.gadget.terminals
    # a terminal's C id, less first + 2k; -1 marks the dropped vertices
    merged = np.full(h.n, -1, dtype=np.int64)
    merged[[u, up, v, vp]] = 0, 0, 1, 1
    cid = np.concatenate((np.arange(first), first + (
        2 * np.arange(ell)[:, None] + merged).ravel()))
    # C's layout: host vertices at their positions, U and V at the
    # copy's first position
    pos = np.empty(gp.n, dtype=np.int64)
    pos[result.layout_prime.order_array] = np.arange(gp.n)
    at = pos[first:].reshape(ell, h.n).min(axis=1, initial=gp.n)
    key = np.concatenate((2 * pos[:first], (2 * at[:, None] + (0, 1)).ravel()))
    order = np.argsort(key)
    pos_c = np.empty(first + 2 * ell, dtype=np.int64)
    pos_c[order] = np.arange(order.size)
    # a, b, c and d are the positions in C of the ends of the edges that
    # leave u, u', v and v'
    a, b, c, d = pos_c[cid[beyond[:, [u, up, v, vp]].T]]
    here = pos_c[first::2]
    _raise_for_copy(result, (a >= here) | (b <= here) | (c >= here + 1)
                    | (d <= here + 1) | (a == c))
    return (Graph.from_edges(first + 2 * ell, cid[out]), LinearLayout(order),
            first)


def _exact_copies(result: PlanarizationResult
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Check that every gadget copy of G' is an exact copy of the gadget
    attached at its four terminals, and return the edges that leave the
    copies and, per copy and gadget vertex, the far end of its edge.

    Copy k holds the ids bases[k] = first + k * h.n onwards, first =
    host.n.  Its induced edges must be the gadget's edges plus its base
    id, and only u, u', v and v' may have an edge leaving it, one each.
    G''s edge rows are sorted, so the rows whose low end lies in copy k
    follow one another, and one search of the bases finds where each
    copy's rows begin; of those rows, the ones whose high end lies in the
    copy too are its induced edges, and they must be the gadget's rows.
    Every other edge leaves the copies, and their ends in copies must be
    the terminals, each once.

    Returns the rows of G''s edge array that lie in no copy, and an
    (ell, h.n) array of the other end of each copy vertex's leaving edge,
    -1 for the vertices that have none.  Raises InvariantError with both
    counts unless G' has host.n + ell * h.n vertices, and naming the
    first copy (X{e}) that is not exact.
    """
    gp, h, ell = result.g_prime, result.gadget.graph, result.crossings_replaced
    first, e = result.host.n, result.g_prime.edge_array
    if gp.n != first + ell * h.n:
        raise InvariantError(
            f"G' has {gp.n} vertices, not the {first + ell * h.n} of "
            f"{first} host vertices and {ell} gadget copies")
    bases = first + h.n * np.arange(ell + 1)
    bounds = np.searchsorted(e[:, 0], bases)
    inside = np.zeros(len(e), dtype=bool)
    inside[bounds[0]:] = e[bounds[0]:, 1] < np.repeat(bases[1:],
                                                      np.diff(bounds))
    rows = np.compress(inside, e, axis=0)
    if len(rows) == ell * h.m:
        bad = (rows.reshape(ell, h.m, 2) - bases[:-1, None, None]
               != h.edge_array).any(axis=(1, 2))
    else:
        # the induced edges per copy, to name the first copy that is off
        sizes = np.bincount(np.repeat(np.arange(ell), np.diff(bounds))[
            inside[bounds[0]:]], minlength=ell)
        bad = sizes != h.m
        k = np.flatnonzero(~bad)
        local = rows[(np.cumsum(sizes) - sizes)[k, None] + np.arange(h.m)]
        bad[k] = (local - bases[k, None, None] != h.edge_array).any(axis=(1, 2))
    out = np.compress(~inside, e, axis=0)
    terminal = np.zeros(h.n, dtype=np.int64)
    terminal[list(result.gadget.terminals)] = 1
    ends = out[out >= first] - first
    bad |= (np.bincount(ends, minlength=ell * h.n).reshape(ell, h.n)
            != terminal).any(axis=1)
    _raise_for_copy(result, bad)
    beyond = np.full(ell * h.n, -1, dtype=np.int64)
    for side in (0, 1):
        mine = out[:, side] >= first
        beyond[out[mine, side] - first] = out[mine, 1 - side]
    return out, beyond.reshape(ell, h.n)


def check_spliced_embedding(result: PlanarizationResult, lens: np.ndarray,
                            heads: np.ndarray) -> None:
    """Prove the flat rotation system (lens, heads) of G' planar by
    splicing: every gadget copy is compared with the gadget's proven
    rotation, and faces are counted only on the contracted graph C.

    The rotation system is flat as in ``check_embedding_arrays``.  C has
    the host vertices and one vertex X_k = host.n + k per gadget copy;
    its edges are the edges that leave the copies, with each copy vertex
    mapped to its X_k.  The checks:

    1. every copy is an exact copy of the gadget attached at its four
       terminals by one edge each (``_exact_copies``);
    2. each copy's block of ``lens`` and ``heads`` is the gadget's
       rotation (``CrossoverGadget.rotation``) plus the copy's base id,
       except at the four connector slots;
    3. each slot holds the far end of its terminal's edge; every entry of
       a host vertex's rotation is a vertex, and one at or above host.n
       is a terminal whose edge ends at that host vertex;
    4. C is simple, and ``check_embedding_arrays`` accepts it with the
       host rotations mapped to C and X_k's rotation the far ends of the
       u, v, u', v' edges of copy k, in that order;
    5. the gadget's rotation, extended to its shape certificate, is
       planar: ``CrossoverGadget.rotation`` is proven so, once per
       gadget, before it is returned.

    Why this is sound: take the planar drawing of C that its rotation
    system gives, and replace a small disk around each X_k by the drawing
    of the gadget that check 5 proves to exist, with the terminals on its
    boundary in the counter-clockwise order u, v, u', v' in which X_k's
    edges leave it.  The result is a planar drawing of G' whose rotation
    system is exactly (lens, heads): checks 1-3 make every rotation a
    permutation of its vertex's neighbours in G', checks 2 and 5 give the
    copies' rotations and check 4 the host vertices'.  The proof is
    stricter than the general check: a copy block unlike the gadget's
    is rejected even when the rotation system is planar.

    Checks 1-3 are a few numpy passes over the edges and darts of G',
    with one search of the copies' base ids; only C, which has about 4
    edges per copy instead of h.m + 2, goes through the face count.
    Raises InvariantError as ``_exact_copies`` does, naming the copy
    vertex (X{e}:{name}) whose block is not the gadget's, the host
    vertex whose rotation lists no neighbour, the copy (X{e}) with two
    edges to one vertex, or as ``check_embedding_arrays`` does on C.
    """
    gadget, first, ell = result.gadget, result.host.n, result.crossings_replaced
    gp, h, flat = result.g_prime, gadget.graph, gadget.rotation
    out, beyond = _exact_copies(result)
    if len(lens) != gp.n:
        raise InvariantError(
            f"rotation system has {len(lens)} vertices, G' has {gp.n}")
    u, up, v, vp = gadget.terminals
    ring = beyond[:, [u, v, up, vp]]
    # checks 2 and 3 on the copies: one compare with the gadget's blocks
    want = first + h.n * np.arange(ell)[:, None] + flat.heads
    want[:, flat.slots] = ring
    host_lens = lens[:first]
    host_darts = int(host_lens.sum())
    off = lens[first:] != np.tile(flat.lens, ell)
    if not off.any():
        if (host_lens < 0).any() or len(heads) != host_darts + want.size:
            raise InvariantError(
                f"rotation system of G' has {len(heads)} darts, not the "
                f"{host_darts} of the host vertices and {want.shape[1]} per "
                f"gadget copy")
        wrong = (heads[host_darts:].reshape(want.shape) != want).ravel()
        if wrong.any():
            k, j = divmod(int(np.argmax(wrong)), want.shape[1])
            w = int(np.searchsorted(np.cumsum(flat.lens), j, side="right"))
            off[k * h.n + w] = True
    if off.any():
        raise InvariantError(
            f"rotation at vertex {_label(gp, first + int(np.argmax(off)))} "
            f"is not its gadget vertex's rotation with the connector slot "
            f"filled in")
    # check 3 on the host vertices
    host_heads = heads[:host_darts]
    tail = np.repeat(np.arange(first, dtype=np.int64), host_lens)
    bad = (host_heads < 0) | (host_heads >= gp.n)
    if not bad.any():
        far = np.flatnonzero(host_heads >= first)
        bad[far] = beyond.ravel()[host_heads[far] - first] != tail[far]
    if bad.any():
        i = int(np.argmax(bad))
        y = int(host_heads[i])
        raise InvariantError(
            f"rotation at vertex {_label(gp, int(tail[i]))} lists "
            f"{_label(gp, y) if 0 <= y < gp.n else y}, which is not one of "
            f"its neighbours")
    # check 4: the contracted graph
    edges = _contracted(out, first, h.n)
    c = Graph.from_edges(first + ell, edges, result.host.labels)
    if c.m != len(edges):
        key = np.sort(edges[:, 0] * c.n + edges[:, 1])
        twice = key[1:][key[1:] == key[:-1]]
        ends = np.concatenate((twice // c.n, twice % c.n))
        bad = np.zeros(ell, dtype=bool)
        bad[ends[ends >= first] - first] = True
        _raise_for_copy(result, bad, "has two edges to one vertex, so "
                        "contracting the copies leaves a multigraph")
    check_embedding_arrays(
        c, np.concatenate((host_lens, np.full(ell, 4, dtype=np.int64))),
        np.concatenate((_contracted(host_heads, first, h.n),
                        _contracted(ring, first, h.n).ravel())))


def _contracted(ids: np.ndarray, first: int, size: int) -> np.ndarray:
    """G' ids as ids of the contracted graph of
    ``check_spliced_embedding``: host ids stay, and the vertices of copy
    k become first + k."""
    return np.where(ids < first, ids, first + (ids - first) // size)


def _label(g: Graph, w: int) -> str:
    return g.labels.get(w, str(w))


def _raise_for_copy(result: PlanarizationResult, bad: np.ndarray,
                    fault: str = "is not an exact copy of the gadget "
                                 "attached at its four terminals") -> None:
    """Raise InvariantError naming the first copy that ``bad`` marks."""
    if bad.any():
        k = int(np.argmax(bad))
        label = _label(result.g_prime,
                       result.host.n + k * result.gadget.graph.n)
        raise InvariantError(f"gadget copy {label.split(':')[0]} of G' "
                             f"{fault}")
