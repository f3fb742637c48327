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
each gadget copy takes the gadget's cached planar rotation with its
connector slots filled in.  ``graph.check_embedding_arrays`` then
counts the faces of this rotation system, handed over as flat arrays,
and checks Euler's formula with numpy passes over the darts, so no
general planarity test runs on G'.

``verify_planarization`` solves G' under the gadget's problem with one
DP block step per gadget copy (``planarized_optimum``), after checking
that every copy is an exact copy of the gadget attached at its four
terminals.
"""

from __future__ import annotations

import itertools
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
    once by broadcasting the gadget's arrays over the copies' base ids.

    Raises ResourceLimitError when G' would have more than
    PLANARIZE_VERTEX_LIMIT vertices, GadgetError when the gadget has no
    planar drawing with its connectors in the crossover order, and
    InvariantError when a width claim fails or the rotation system of G'
    is not planar.
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
    h_lens = np.fromiter(map(len, gadget.rotation), np.int64, count=h.n)
    h_heads = np.fromiter(itertools.chain.from_iterable(gadget.rotation),
                          np.int64, count=int(h_lens.sum()))
    lens = np.concatenate((np.bincount(at, minlength=g.n),
                           np.tile(h_lens, ell)))
    rotation = np.concatenate((np.concatenate((first_stop, last_stop))[host],
                               (bases[:, None] + h_heads).ravel()))
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
    check_embedding_arrays(g_prime, lens, rotation)
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

    Raises InvariantError with both counts unless G' has host.n +
    crossings * h.n vertices, and naming the copy (X{e}) unless every
    copy is an exact copy of the gadget: its induced edges are the
    gadget's edges plus its base id, only u, u', v and v' have an edge
    leaving it, one each, and in C the vertex before u (the end of u's
    edge) and the one before v are distinct, U comes after the first and
    before the end of the edge of u', and V after the second and before
    the end of the edge of v'.  So U and V each have exactly one earlier
    neighbour, the one a block step reads.
    """
    gp, h, ell = result.g_prime, result.gadget.graph, result.crossings_replaced
    first = result.host.n
    if gp.n != first + ell * h.n:
        raise InvariantError(
            f"G' has {gp.n} vertices, not the {first + ell * h.n} of "
            f"{first} host vertices and {ell} gadget copies")
    result.layout_prime.validate(gp)
    e = gp.edge_array
    copy = np.where(e >= first, (e - first) // h.n, -1)
    inside = (copy[:, 0] == copy[:, 1]) & (copy[:, 0] >= 0)
    # the induced edges of each copy, by their gadget ids
    k = copy[inside, 0]
    sizes = np.bincount(k, minlength=ell)
    bad = sizes != h.m
    if not bad.any():
        local = (e[inside] - first - h.n * k[:, None]).reshape(ell, h.m, 2)
        bad = (local != h.edge_array).any(axis=(1, 2))
    # the edges leaving each copy, per gadget vertex
    out = e[~inside]
    ends = out[out >= first] - first
    terminal = np.zeros(h.n, dtype=np.int64)
    terminal[list(result.gadget.terminals)] = 1
    bad |= (np.bincount(ends, minlength=ell * h.n).reshape(ell, h.n)
            != terminal).any(axis=1)
    _raise_for_copy(result, first, bad)

    u, up, v, vp = result.gadget.terminals
    # a terminal's C id, less first + 2k; -1 marks the dropped vertices
    merged = np.full(h.n, -1, dtype=np.int64)
    merged[[u, up, v, vp]] = 0, 0, 1, 1
    cid = np.concatenate((np.arange(first), first + (
        2 * np.arange(ell)[:, None] + merged).ravel()))
    edges = cid[out]
    # C's layout: host vertices at their positions, U and V at the
    # copy's first position
    pos = np.empty(gp.n, dtype=np.int64)
    pos[result.layout_prime.order_array] = np.arange(gp.n)
    at = pos[first:].reshape(ell, h.n).min(axis=1, initial=gp.n)
    key = np.concatenate((2 * pos[:first], (2 * at[:, None] + (0, 1)).ravel()))
    order = np.argsort(key)
    pos_c = np.empty(first + 2 * ell, dtype=np.int64)
    pos_c[order] = np.arange(order.size)
    # the C id beyond each terminal's edge; a, b, c and d are the
    # positions in C of those beyond u, u', v and v'
    beyond = np.empty(ell * h.n, dtype=np.int64)
    for side in (0, 1):
        mine = out[:, side] >= first
        beyond[out[mine, side] - first] = edges[mine, 1 - side]
    a, b, c, d = pos_c[beyond.reshape(ell, h.n)[:, [u, up, v, vp]].T]
    here = pos_c[first::2]
    _raise_for_copy(result, first, (a >= here) | (b <= here) | (c >= here + 1)
                    | (d <= here + 1) | (a == c))
    return (Graph.from_edges(first + 2 * ell, edges), LinearLayout(order),
            first)


def _raise_for_copy(result: PlanarizationResult, first: int,
                    bad: np.ndarray) -> None:
    """Raise InvariantError naming the first copy that ``bad`` marks."""
    if bad.any():
        k = int(np.argmax(bad))
        w = first + k * result.gadget.graph.n
        label = result.g_prime.labels.get(w, str(w))
        raise InvariantError(
            f"gadget copy {label.split(':')[0]} of G' is not an exact copy "
            f"of the gadget attached at its four terminals")
