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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .drawing import build_arc_drawing, element_order
from .errors import InvariantError, OracleLimitError
from .gadgets import CrossoverGadget
from .graph import (CutProfile, Graph, LinearLayout, check_embedding_arrays,
                    cut_profile)
from . import solvers

# the largest host verify_planarization solves by brute force
VERIFY_HOST_LIMIT = 24


@dataclass(frozen=True)
class PlanarizationResult:
    g_prime: Graph
    layout_prime: LinearLayout
    t_prime: int
    crossings_replaced: int
    width_in: int
    width_out: int
    gadget_width: int
    # per-gap cuts of layout_prime on g_prime
    cut_profile: CutProfile


def planarize(g: Graph, layout: LinearLayout, t: int,
              gadget: CrossoverGadget) -> PlanarizationResult:
    """Replace all crossings of the arc drawing by gadget copies.

    Each crossed edge is routed left to right through the copies of its
    crossings, so remaining crossings keep their original drawing
    locations.  The route is the edge's stop list: its left end, the
    entry and exit terminal of every copy it passes, its right end.
    Only the stop lists grow per crossing; the connector edges, slot
    fills and host rotation are read off them, and the edges,
    rotations, labels and layout blocks of all gadget copies are laid
    down at once by broadcasting the gadget's arrays over the copies'
    base ids.

    Raises GadgetError when the gadget has no planar drawing with its
    connectors in the crossover order, and InvariantError when a width
    claim fails or the rotation system of G' is not planar.
    """
    drawing = build_arc_drawing(g, layout)
    pos = layout.position()
    width_in = cut_profile(g, layout).max_width

    h = gadget.graph
    u, up, v, vp = gadget.terminals
    elements = element_order(drawing)
    # copy c of the gadget replaces the c-th crossing, which is element
    # cross_at[c], and takes the ids base + 0 .. base + h.n - 1
    cross_at = [k for k, el in enumerate(elements) if el.kind == "crossing"]
    ell = len(cross_at)
    bases = g.n + h.n * np.arange(ell, dtype=np.int64)
    # stop list of each crossed edge e (position-normalized): e[0], the
    # entry and exit terminal of each copy on its route, then e[1]; stops
    # 0-1, 2-3, ... are its connector edges
    stops: dict[tuple[int, int], list[int]] = {}
    for base, k in zip(bases.tolist(), cross_at):
        e1, e2 = elements[k].crossing.edges   # position-normalized, pair sorted
        # e1 has the smaller left end, so it enters upper left and the
        # connectors run counter-clockwise u, v, u', v'
        stops.setdefault(e1, [e1[0]]).extend((base + u, base + up))
        stops.setdefault(e2, [e2[0]]).extend((base + v, base + vp))
    for e, route in stops.items():
        route.append(e[1])
    chain = np.array([w for route in stops.values() for w in route],
                     dtype=np.int64).reshape(-1, 2)

    drop = {tuple(sorted(e)) for e in stops}
    kept = [e for e in g.sorted_edges() if e not in drop]
    copies = (bases[:, None, None] + h.edge_array).reshape(-1, 2)
    edges = np.concatenate((np.array(kept, dtype=np.int64).reshape(-1, 2),
                            copies, chain))
    names = [h.labels.get(w, str(w)) for w in range(h.n)]
    labels = dict(g.labels)
    labels.update(zip(range(g.n, g.n + ell * h.n),
                      (f"X{k}:{name}" for k in cross_at for name in names)))
    g_prime = Graph.from_edges(g.n + ell * h.n, edges, labels)

    # a host vertex sees, counter-clockwise from the east, its right-going
    # arcs by increasing span, then its left-going arcs by decreasing span
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for x, y in g.sorted_edges():
        e = (x, y) if pos[x] < pos[y] else (y, x)
        span = pos[e[1]] - pos[e[0]]
        # the first and last chain vertex, or e itself when uncrossed
        route = stops.get(e, e)
        incident[e[0]].append((0, span, route[1]))
        incident[e[1]].append((1, -span, route[-2]))
    host_rotation = [end for arcs in incident for _, _, end in sorted(arcs)]
    # counter-clockwise rotation of every vertex of G': the host vertices,
    # then the gadget's rotation per copy, whose connector slots (index 0
    # of a terminal's rotation) hold the other end of the terminal's
    # connector edge
    h_lens = np.fromiter(map(len, gadget.rotation), np.int64, count=h.n)
    h_heads = np.fromiter(itertools.chain.from_iterable(gadget.rotation),
                          np.int64, count=int(h_lens.sum()))
    lens = np.concatenate((np.fromiter(map(len, incident), np.int64,
                                       count=g.n),
                           np.tile(h_lens, ell)))
    rotation = np.concatenate((np.array(host_rotation, dtype=np.int64),
                               (bases[:, None] + h_heads).ravel()))
    # every connector end with an id from g.n on is a gadget terminal
    ends = np.concatenate((chain, chain[:, ::-1]))
    filled = ends[ends[:, 0] >= g.n]
    rotation[(np.cumsum(lens) - lens)[filled[:, 0]]] = filled[:, 1]

    # one layout block per element: a host vertex (these come in layout
    # order), or a gadget copy laid out by the gadget's layout
    is_cross = np.zeros(len(elements), dtype=bool)
    is_cross[cross_at] = True
    sizes = np.where(is_cross, h.n, 1)
    first = np.cumsum(sizes) - sizes
    order = np.empty(g_prime.n, dtype=np.int64)
    order[first[~is_cross]] = layout.order
    order[first[is_cross][:, None] + np.arange(h.n)] = (
        bases[:, None] + np.array(gadget.layout.order, dtype=np.int64))
    layout_prime = LinearLayout(tuple(order.tolist()))
    prof_out = cut_profile(g_prime, layout_prime)

    result = PlanarizationResult(
        g_prime=g_prime, layout_prime=layout_prime,
        t_prime=t + ell * gadget.shift, crossings_replaced=ell,
        width_in=width_in, width_out=prof_out.max_width,
        gadget_width=gadget.width, cut_profile=prof_out,
    )
    _assert_invariants(result, h, ell, g)
    check_embedding_arrays(g_prime, lens, rotation)
    return result


def _assert_invariants(res: PlanarizationResult, h: Graph, ell: int,
                       g: Graph) -> None:
    """Hard runtime checks of the construction's guarantees; a violation
    falsifies the width argument and must never be shipped past."""
    bound = res.width_in + res.gadget_width + 4
    # per-gap claims: original-vertex gaps <= width_in, gadget gaps <= bound
    order = np.array(res.layout_prime.order[:-1], dtype=np.int64)
    # the ids below g.n are the original vertices
    limit = np.where(order < g.n, res.width_in, bound)
    over = np.flatnonzero(np.array(res.cut_profile.widths, dtype=np.int64)
                          > limit)
    if over.size:
        i = int(over[0])
        cut = res.cut_profile.widths[i]
        w = res.layout_prime.order[i]
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


def verify_planarization(g: Graph, t: int, result: PlanarizationResult,
                         problem: str) -> bool:
    """Check the cutwidth inequality and the optimum shift
    opt(G') = opt(G) + crossings * shift using brute force on the input
    (at most VERIFY_HOST_LIMIT vertices) and the layout DP on the output.

    Planarity of G' is not tested again: ``planarize`` proves it before
    returning and raises InvariantError otherwise.
    """
    if result.width_out > result.width_in + result.gadget_width + 4:
        return False
    if g.n > VERIFY_HOST_LIMIT:
        raise OracleLimitError(
            f"host graph too large for the brute-force oracle ({g.n})")
    if problem not in solvers.SOLVERS:
        raise ValueError(f"unknown problem {problem!r}")
    brute, dp = solvers.SOLVERS[problem]
    before = brute(g)
    after = dp(result.g_prime, result.layout_prime).optimum
    return after == before + result.t_prime - t
