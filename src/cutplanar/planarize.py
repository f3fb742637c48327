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
connector slots filled in.  ``graph.check_embedding`` then counts the
faces of this rotation system and checks Euler's formula with numpy
passes over the darts, so no general planarity test runs on G'.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drawing import build_arc_drawing, element_order
from .errors import InvariantError, OracleLimitError
from .gadgets import CrossoverGadget
from .graph import (CutProfile, Graph, LinearLayout, check_embedding,
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
    # vertex ids of g_prime that came from the input graph
    original_vertices: frozenset[int]
    # per-gap cuts of layout_prime on g_prime
    cut_profile: CutProfile


def planarize(g: Graph, layout: LinearLayout, t: int,
              gadget: CrossoverGadget) -> PlanarizationResult:
    """Replace all crossings of the arc drawing by gadget copies.

    Per-edge tail tracking realizes the left-to-right replacement: each
    original edge keeps its current left attachment vertex, advanced to
    the gadget's right-channel terminal after each of its crossings, so
    remaining crossings keep their original drawing locations.

    Raises GadgetError when the gadget has no planar drawing with its
    connectors in the crossover order, and InvariantError when a width
    claim fails or the rotation system of G' is not planar.
    """
    layout.validate(g)
    drawing = build_arc_drawing(g, layout)
    pos = layout.position()
    width_in = cut_profile(g, layout).max_width
    gadget_width = gadget.width

    h = gadget.graph
    h_rotation = gadget.rotation
    u, up, v, vp = gadget.terminals
    tails: dict[tuple[int, int], int] = {}
    # first vertex after the left end on the chain of a crossed edge
    heads: dict[tuple[int, int], int] = {}
    new_edges: list[tuple[int, int]] = []
    labels = dict(g.labels)
    drop: set[tuple[int, int]] = set()
    next_id = g.n
    blocks: list[list[int]] = []   # layout blocks, one per element
    # counter-clockwise rotation of every vertex of G'; a gadget terminal
    # keeps its connector at index 0
    rotation: list[list[int]] = [[] for _ in range(g.n)]
    elements = element_order(drawing)

    def attach(e: tuple[int, int], left: int, right: int) -> None:
        """Route the chain of e through a gadget copy: the current tail
        connects to the terminal ``left``, and ``right`` becomes the tail."""
        tail = tails.get(e)
        if tail is None:
            heads[e] = left
            tail = e[0]
        else:
            rotation[tail][0] = left
        new_edges.append((tail, left))
        rotation[left][0] = tail
        tails[e] = right

    for el in elements:
        if el.kind == "vertex":
            blocks.append([el.vertex])
            continue
        e1, e2 = el.crossing.edges   # position-normalized, pair sorted
        drop.add(tuple(sorted(e1)))
        drop.add(tuple(sorted(e2)))
        base = next_id
        for s, tt in h.edges:
            new_edges.append((base + s, base + tt))
        k = len(blocks)
        for w in range(h.n):
            src = h.labels.get(w, str(w))
            labels[base + w] = f"X{k}:{src}"
        rotation.extend([base + x for x in r] for r in h_rotation)
        # e1 has the smaller left end, so it enters upper left and the
        # connectors run counter-clockwise u, v, u', v'
        attach(e1, base + u, base + up)
        attach(e2, base + v, base + vp)
        blocks.append([base + w for w in gadget.layout.order])
        next_id += h.n

    # close off crossed edges with their final right segment
    for e, tail in tails.items():
        new_edges.append((tail, e[1]))
        rotation[tail][0] = e[1]
    edges = [e for e in g.edges if e not in drop] + new_edges
    g_prime = Graph.from_edges(next_id, edges, labels)

    # a host vertex sees, counter-clockwise from the east, its right-going
    # arcs by increasing span, then its left-going arcs by decreasing span
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for x, y in g.edges:
        e = (x, y) if pos[x] < pos[y] else (y, x)
        span = pos[e[1]] - pos[e[0]]
        incident[e[0]].append((0, span, heads.get(e, e[1])))
        incident[e[1]].append((1, -span, tails.get(e, e[0])))
    for w, arcs in enumerate(incident):
        rotation[w] = [end for _, _, end in sorted(arcs)]

    order = tuple(w for block in blocks for w in block)
    layout_prime = LinearLayout(order)
    ell = len(drawing.crossings)
    prof_out = cut_profile(g_prime, layout_prime)

    result = PlanarizationResult(
        g_prime=g_prime, layout_prime=layout_prime,
        t_prime=t + ell * gadget.shift, crossings_replaced=ell,
        width_in=width_in, width_out=prof_out.max_width,
        gadget_width=gadget_width, original_vertices=frozenset(range(g.n)),
        cut_profile=prof_out,
    )
    _assert_invariants(result, h, ell, g)
    check_embedding(g_prime, rotation)
    return result


def _assert_invariants(res: PlanarizationResult, h: Graph, ell: int,
                       g: Graph) -> None:
    """Hard runtime checks of the construction's guarantees; a violation
    falsifies the width argument and must never be shipped past."""
    bound = res.width_in + res.gadget_width + 4
    # per-gap claims: original-vertex gaps <= width_in, gadget gaps <= bound
    order = res.layout_prime.order
    for i, w in enumerate(order[:-1]):
        cut = res.cut_profile.widths[i]
        original = w in res.original_vertices
        if cut > (res.width_in if original else bound):
            label = res.g_prime.labels.get(w, str(w))
            if original:
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
