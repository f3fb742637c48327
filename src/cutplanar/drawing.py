"""Arc-diagram drawings of linear layouts.

Vertices sit on the x-axis at their layout positions; every edge is the
semicircle above the axis whose diameter spans its endpoints.  The arcs
over positions a < b and c < d cross iff a < c < b < d, and then exactly
once, at x = p / q with p = cd - ab and q = c + d - a - b.  Ties in the
element order are broken by a deterministic lexicographic key, which
corresponds to an infinitesimal perturbation of the drawing.

A drawing holds its arcs and crossings as integer arrays.  The crossings
are ordered by the key (p // q, (p % q) / q, a, b, c, d), whose second
entry is a float64.  It is exact: two fractional parts p % q / q with
q < 2n that differ do so by more than 1 / (4n^2), and the float64 of
each is off by at most 2^-54, so below DRAWING_VERTEX_LIMIT < 2^24
vertices the floats order them as the exact rationals do.  The vertices
merge in by the integer floors p // q, and ``Crossing.x`` is the exact
``Fraction``, made only when ``ArcDrawing.crossings`` is read.

The crossings are counted in O(m log^2 m) and found by a sweep whose
cost is output-sensitive, O(m log m + sum of spans + crossings); every
step of both is a numpy pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidLayoutError, ResourceLimitError
from .graph import Graph, LinearLayout, _ranges, edge_positions

Edge = tuple[int, int]

# the most vertices a drawing takes: the crossing key is exact below 2^24
DRAWING_VERTEX_LIMIT = 10**7

# the most (arc, left end) pairs one step of the sweep holds at once
_SWEEP_CHUNK = 1 << 18


@dataclass(frozen=True)
class Crossing:
    """A proper crossing of two arcs.

    ``edges`` holds the two crossing edges with position-normalized
    endpoints, ordered so that the pair is lexicographically sorted by
    (left position, right position).  The four positions in this order
    break ties between crossings at equal x.
    """

    edges: tuple[Edge, Edge]   # ((a, b), (c, d)) as vertex ids
    x: Fraction


@dataclass(frozen=True, eq=False)
class ArcDrawing:
    """An arc diagram with its crossings sorted by (x, tiebreak).

    ``arcs`` holds the (left, right) positions of every edge, sorted by
    left end and then by right end descending.  Crossing k, in crossing
    order, is of arcs ``pairs[k]`` = (i, j) with arc i left of arc j,
    and ``floors[k]`` is the floor of its x, so it comes after the
    vertices at positions 1 .. floors[k] in the element order.
    """

    graph: Graph
    layout: LinearLayout
    arcs: np.ndarray     # (m, 2) int64 positions
    pairs: np.ndarray    # (k, 2) int64 arc indices
    floors: np.ndarray   # (k,) int64

    @cached_property
    def crossings(self) -> tuple[Crossing, ...]:
        """The crossings as objects with exact x, in crossing order."""
        vertex = self.layout.order   # vertex at position p is vertex[p - 1]
        return tuple(
            Crossing(((vertex[a - 1], vertex[b - 1]),
                      (vertex[c - 1], vertex[d - 1])),
                     Fraction(c * d - a * b, c + d - a - b))
            for a, b, c, d in self.arcs[self.pairs].reshape(-1, 4).tolist())


def _arcs(g: Graph, layout: LinearLayout) -> np.ndarray:
    """Validates the layout; the (left, right) positions of g's edges,
    sorted by left end and then by right end descending."""
    lo, hi = edge_positions(g, layout)
    order = np.lexsort((-hi, lo))
    return np.stack((lo[order], hi[order]), axis=1)


def count_crossings(g: Graph, layout: LinearLayout) -> int:
    """The number of crossings of the arc drawing of (g, layout), without
    finding them, in O(m log^2 m); validates the layout.

    In the order of ``_arcs`` a pair of arcs i < j is nested or shares an
    end iff hi[j] <= hi[i]; otherwise it crosses unless it is disjoint,
    lo[j] >= hi[i].  So the crossings are the C(m, 2) pairs less the
    pairs with hi[j] <= hi[i], counted by merging halves, and less the
    disjoint pairs, counted by a search over the sorted left ends.
    """
    lo, hi = _arcs(g, layout).T
    m = len(lo)
    disjoint = int((m - np.searchsorted(lo, hi)).sum())
    # index pairs i < j with hi[j] <= hi[i]: the indices go by hi
    # descending, ties by index, so i comes before j exactly for these
    # pairs.  Each pair is counted at the highest bit where i and j
    # differ, within the block of indices that agree above that bit: a
    # stable sort by block keeps the order inside each block, and j (bit
    # 1, the right half) counts the left-half indices before it.
    by_hi = np.argsort(-hi, kind="stable")
    below = 0
    bit = 0
    while (1 << bit) < m:
        grouped = by_hi[np.argsort(by_hi >> (bit + 1), kind="stable")]
        block = grouped >> (bit + 1)
        is_left = ((grouped >> bit) & 1) == 0
        lefts = np.cumsum(is_left) - is_left   # left-half entries before
        start = np.searchsorted(block, block)   # where each block starts
        below += int((lefts - lefts[start])[~is_left].sum())
        bit += 1
    return m * (m - 1) // 2 - below - disjoint


def build_arc_drawing(g: Graph, layout: LinearLayout) -> ArcDrawing:
    """All pairwise crossings of the arc diagram of (g, layout), sorted
    by (x, tiebreak), in O(m log m + sum of spans + crossings).  A graph
    of more than DRAWING_VERTEX_LIMIT vertices raises ResourceLimitError.

    The arcs with one left end c form a run with right ends descending,
    so the arcs crossing (a, b) from the right are, for every run
    starting at some c strictly inside (a, b), the prefix of that run
    with right ends past b.  The (arc, run) pairs are taken a chunk of
    arcs at a time, so that the sweep holds at most _SWEEP_CHUNK of them
    besides the crossings it has found.  Equal heights of the two
    semicircles, (x - a)(b - x) = (x - c)(d - x), give x = p / q, and
    q > 0 because a + b < c + d, so p // q is the floor of x.
    """
    if g.n > DRAWING_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"graph has {g.n} vertices, arc drawing limit is "
            f"{DRAWING_VERTEX_LIMIT}")
    arcs = _arcs(g, layout)
    lo, hi = arcs.T
    m = len(lo)
    lefts, first = np.unique(lo, return_index=True)
    # the runs starting strictly inside arc i: s[i] .. s[i] + runs[i] - 1
    s = np.searchsorted(lefts, lo, side="right")
    runs = np.searchsorted(lefts, hi) - s
    # ascending along the arcs; in run r, the arcs right of b are the
    # ones before the first key >= lefts[r] * (n + 1) - b
    key = lo * (g.n + 1) - hi
    reach = np.cumsum(runs)
    found = []
    i0 = 0
    while i0 < m:
        i1 = max(i0 + 1, int(np.searchsorted(reach, reach[i0] - runs[i0]
                                             + _SWEEP_CHUNK, side="right")))
        arc = np.repeat(np.arange(i0, i1), runs[i0:i1])
        run = _ranges(s[i0:i1], runs[i0:i1])
        crossing = (np.searchsorted(key, lefts[run] * (g.n + 1) - hi[arc])
                    - first[run])
        found.append(np.stack((np.repeat(arc, crossing),
                               _ranges(first[run], crossing)), axis=1))
        i0 = i1
    pairs = np.concatenate(found) if found else np.empty((0, 2), np.int64)
    a, b = lo[pairs[:, 0]], hi[pairs[:, 0]]
    c, d = lo[pairs[:, 1]], hi[pairs[:, 1]]
    p, q = c * d - a * b, c + d - a - b
    floors = p // q
    order = np.lexsort((d, c, b, a, (p % q) / q, floors))
    return ArcDrawing(g, layout, arcs, pairs[order], floors[order])


@dataclass(frozen=True)
class Element:
    """An element of the drawing: a vertex or a crossing, in x-order."""

    kind: str                  # "vertex" | "crossing"
    x: Fraction | int          # a vertex's position, a crossing's Fraction
    vertex: int | None = None
    crossing: Crossing | None = None


def element_order(d: ArcDrawing) -> list[Element]:
    """Vertices and crossings in strict total order by (x, kind, tiebreak);
    restricted to vertices this equals the layout order.  Vertex i sits
    at x = i, and crossing k comes after the vertices at positions up to
    ``d.floors[k]``, so one merge of integer floors places each crossing
    before the first vertex right of it; a crossing above a vertex comes
    after that vertex.  The arcs over a < c < b < d cross at
    x < b <= n, so no crossing is left after the last vertex."""
    elems = []
    floors = d.floors.tolist()
    crossings = d.crossings
    k = 0
    for i, v in enumerate(d.layout.order, start=1):
        while k < len(floors) and floors[k] < i:
            c = crossings[k]
            elems.append(Element("crossing", c.x, crossing=c))
            k += 1
        elems.append(Element("vertex", i, vertex=v))
    return elems


def _normalize(pos: dict[int, int], e: Edge) -> Edge:
    u, v = e
    return (u, v) if pos[u] < pos[v] else (v, u)


def vertical_cut_edges(d: ArcDrawing, x0) -> set[Edge]:
    """Edges whose arcs are intersected by the vertical line at x0."""
    x0 = Fraction(x0)
    pos = d.layout.position()
    if any(Fraction(p) == x0 for p in pos.values()):
        raise InvalidLayoutError(f"x0 = {x0} coincides with a vertex position")
    out = set()
    for e in d.graph.edges:
        u, v = _normalize(pos, e)
        if Fraction(pos[u]) < x0 < Fraction(pos[v]):
            out.add((u, v))
    return out


# ---------------------------------------------------------------------------
# SVG export
# ---------------------------------------------------------------------------

_SCALE = 40
_MARGIN = 30


def _fx(value: Fraction) -> str:
    return f"{float(value):.3f}"


def to_svg(d: ArcDrawing) -> str:
    """Deterministic SVG of the arc diagram: labeled dots on a baseline,
    semicircular arcs, small markers at crossings."""
    from html import escape    # imported here: only SVG export needs it
    pos = d.layout.position()
    n = d.graph.n
    max_span = max((abs(pos[u] - pos[v]) for u, v in d.graph.edges),
                   default=1)
    width = 2 * _MARGIN + _SCALE * max(n - 1, 1)
    height = _MARGIN + _SCALE * max_span // 2 + _SCALE
    base_y = height - _MARGIN

    def px(p) -> str:
        return _fx(_MARGIN + (Fraction(p) - 1) * _SCALE)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'  <line x1="{_MARGIN}" y1="{base_y}" '
        f'x2="{width - _MARGIN}" y2="{base_y}" stroke="#999"/>',
    ]
    for u, v in d.graph.sorted_edges():
        a, b = sorted((pos[u], pos[v]))
        r = Fraction(b - a, 2) * _SCALE
        lines.append(
            f'  <path d="M {px(a)} {base_y} A {_fx(r)} {_fx(r)} 0 0 1 '
            f'{px(b)} {base_y}" fill="none" stroke="#3366aa"/>')
    for c in d.crossings:
        (a, b), (cc, dd) = c.edges
        m1 = Fraction(pos[a] + pos[b], 2)
        r1 = Fraction(abs(pos[b] - pos[a]), 2)
        y2 = r1 * r1 - (c.x - m1) * (c.x - m1)
        # exact square root is irrational in general; draw at float height
        yy = base_y - (float(y2) ** 0.5) * _SCALE
        lines.append(
            f'  <circle cx="{px(c.x)}" cy="{yy:.3f}" r="3" fill="#cc3333"/>')
    for i, v in enumerate(d.layout.order):
        label = escape(d.graph.labels.get(v, str(v + 1)), quote=False)
        x = px(i + 1)
        lines.append(f'  <circle cx="{x}" cy="{base_y}" r="4" fill="#222"/>')
        lines.append(
            f'  <text x="{x}" y="{base_y + 16}" font-size="11" '
            f'text-anchor="middle">{label}</text>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
