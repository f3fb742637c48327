"""Arc-diagram drawings of linear layouts.

Vertices sit on the x-axis at their layout positions; every edge is the
semicircle above the axis whose diameter spans its endpoints.  Two arcs
cross iff their position intervals strictly interleave, and then they
cross exactly once, at an x-coordinate with a closed form.  All
coordinates are exact rationals, and ties in the element order are
broken by a deterministic lexicographic key, which corresponds to an
infinitesimal perturbation of the drawing.

The crossings are found by a sweep over left positions whose cost is
output-sensitive, O(m log m + sum of spans + crossings), and the element
order merges them with the vertices in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidLayoutError
from .graph import Graph, LinearLayout

Edge = tuple[int, int]


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


@dataclass(frozen=True)
class ArcDrawing:
    """An arc diagram with its crossings sorted by (x, tiebreak)."""

    graph: Graph
    layout: LinearLayout
    crossings: tuple[Crossing, ...]

    def position(self) -> dict[int, int]:
        return self.layout.position()


def _normalize(pos: dict[int, int], e: Edge) -> Edge:
    u, v = e
    return (u, v) if pos[u] < pos[v] else (v, u)


def build_arc_drawing(g: Graph, layout: LinearLayout) -> ArcDrawing:
    """All pairwise crossings of the arc diagram of (g, layout), sorted
    by (x, tiebreak), in O(m log m + sum of spans + crossings).

    The arcs over positions a < b and c < d cross iff a < c < b < d.  With
    the right ends starting at each left position listed in descending
    order, the arcs crossing (a, b) from the right are found by scanning
    the left positions c strictly inside (a, b) and reading each list
    while d > b.  Equal heights of the two semicircles,
    (x - a)(b - x) = (x - c)(d - x), give x = (ab - cd) / (a + b - c - d);
    the denominator is never zero because a + b < c + d.
    """
    layout.validate(g)
    pos = layout.position()
    vertex = layout.order   # vertex at position p is vertex[p - 1]
    rights: list[list[int]] = [[] for _ in range(len(vertex) + 1)]
    for e in g.edges:
        a, b = sorted((pos[e[0]], pos[e[1]]))
        rights[a].append(b)
    for ends in rights:
        ends.sort(reverse=True)
    found = []
    for a, ends in enumerate(rights):
        for b in ends:
            for c in range(a + 1, b):
                for d in rights[c]:
                    if d <= b:
                        break
                    found.append((Fraction(a * b - c * d, a + b - c - d),
                                  a, b, c, d))
    found.sort()
    crossings = tuple(
        Crossing(((vertex[a - 1], vertex[b - 1]),
                  (vertex[c - 1], vertex[d - 1])), x)
        for x, a, b, c, d in found)
    return ArcDrawing(g, layout, crossings)


@dataclass(frozen=True)
class Element:
    """An element of the drawing: a vertex or a crossing, in x-order."""

    kind: str                  # "vertex" | "crossing"
    x: Fraction
    vertex: int | None = None
    crossing: Crossing | None = None


def element_order(d: ArcDrawing) -> list[Element]:
    """Vertices and crossings in strict total order by (x, kind, tiebreak);
    restricted to vertices this equals the layout order.  The crossings
    are already in (x, tiebreak) order and vertex i + 1 sits at x = i + 1,
    so one merge places each crossing before the first vertex right of
    it; a crossing above a vertex comes after that vertex.  The arcs over
    a < c < b < d cross at x < b <= n, so no crossing is left after the
    last vertex."""
    elems = []
    crossings = iter(d.crossings)
    c = next(crossings, None)
    for i, v in enumerate(d.layout.order):
        while c is not None and c.x < i + 1:
            elems.append(Element("crossing", c.x, crossing=c))
            c = next(crossings, None)
        elems.append(Element("vertex", Fraction(i + 1), vertex=v))
    return elems


def vertical_cut_edges(d: ArcDrawing, x0) -> set[Edge]:
    """Edges whose arcs are intersected by the vertical line at x0."""
    x0 = Fraction(x0)
    pos = d.position()
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
    pos = d.position()
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
        label = d.graph.labels.get(v, str(v + 1))
        x = px(i + 1)
        lines.append(f'  <circle cx="{x}" cy="{base_y}" r="4" fill="#222"/>')
        lines.append(
            f'  <text x="{x}" y="{base_y + 16}" font-size="11" '
            f'text-anchor="middle">{label}</text>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
