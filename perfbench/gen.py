"""Seeded input generators for the benchmark.

Every generator takes an integer seed and returns a ``Host``: a vertex
count, an edge list and a layout, all 0-based.  The same seed always
gives the same host.  Nothing here imports ``cutplanar``, so a change to
the library can never change the benchmark's inputs; the hosts reach the
program only through the text files written by ``graph_text`` and
``layout_text``.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Host:
    n: int
    edges: tuple[tuple[int, int], ...]   # (u, v) with u < v, sorted
    order: tuple[int, ...]               # order[i] = vertex at position i+1


def graph_text(h: Host) -> str:
    """Graph file in the library's text format (1-based ids)."""
    lines = [f"p {h.n} {len(h.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in h.edges]
    return "\n".join(lines) + "\n"


def layout_text(h: Host) -> str:
    return " ".join(str(v + 1) for v in h.order) + "\n"


def _spans(h: Host) -> list[tuple[int, int]]:
    """Edges as 1-based (left, right) position intervals."""
    pos = {v: i + 1 for i, v in enumerate(h.order)}
    return [tuple(sorted((pos[u], pos[v]))) for u, v in h.edges]


def crossing_count(h: Host) -> int:
    """Number of arc crossings of the host's drawing."""
    return count_crossings(sorted(_spans(h)))


def crossing_pairs(h: Host) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Pairs of position intervals whose arcs cross: they strictly
    interleave, so the two edges never share an endpoint."""
    spans = _spans(h)
    return [(s, t) for s, t in itertools.combinations(spans, 2)
            if s[0] < t[0] < s[1] < t[1] or t[0] < s[0] < t[1] < s[1]]


def crossing_x(s: tuple[int, int], t: tuple[int, int]) -> Fraction:
    """x where the semicircles over [a, b] and [c, d] meet: equal heights
    give (x - a)(b - x) = (x - c)(d - x), so x = (ab - cd) / (a + b - c - d)."""
    (a, b), (c, d) = s, t
    return Fraction(a * b - c * d, a + b - c - d)


def edges_over(h: Host, x: Fraction) -> int:
    """Edges whose arcs pass strictly over x.  Counted directly, so x may
    coincide with a vertex position (arcs 1-5 and 3-7 meet above 4)."""
    return sum(1 for a, b in _spans(h) if a < x < b)


def single_crossing_host(seed: int) -> Host:
    """Host of 4-8 vertices in a shuffled layout whose arc drawing has
    exactly one crossing, between two disjoint edges, with at most four
    edges (the crossing pair included) over the crossing point."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(4, 8)
        edges = tuple(e for e in itertools.combinations(range(n), 2)
                      if rng.random() < 0.3)
        if len(edges) < 2:
            continue
        order = list(range(n))
        rng.shuffle(order)
        h = Host(n, edges, tuple(order))
        pairs = crossing_pairs(h)
        if len(pairs) != 1:
            continue
        if edges_over(h, crossing_x(*pairs[0])) > 4:
            continue
        return h


def banded_host(n: int, m: int, band: int, crossings: int, seed: int) -> Host:
    """n vertices under a random relabelling, laid out in band order, with
    m distinct edges among the position pairs at most ``band`` apart and
    exactly ``crossings`` arc crossings (so that every seed gives a G'
    of the same size).  Edge sets are drawn uniformly and rejected until
    the crossing count matches."""
    rng = random.Random(seed)
    candidates = [(i, j) for i in range(n)
                  for j in range(i + 1, min(n, i + band + 1))]
    if m > len(candidates):
        raise ValueError(f"{m} edges do not fit in a band of {band} over {n}")
    while True:
        picked = sorted(rng.sample(candidates, m))
        if count_crossings(picked) == crossings:
            break
    order = list(range(n))
    rng.shuffle(order)   # order[i] = vertex id at position i+1
    edges = sorted(tuple(sorted((order[i], order[j]))) for i, j in picked)
    return Host(n, tuple(edges), tuple(order))


def count_crossings(spans: list[tuple[int, int]]) -> int:
    """Number of strictly interleaving pairs among position intervals
    sorted by left end; only intervals starting inside another can cross
    it, so banded hosts are counted in O(m * band)."""
    lefts = [a for a, _ in spans]
    total = 0
    for a, b in spans:
        j = bisect.bisect_right(lefts, a)
        while j < len(spans) and spans[j][0] < b:
            if spans[j][1] > b:
                total += 1
            j += 1
    return total


def complete_host(n: int) -> Host:
    """K_n in identity layout."""
    return Host(n, tuple(itertools.combinations(range(n), 2)), tuple(range(n)))
