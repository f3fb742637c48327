import itertools
import random
from fractions import Fraction
from xml.etree import ElementTree

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from cutplanar import drawing
from cutplanar import io as cio
from cutplanar.drawing import (build_arc_drawing, count_crossings,
                               element_order, to_svg, vertical_cut_edges)
from cutplanar.errors import InvalidLayoutError, ResourceLimitError
from cutplanar.graph import Graph, LinearLayout, cut_profile, random_graph

from oracles import band24_host, pairwise_crossings, pairwise_element_order


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestCrossings:
    def test_k4_single_crossing(self):
        d = build_arc_drawing(complete(4), LinearLayout.identity(4))
        assert len(d.crossings) == 1
        c = d.crossings[0]
        assert c.x == Fraction(5, 2)
        assert set(c.edges) == {(0, 2), (1, 3)}

    def test_nested_edges_do_not_cross(self):
        g = Graph.from_edges(4, [(0, 3), (1, 2)])
        d = build_arc_drawing(g, LinearLayout.identity(4))
        assert d.crossings == ()

    def test_path_dfs_layout_no_crossings(self):
        g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        d = build_arc_drawing(g, LinearLayout.identity(6))
        assert d.crossings == ()

    def test_kn_crossing_count_is_choose4(self):
        for n in range(4, 8):
            d = build_arc_drawing(complete(n), LinearLayout.identity(n))
            expect = len(list(itertools.combinations(range(n), 4)))
            assert len(d.crossings) == expect

    def test_crossing_count_matches_pair_scan(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.5, rng)
            order = list(range(n))
            rng.shuffle(order)
            layout = LinearLayout(tuple(order))
            pos = layout.position()
            brute = 0
            for e1, e2 in itertools.combinations(sorted(g.edges), 2):
                a, b = sorted((pos[e1[0]], pos[e1[1]]))
                c, dd = sorted((pos[e2[0]], pos[e2[1]]))
                if a < c < b < dd or c < a < dd < b:
                    brute += 1
            d = build_arc_drawing(g, layout)
            assert len(d.crossings) == brute

    def test_matches_pairwise_oracle(self):
        hosts = [(complete(n), LinearLayout.identity(n)) for n in range(4, 10)]
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 14)
            order = list(range(n))
            rng.shuffle(order)
            hosts.append((random_graph(n, rng.random(), rng),
                          LinearLayout(tuple(order))))
        hosts += [band24_host(1), band24_host(2)]
        assert len(hosts[-1][1].order) == 24
        for g, layout in hosts:
            assert build_arc_drawing(g, layout).crossings == \
                pairwise_crossings(g, layout)

    def test_crossing_x_strictly_inside_inner_interval(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randint(4, 9)
            g = random_graph(n, 0.5, rng)
            d = build_arc_drawing(g, LinearLayout.identity(n))
            pos = d.layout.position()
            for c in d.crossings:
                (a, b), (cc, dd) = c.edges
                inner_lo = max(pos[a], pos[cc])
                inner_hi = min(pos[b], pos[dd])
                assert inner_lo < c.x < inner_hi


@st.composite
def tied_drawings(draw):
    """A dense graph on at most 11 vertices in a shuffled layout: the
    crossings' x have denominators below 22, so many of them coincide."""
    n = draw(st.integers(4, 11))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    return g, LinearLayout(tuple(draw(st.permutations(range(n)))))


class TestExactOrder:
    """The integer key orders the crossings, and the integer floors merge
    them with the vertices, exactly as Fractions do."""

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(tied_drawings())
    def test_orders_equal_fraction_oracle(self, host):
        g, layout = host
        d = build_arc_drawing(g, layout)
        assert d.crossings == pairwise_crossings(g, layout)
        assert element_order(d) == pairwise_element_order(g, layout)

    def test_hosts_have_ties(self):
        # the identity layout of K9 alone has 126 crossings on 65 x values
        g = complete(9)
        xs = [c.x for c in build_arc_drawing(g, LinearLayout.identity(9)
                                             ).crossings]
        assert (len(xs), len(set(xs))) == (126, 65)

    def test_floats_of_x_collide(self):
        # two crossings 300 000 positions wide whose x differ by about
        # 1e-11 and round to the same float: ordered by that float and the
        # tiebreak, the one with the larger x would come first
        n = 300_000
        arcs = [(5, 150_000), (149_999, 299_996), (4, 150_000),
                (149_999, 299_997)]
        g = Graph.from_edges(n, [(a - 1, b - 1) for a, b in arcs])
        layout = LinearLayout.identity(n)
        d = build_arc_drawing(g, layout)
        x = {tuple(p + 1 for e in c.edges for p in e): c.x
             for c in d.crossings}
        low, high = x[5, 150_000, 149_999, 299_996], x[4, 150_000, 149_999, 299_997]
        assert low < high and float(low) == float(high)
        assert d.crossings == pairwise_crossings(g, layout)
        assert [c.x for c in d.crossings].index(low) < \
            [c.x for c in d.crossings].index(high)

    def test_vertex_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(drawing, "DRAWING_VERTEX_LIMIT", 4)
        assert len(build_arc_drawing(complete(4), LinearLayout.identity(4)
                                     ).crossings) == 1
        with pytest.raises(ResourceLimitError,
                           match="^graph has 5 vertices, arc drawing limit "
                                 "is 4$"):
            build_arc_drawing(complete(5), LinearLayout.identity(5))


class TestCountCrossings:
    def hosts(self):
        rng = random.Random(7)
        hosts = [(complete(n), LinearLayout.identity(n)) for n in range(0, 12)]
        for _ in range(60):
            n = rng.randint(0, 16)
            order = list(range(n))
            rng.shuffle(order)
            hosts.append((random_graph(n, rng.random(), rng),
                          LinearLayout(tuple(order))))
        return hosts + [band24_host(s) for s in (1, 2, 16)]

    def test_matches_sweep(self):
        for g, layout in self.hosts():
            assert count_crossings(g, layout) == \
                len(build_arc_drawing(g, layout).crossings)

    def test_k40(self):
        assert count_crossings(complete(40), LinearLayout.identity(40)) == \
            91_390

    def test_rejects_bad_layout(self):
        with pytest.raises(InvalidLayoutError):
            count_crossings(complete(4), LinearLayout((0, 1, 2, 2)))

    def test_chunked_sweep_finds_the_same_crossings(self, monkeypatch):
        whole = [build_arc_drawing(g, layout) for g, layout in self.hosts()]
        monkeypatch.setattr(drawing, "_SWEEP_CHUNK", 3)
        for d, (g, layout) in zip(whole, self.hosts()):
            chunked = build_arc_drawing(g, layout)
            assert np.array_equal(chunked.pairs, d.pairs)
            assert np.array_equal(chunked.floors, d.floors)


class TestElementOrder:
    def test_k4(self):
        d = build_arc_drawing(complete(4), LinearLayout.identity(4))
        elems = element_order(d)
        kinds = [(e.kind, e.vertex) for e in elems]
        assert kinds == [("vertex", 0), ("vertex", 1), ("crossing", None),
                         ("vertex", 2), ("vertex", 3)]

    def test_crossing_free_equals_layout(self):
        g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        d = build_arc_drawing(g, LinearLayout.identity(5))
        assert [e.vertex for e in element_order(d)] == list(range(5))

    def test_equal_x_ties_are_deterministic(self):
        # edges (1,4)x(3,6) and (2,4)x(3,5) in position space both cross
        # at x = 3.5; the tiebreak must order them reproducibly.
        g = Graph.from_edges(6, [(0, 3), (2, 5), (1, 3), (2, 4)])
        d = build_arc_drawing(g, LinearLayout.identity(6))
        tied = [c for c in d.crossings if c.x == Fraction(7, 2)]
        assert len(tied) == 2
        runs = [element_order(build_arc_drawing(g, LinearLayout.identity(6)))
                for _ in range(3)]
        seqs = [[(e.kind, e.vertex, e.crossing.edges if e.crossing else None)
                 for e in r] for r in runs]
        assert seqs[0] == seqs[1] == seqs[2]
        xs = [e.crossing for e in runs[0]
              if e.kind == "crossing" and e.crossing.x == Fraction(7, 2)]
        # lexicographic tiebreak on normalized position keys
        assert xs[0].edges == ((0, 3), (2, 5))
        assert xs[1].edges == ((1, 3), (2, 4))

    def test_crossing_above_a_vertex_follows_it(self):
        # arcs 1-5 and 3-7 meet above vertex 4, at x = 4
        g = Graph.from_edges(7, [(0, 4), (2, 6)])
        elems = element_order(build_arc_drawing(g, LinearLayout.identity(7)))
        assert [(e.kind, e.x) for e in elems[3:5]] == [("vertex", 4),
                                                      ("crossing", 4)]

    def test_restriction_to_vertices_is_layout_order(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.6, rng)
            order = list(range(n))
            rng.shuffle(order)
            d = build_arc_drawing(g, LinearLayout(tuple(order)))
            verts = [e.vertex for e in element_order(d) if e.kind == "vertex"]
            assert verts == order


class TestVerticalCuts:
    def test_path(self):
        g = Graph.from_edges(4, [(i, i + 1) for i in range(3)])
        d = build_arc_drawing(g, LinearLayout.identity(4))
        assert vertical_cut_edges(d, Fraction(3, 2)) == {(0, 1)}

    def test_k4_middle(self):
        d = build_arc_drawing(complete(4), LinearLayout.identity(4))
        assert len(vertical_cut_edges(d, Fraction(5, 2))) == 4

    def test_left_of_everything(self):
        d = build_arc_drawing(complete(4), LinearLayout.identity(4))
        assert vertical_cut_edges(d, Fraction(1, 2)) == set()

    def test_vertex_position_rejected(self):
        d = build_arc_drawing(complete(4), LinearLayout.identity(4))
        with pytest.raises(InvalidLayoutError):
            vertical_cut_edges(d, 2)

    def test_cut_near_crossings_bounded_by_width(self):
        rng = random.Random(4)
        eps = Fraction(1, 1_000_000)
        for _ in range(15):
            n = rng.randint(3, 9)
            g = random_graph(n, 0.5, rng)
            layout = LinearLayout.identity(n)
            d = build_arc_drawing(g, layout)
            width = cut_profile(g, layout).max_width
            for c in d.crossings:
                for x0 in (c.x - eps, c.x + eps):
                    assert len(vertical_cut_edges(d, x0)) <= width

    def test_per_edge_crossing_sequence_monotone(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(4, 9)
            g = random_graph(n, 0.6, rng)
            d = build_arc_drawing(g, LinearLayout.identity(n))
            elems = element_order(d)
            rank = {id(e.crossing): i for i, e in enumerate(elems)
                    if e.kind == "crossing"}
            per_edge = {}
            for c in d.crossings:
                for e in c.edges:
                    per_edge.setdefault(e, []).append(c)
            for e, cs in per_edge.items():
                xs = [c.x for c in sorted(cs, key=lambda c: rank[id(c)])]
                assert xs == sorted(xs)


class TestSvg:
    def test_deterministic_and_wellformed(self):
        d = build_arc_drawing(complete(4), LinearLayout.identity(4))
        s1, s2 = to_svg(d), to_svg(d)
        assert s1 == s2
        assert s1.startswith("<svg") and s1.rstrip().endswith("</svg>")
        assert s1.count("<circle") == 4 + 1  # 4 vertices + 1 crossing marker

    def test_p3_contents(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        s = to_svg(build_arc_drawing(g, LinearLayout.identity(3)))
        assert s.count("<path") == 2
        assert s.count("<circle") == 3  # no crossing markers

    def test_labels_are_escaped(self):
        # &, < and > in a label would make the SVG text not well-formed
        g = cio.graph_from_json({"n": 2, "edges": [[1, 2]], "labels": {
            "1": 'a"b', "2": "x<y&z"}})
        s = to_svg(build_arc_drawing(g, LinearLayout.identity(2)))
        assert "x&lt;y&amp;z" in s
        root = ElementTree.fromstring(s)
        texts = root.findall("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts] == ['a"b', "x<y&z"]
