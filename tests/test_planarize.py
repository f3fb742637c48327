import collections
import dataclasses
import hashlib
import importlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cutplanar import io as cio
from cutplanar.drawing import build_arc_drawing, element_order
from cutplanar import gadgets, solvers
from cutplanar.errors import GadgetError, InvariantError, ResourceLimitError
from cutplanar.gadgets import (CrossoverGadget, builtin_gadget,
                               ds_crossover_gadget, gjs_is_gadget)
from cutplanar.graph import (Graph, LinearLayout, bag_steps, check_embedding,
                             check_embedding_arrays, cut_profile, is_planar,
                             random_graph)
from cutplanar.planarize import (_assert_invariants, check_spliced_embedding,
                                 planarize, planarized_optimum,
                                 verify_planarization)
from cutplanar.solvers import SOLVERS, brute_is, dp_is

from oracles import (band24_host, gap_cuts, pairwise_crossings,
                     rotation_lists, single_crossing_host, trace_faces)

# the package exports the function planarize under the module's name
planarize_module = importlib.import_module("cutplanar.planarize")


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestPlanarize:
    def test_crossing_free_identity(self):
        g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        res = planarize(g, LinearLayout.identity(5), 3, gjs_is_gadget())
        assert res.crossings_replaced == 0
        assert res.t_prime == 3
        assert res.g_prime.edges == g.edges
        assert res.layout_prime.order == LinearLayout.identity(5).order
        assert res.width_out == res.width_in

    def test_k4_with_is_gadget(self):
        g = complete(4)
        gadget = gjs_is_gadget()
        res = planarize(g, LinearLayout.identity(4), 1, gadget)
        assert res.crossings_replaced == 1
        assert res.t_prime == 1 + 9
        assert is_planar(res.g_prime)
        assert res.width_out <= res.width_in + gadget.width + 4
        assert res.g_prime.n == 4 + 22
        assert res.host is g and res.t == 1
        assert verify_planarization(res)
        # optimum moves from 1 to 10
        assert dp_is(res.g_prime, res.layout_prime).optimum == 10

    def test_k5_five_crossings(self):
        g = complete(5)
        res = planarize(g, LinearLayout.identity(5), 1, gjs_is_gadget())
        assert res.crossings_replaced == 5
        assert is_planar(res.g_prime)
        assert res.t_prime == 1 + 5 * 9

    def test_deterministic(self):
        g = complete(5)
        r1 = planarize(g, LinearLayout.identity(5), 0, gjs_is_gadget())
        r2 = planarize(g, LinearLayout.identity(5), 0, gjs_is_gadget())
        assert r1.g_prime == r2.g_prime
        assert r1.layout_prime == r2.layout_prime
        assert r1 == r2

    def test_per_gap_claims_hold(self):
        rng = random.Random(8)
        gadget = gjs_is_gadget()
        for _ in range(10):
            n = rng.randint(2, 10)
            g = random_graph(n, 0.45, rng)
            order = list(range(n))
            rng.shuffle(order)
            layout = LinearLayout(tuple(order))
            res = planarize(g, layout, 0, gadget)
            prof = cut_profile(res.g_prime, res.layout_prime)
            bound = res.width_in + res.gadget.width + 4
            for i, v in enumerate(res.layout_prime.order[:-1]):
                if v < g.n:
                    assert prof.widths[i] <= res.width_in
                else:
                    assert prof.widths[i] <= bound

    def test_vertex_and_edge_accounting(self):
        rng = random.Random(9)
        gadget = gjs_is_gadget()
        h = gadget.graph
        for _ in range(8):
            n = rng.randint(4, 10)
            g = random_graph(n, 0.5, rng)
            res = planarize(g, LinearLayout.identity(n), 0, gadget)
            ell = res.crossings_replaced
            assert res.g_prime.n == g.n + ell * h.n
            assert res.g_prime.m == g.m + ell * (h.m + 2)

    def test_ds_gadget_structure(self):
        g = complete(4)
        gadget = ds_crossover_gadget()
        res = planarize(g, LinearLayout.identity(4), 1, gadget)
        assert res.crossings_replaced == 1
        assert res.t_prime == 1 + 48
        assert is_planar(res.g_prime)

    def test_tampered_result_fails_verification(self):
        # t' is derived from t, the crossings and the shift, so a forged
        # t' is a forged shift; G' still moves the optimum by the real one
        g = complete(4)
        for gadget in (gjs_is_gadget(), ds_crossover_gadget()):
            res = planarize(g, LinearLayout.identity(4), 1, gadget)
            forged = dataclasses.replace(gadget, shift=gadget.shift + 1)
            bad = dataclasses.replace(res, gadget=forged)
            assert bad.t_prime == res.t_prime + 1
            assert verify_planarization(res)
            assert not verify_planarization(bad)

    def test_forged_width_raises_invariant_error(self):
        g = complete(4)
        gadget = gjs_is_gadget()
        res = planarize(g, LinearLayout.identity(4), 1, gadget)
        assert res.cut_profile == cut_profile(res.g_prime, res.layout_prime)
        with pytest.raises(InvariantError, match=r"^gap 0: .* original vertex 0 "):
            _assert_invariants(dataclasses.replace(res, width_in=0))
        # with the gadget width forged down, a gap inside copy X2 fails first
        forged = dataclasses.replace(gadget)
        forged.__dict__["width"] = -4
        with pytest.raises(InvariantError, match=r"gadget copy X2 "):
            _assert_invariants(dataclasses.replace(res, gadget=forged))

    def test_edge_crossed_multiple_times(self):
        # three pairwise interleaving edges: every edge is crossed twice,
        # so the tail of each edge advances through two gadget copies
        g = Graph.from_edges(6, [(0, 3), (1, 4), (2, 5)])
        gadget = gjs_is_gadget()
        res = planarize(g, LinearLayout.identity(6), 0, gadget)
        assert res.crossings_replaced == 3
        assert is_planar(res.g_prime)
        assert verify_planarization(res)
        assert dp_is(res.g_prime, res.layout_prime).optimum == brute_is(g) + 27

    def test_random_hosts_verify_is_shift(self):
        rng = random.Random(21)
        gadget = gjs_is_gadget()
        done = 0
        while done < 6:
            n = rng.randint(3, 7)
            g = random_graph(n, 0.5, rng)
            order = list(range(n))
            rng.shuffle(order)
            layout = LinearLayout(tuple(order))
            res = planarize(g, layout, 2, gadget)
            assert verify_planarization(res)
            done += 1

    def test_ds_double_crossing_shift(self):
        # two crossings replaced: the dominating set optimum moves by 96
        from fractions import Fraction
        from cutplanar.drawing import build_arc_drawing, vertical_cut_edges
        from cutplanar.solvers import brute_ds, dp_ds
        rng = random.Random(5)
        gadget = ds_crossover_gadget()
        eps = Fraction(1, 10 ** 6)
        found = 0
        while found < 2:
            n = rng.randint(4, 8)
            g = random_graph(n, 0.3, rng)
            order = list(range(n))
            rng.shuffle(order)
            layout = LinearLayout(tuple(order))
            d = build_arc_drawing(g, layout)
            if len(d.crossings) != 2:
                continue
            if any(len(vertical_cut_edges(d, c.x + eps)) > 4
                   for c in d.crossings):
                continue
            res = planarize(g, layout, 0, gadget)
            opt = dp_ds(res.g_prime, res.layout_prime).optimum
            assert opt - brute_ds(g) == 96
            found += 1


def eager_labels(g, layout, gadget):
    """The labels of G' as one dict with a string per vertex, made from
    the element order: the labels planarize built before they were made
    on demand."""
    h = gadget.graph
    names = [h.labels.get(w, str(w)) for w in range(h.n)]
    elements = element_order(build_arc_drawing(g, layout))
    cross_at = [k for k, el in enumerate(elements) if el.kind == "crossing"]
    labels = dict(g.labels)
    labels.update(zip(itertools.count(g.n),
                      (f"X{k}:{name}" for k in cross_at for name in names)))
    return labels


class TestLabels:
    @pytest.mark.parametrize("problem", ["is", "ds"])
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_on_demand_labels_equal_eager_dict(self, n, problem):
        g = complete(n)
        # a labelled host keeps its labels below the copies'
        g = Graph.from_edges(n, g.edge_array, {0: "a", n - 1: "z"})
        layout = LinearLayout.identity(n)
        gadget = builtin_gadget(problem)
        res = planarize(g, layout, 0, gadget)
        eager = eager_labels(g, layout, gadget)
        labels = res.g_prime.labels
        assert len(labels) == len(eager) == 2 + res.g_prime.n - n
        assert labels == eager and eager == labels
        assert list(labels.items()) == list(eager.items())
        assert repr(labels) == repr(eager)
        twin = Graph.from_edges(res.g_prime.n, res.g_prime.edge_array, eager)
        assert res.g_prime == twin
        assert cio.graph_to_json(res.g_prime) == cio.graph_to_json(twin)
        keep = {w: i for i, w in enumerate(range(0, res.g_prime.n, 3))}
        assert res.g_prime.relabel(keep) == twin.relabel(keep)
        for w in (-1, 1, n, res.g_prime.n - 1, res.g_prime.n):
            assert labels.get(w) == eager.get(w)
            assert (w in labels) == (w in eager)


class TestVertexLimit:
    def test_k40_ds_refused_before_drawing(self, monkeypatch):
        # 91 390 crossings: G' would have 40 + 91 390 * 216 vertices
        def no_drawing(*args):
            raise AssertionError("the drawing was built")
        monkeypatch.setattr(planarize_module, "build_arc_drawing", no_drawing)
        with pytest.raises(ResourceLimitError) as exc:
            planarize(complete(40), LinearLayout.identity(40), 0,
                      ds_crossover_gadget())
        assert str(exc.value) == (
            "planarized graph would have 19740280 vertices (91390 "
            "crossings), planarize limit is 10000000")

    def test_limit_is_inclusive(self, monkeypatch):
        # K5 with the IS gadget: 5 + 5 * 22 vertices
        monkeypatch.setattr(planarize_module, "PLANARIZE_VERTEX_LIMIT", 115)
        g, layout = complete(5), LinearLayout.identity(5)
        assert planarize(g, layout, 0, gjs_is_gadget()).g_prime.n == 115
        monkeypatch.setattr(planarize_module, "PLANARIZE_VERTEX_LIMIT", 114)
        with pytest.raises(ResourceLimitError, match=r"would have 115 "):
            planarize(g, layout, 0, gjs_is_gadget())


@st.composite
def hosts(draw):
    """A graph on at most 7 vertices, a shuffled layout and a problem."""
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
    layout = LinearLayout(tuple(draw(st.permutations(range(n)))))
    return g, layout, draw(st.sampled_from(["is", "ds"]))


class TestPipelineProperties:
    # derandomized, so every run tries the same examples, and without an
    # example database
    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(hosts(), st.integers(0, 5))
    def test_planarize_properties(self, host, t):
        g, layout, problem = host
        crossings = len(pairwise_crossings(g, layout))
        # a DS gadget copy has over 200 vertices
        assume(problem == "is" or crossings <= 3)
        gadget = builtin_gadget(problem)
        res = planarize(g, layout, t, gadget)
        assert is_planar(res.g_prime)
        assert res.crossings_replaced == crossings
        assert res.t_prime == t + crossings * gadget.shift
        width_in = max(gap_cuts(g, layout), default=0)
        bound = width_in + gadget.width + 4
        widths = cut_profile(res.g_prime, res.layout_prime).widths
        for w, cut in zip(res.layout_prime.order, widths):
            assert cut <= (width_in if w < g.n else bound)


def concurrent_triples(max_pos):
    """Triples of pairwise crossing arcs on positions 1..max_pos that all
    meet in one point.  Two arcs over [a, b] and [c, d] cross at
    x = (ab - cd) / (a + b - c - d)."""
    arcs = [(a, b) for a in range(1, max_pos + 1)
            for b in range(a + 2, max_pos + 1)]
    out = []
    for trio in itertools.combinations(arcs, 3):
        pairs = list(itertools.combinations(trio, 2))
        if not all(a < c < b < d or c < a < d < b
                   for (a, b), (c, d) in pairs):
            continue
        if len({Fraction(a * b - c * d, a + b - c - d)
                for (a, b), (c, d) in pairs}) == 1:
            out.append(trio)
    return out


def triple_hosts():
    """The hosts of the 47 concurrent triple crossings, on positions 1..13."""
    return [Graph.from_edges(max(b for _, b in trio),
                             [(a - 1, b - 1) for a, b in trio])
            for trio in concurrent_triples(13)]


def nx_embedding_is_planar(g, rotation):
    """Independent verdict on a rotation system: networkx's own face
    tracing and Euler check."""
    emb = nx.PlanarEmbedding()
    emb.set_data({v: list(r)[::-1] for v, r in enumerate(rotation)})
    try:
        emb.check_structure()
    except nx.NetworkXException:
        return False
    return True


def mirrored(gadget):
    """A copy of the gadget whose frozen rotation has the opposite
    orientation: its connectors run clockwise u, v, u', v'."""
    return dataclasses.replace(gadget, frozen_rotation=tuple(
        r[:1] + r[:0:-1] for r in gadget.frozen_rotation))


def captured_arrays(monkeypatch, g, gadget, layout=None):
    """planarize's result and the flat rotation system (lens, heads) of
    G' that it hands to the splice proof."""
    seen = []

    def capture(result, lens, heads):
        seen.append((result, lens.copy(), heads.copy()))
        return check_spliced_embedding(result, lens, heads)
    monkeypatch.setattr(planarize_module, "check_spliced_embedding", capture)
    res = planarize(g, layout or LinearLayout.identity(g.n), 0, gadget)
    assert len(seen) == 1 and seen[0][0] is res
    return seen[0]


def captured_embedding(monkeypatch, g, gadget):
    """G' and the rotation system that planarize hands to the splice
    proof, as one neighbour list per vertex."""
    res, lens, heads = captured_arrays(monkeypatch, g, gadget)
    return res.g_prime, rotation_lists(lens, heads)


class TestEmbedding:
    @pytest.mark.parametrize("gadget", [gjs_is_gadget(), ds_crossover_gadget()],
                             ids=["is", "ds"])
    def test_concurrent_triple_crossings(self, gadget):
        # three arcs through one point: the crossing order along each arc
        # comes from the tiebreak, and the embedding must still close up
        triples = concurrent_triples(13)
        assert len(triples) == 47
        assert ((1, 5), (2, 6), (3, 11)) in triples
        for g in triple_hosts():
            assert len({c.x for c in build_arc_drawing(
                g, LinearLayout.identity(g.n)).crossings}) == 1
            res = planarize(g, LinearLayout.identity(g.n), 0, gadget)
            assert res.crossings_replaced == 3
            assert is_planar(res.g_prime)

    @pytest.mark.parametrize("gadget", [gjs_is_gadget(), ds_crossover_gadget()],
                             ids=["is", "ds"])
    def test_mirrored_gadget_rejected(self, gadget):
        # the mirror's only way in is the gadget's own proof
        with pytest.raises(GadgetError, match=r"V - E \+ F = .* C = 1 "):
            planarize(complete(6), LinearLayout.identity(6), 0,
                      mirrored(gadget))

    def test_swapped_host_entries(self, monkeypatch):
        g_prime, rot = captured_embedding(monkeypatch, complete(6),
                                          gjs_is_gadget())
        assert nx_embedding_is_planar(g_prime, rot)
        rejected = 0
        for v in range(6):
            for i, j in itertools.combinations(range(len(rot[v])), 2):
                bad = list(rot)
                bad[v] = list(rot[v])
                bad[v][i], bad[v][j] = bad[v][j], bad[v][i]
                try:
                    check_embedding(g_prime, bad)
                    accepted = True
                except InvariantError:
                    accepted = False
                assert accepted == nx_embedding_is_planar(g_prime, bad)
                rejected += not accepted
        assert rejected == 6 * 10   # every swap breaks genus 0 here

    def test_missing_neighbour_names_vertex(self, monkeypatch):
        g_prime, rot = captured_embedding(monkeypatch, complete(4),
                                          gjs_is_gadget())
        w = 4 + gjs_is_gadget().terminals[0]   # terminal u of copy X2
        bad = list(rot)
        bad[w] = rot[w][1:]
        with pytest.raises(InvariantError,
                           match=r"^rotation at vertex X2:u is not"):
            check_embedding(g_prime, bad)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_agrees_with_face_tracer(self, monkeypatch, n):
        g_prime, rot = captured_embedding(monkeypatch, complete(n),
                                          gjs_is_gadget())
        rng = random.Random(n)
        rotations = [rot]
        for _ in range(20):
            bad = list(rot)
            v = rng.randrange(g_prime.n)
            bad[v] = list(rot[v])
            i = rng.randrange(len(bad[v]))
            if rng.random() < 0.5:
                j = rng.randrange(len(bad[v]))
                bad[v][i], bad[v][j] = bad[v][j], bad[v][i]
            else:
                bad[v][i] = rng.choice([-1, g_prime.n, rng.randrange(g_prime.n)])
            rotations.append(bad)
        for r in rotations:
            try:
                expect = trace_faces(g_prime, r)
            except InvariantError as exc:
                with pytest.raises(InvariantError) as got:
                    check_embedding(g_prime, r)
                assert str(got.value) == str(exc)
            else:
                assert check_embedding(g_prime, r) == expect


def banded_hosts(n, m, band, seeds):
    """Hosts of m edges between layout positions at most ``band`` apart,
    each under a shuffled layout made from its seed."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        pairs = rng.sample([(i, j) for i in range(n)
                            for j in range(i + 1, min(n, i + band + 1))], m)
        order = list(range(n))
        rng.shuffle(order)
        out.append((Graph.from_edges(n, [(order[i], order[j])
                                         for i, j in pairs]),
                    LinearLayout(tuple(order))))
    return out


def splice_hosts(problem):
    """K4-K7, the 47 concurrent triples and four seeded banded hosts, each
    with its layout; the banded hosts under the DS gadget are smaller."""
    hosts = [identity_host(n) for n in range(4, 8)]
    hosts += [(g, LinearLayout.identity(g.n)) for g in triple_hosts()]
    size = (16, 24, 4) if problem == "is" else (10, 14, 3)
    return hosts + banded_hosts(*size, seeds=range(4))


def splice_mutants(res, lens, heads, rng, count):
    """``count`` mutants of the flat rotation system (lens, heads) of G',
    each as (kind, heads) and each unlike ``heads``.  Host and copy
    blocks get two entries swapped or one replaced (by a vertex, -1 or
    n'); a connector slot is replaced or swapped with its successor; a
    copy is mirrored (every rotation in it reversed), or its whole block
    is reversed."""
    first, n, ell = res.host.n, res.g_prime.n, res.crossings_replaced
    flat = res.gadget.rotation
    start = np.cumsum(lens) - lens
    host_darts = int(lens[:first].sum())
    block = len(flat.heads)
    # the vertices a swap (two entries) or a replaced entry can hit
    pools = {f"{side} {what}": np.flatnonzero(lens[vertices] >= least)
             + vertices.start
             for side, vertices in (("host", range(first)),
                                    ("copy", range(first, n)))
             for what, least in (("swap", 2), ("entry", 1))}
    kinds = [kind for kind, pool in pools.items() if len(pool)]
    if ell:
        kinds += ["slot", "mirrored copy", "reversed copy block"]
    out = []
    while len(out) < count:
        kind = kinds[rng.randrange(len(kinds))]
        bad = heads.copy()
        if kind in pools:
            w = int(rng.choice(pools[kind]))
            s, size = int(start[w]), int(lens[w])
            if kind.endswith("swap"):
                i, j = rng.sample(range(s, s + size), 2)
                bad[i], bad[j] = heads[j], heads[i]
            else:
                bad[rng.randrange(s, s + size)] = rng.choice(
                    [-1, n, rng.randrange(n)])
        else:
            k = rng.randrange(ell)
            base = host_darts + k * block
            if kind == "slot":
                i = base + int(rng.choice(flat.slots))
                if rng.random() < 0.5:
                    bad[i] = rng.randrange(n)
                else:
                    bad[i], bad[i + 1] = heads[i + 1], heads[i]
            elif kind == "mirrored copy":
                for w in range(first + k * res.gadget.graph.n,
                               first + (k + 1) * res.gadget.graph.n):
                    s, e = int(start[w]), int(start[w] + lens[w])
                    bad[s:e] = heads[s:e][::-1]
            else:
                bad[base:base + block] = heads[base:base + block][::-1]
        if not np.array_equal(bad, heads):
            out.append((kind, bad))
    return out


def accepts(check, *args):
    try:
        check(*args)
    except InvariantError:
        return False
    return True


class TestSpliceProof:
    """planarize proves G' planar by splicing; the general embedding check
    on G' is the oracle."""

    @pytest.mark.parametrize("problem", ["is", "ds"])
    def test_both_checks_accept_planarize_output(self, monkeypatch, problem):
        for g, layout in splice_hosts(problem):
            res, lens, heads = captured_arrays(
                monkeypatch, g, builtin_gadget(problem), layout)
            check_spliced_embedding(res, lens, heads)
            assert check_embedding_arrays(res.g_prime, lens, heads) > 0

    @pytest.mark.parametrize("problem", ["is", "ds"])
    def test_no_mutant_accepted_that_the_general_check_rejects(
            self, monkeypatch, problem):
        # a copy block unlike the gadget's is rejected even when planar;
        # with the copies as they are, both checks agree
        rng = random.Random(33)
        kinds = collections.Counter()
        general_only = 0
        for g, layout in splice_hosts(problem):
            res, lens, heads = captured_arrays(
                monkeypatch, g, builtin_gadget(problem), layout)
            for kind, bad in splice_mutants(res, lens, heads, rng, 20):
                splice = accepts(check_spliced_embedding, res, lens, bad)
                general = accepts(check_embedding_arrays, res.g_prime, lens,
                                  bad)
                assert general or not splice, kind
                if kind.startswith("host"):
                    assert splice == general, kind
                else:
                    assert not splice, kind
                    general_only += general
                kinds[kind] += 1
        assert sum(kinds.values()) >= 1000
        assert len(kinds) == 7 and min(kinds.values()) >= 20
        # some copy mutants are still planar: a swap at a vertex of
        # degree 2 keeps its cyclic order
        assert general_only > 0

    @pytest.fixture
    def k5(self, monkeypatch):
        # a labelled host: the contracted graph names host vertices by label
        g = Graph.from_edges(5, complete(5).edge_array,
                             {v: "abcde"[v] for v in range(5)})
        return captured_arrays(monkeypatch, g, gjs_is_gadget())

    @pytest.mark.parametrize("tamper", ["extra", "missing", "wired out",
                                        "rewired"])
    def test_tampered_edges_name_the_copy(self, k5, tamper):
        res, lens, heads = k5
        gadget = res.gadget
        inner = [w for w in range(gadget.graph.n) if w not in gadget.terminals]
        pair = next((a, b) for a, b in itertools.combinations(inner, 2)
                    if not gadget.graph.has_edge(a, b))
        edge = tuple(gadget.graph.edge_array[3].tolist())
        change = {"extra": dict(add=[pair]), "missing": dict(drop=[edge]),
                  "wired out": dict(add=[(inner[0], -1)]),
                  "rewired": dict(add=[pair], drop=[edge])}[tamper]
        bad, tag = TestStructureCheck.mutated(res, 2, **change)
        with pytest.raises(InvariantError, match=f"^gadget copy {tag} "):
            check_spliced_embedding(bad, lens, heads)

    def test_two_edges_to_one_vertex_name_the_copy(self, monkeypatch):
        # K4's one copy, with v wired to u's host vertex 0 instead of 1:
        # G' is still planar, but the contracted graph is not simple
        res, lens, heads = captured_arrays(monkeypatch, complete(4),
                                           gjs_is_gadget())
        u, _, v, _ = res.gadget.terminals
        edges = {tuple(e) for e in res.g_prime.edge_array.tolist()}
        assert {(0, 4 + u), (1, 4 + v)} <= edges
        g_prime = Graph.from_edges(
            res.g_prime.n, sorted(edges - {(1, 4 + v)} | {(0, 4 + v)}),
            res.g_prime.labels)
        rot = rotation_lists(lens, heads)
        rot[1].remove(4 + v)
        rot[0].insert(rot[0].index(4 + u), 4 + v)
        rot[4 + v][0] = 0
        lens = np.array([len(r) for r in rot])
        heads = np.concatenate(rot)
        bad = dataclasses.replace(res, g_prime=g_prime)
        assert check_embedding_arrays(g_prime, lens, heads)
        with pytest.raises(InvariantError, match=r"^gadget copy X2 .* two "
                           r"edges to one vertex"):
            check_spliced_embedding(bad, lens, heads)

    def test_bad_copy_block_names_the_vertex(self, k5):
        res, lens, heads = k5
        h, first = res.gadget.graph, res.host.n
        flat = res.gadget.rotation
        w = next(w for w in range(h.n)
                 if w not in res.gadget.terminals and flat.lens[w] >= 2)
        k = 3
        at = (int(lens[:first].sum()) + k * len(flat.heads)
              + int((np.cumsum(flat.lens) - flat.lens)[w]))
        bad = heads.copy()
        bad[at], bad[at + 1] = heads[at + 1], heads[at]
        label = res.g_prime.labels[first + k * h.n + w]
        with pytest.raises(InvariantError, match=(
                f"^rotation at vertex {label} is not its gadget vertex's ")):
            check_spliced_embedding(res, lens, bad)

    def test_bad_slot_names_the_terminal(self, k5):
        res, lens, heads = k5
        h, first = res.gadget.graph, res.host.n
        flat = res.gadget.rotation
        k = 1
        # the slot of v, the second in the order u, v, u', v'
        at = int(lens[:first].sum()) + k * len(flat.heads) + int(flat.slots[1])
        bad = heads.copy()
        bad[at] = first
        label = res.g_prime.labels[first + k * h.n + res.gadget.terminals[2]]
        assert label.endswith(":v")
        with pytest.raises(InvariantError,
                           match=f"^rotation at vertex {label} is not"):
            check_spliced_embedding(res, lens, bad)

    def test_bad_host_entry_names_the_host_vertex(self, k5):
        res, lens, heads = k5
        first, n = res.host.n, res.g_prime.n
        # vertex a (0) lists a terminal; put an unattached one, a vertex
        # out of range, or a host vertex twice in its place
        i = next(i for i in range(int(lens[0])) if heads[i] >= first)
        j = next(j for j in range(int(lens[0])) if heads[j] < first)
        stranger = int(heads[i]) + 1
        for entry, text in [
                (stranger, f"lists {res.g_prime.labels[stranger]}, which is "
                           f"not one of its neighbours$"),
                (n, f"lists {n}, which is not one of its neighbours$"),
                (int(heads[j]), r"is not a permutation of its \d+ "
                                r"neighbours$")]:
            bad = heads.copy()
            bad[i] = entry
            with pytest.raises(InvariantError,
                               match=f"^rotation at vertex a {text}"):
                check_spliced_embedding(res, lens, bad)


# sha256 (first 16 hex digits) of the rotation arrays (lens, heads) that
# planarize hands to the splice proof, of write_graph(G') and of
# write_layout(layout'), each taken over the hosts in order
PINNED = {
    ("K5", "is"): ("66e8d1c63bea6f76", "7554eaa8c9b2bfc6", "0128b5ea20dc223b"),
    ("K6", "is"): ("13d7093a86f944c4", "1eaa741e283ed522", "93bf51525ff2a6d3"),
    ("K7", "is"): ("f155e437242d003b", "e477478bec94ad38", "ac667d477567535e"),
    ("triples", "is"): ("56459201677588b5", "eb60da6626b2f982",
                        "4335138fdebe750d"),
    ("K5", "ds"): ("4130df288c5ac384", "2355a5ed574e8b42", "e8e3f0ffa584cecb"),
    ("K6", "ds"): ("3800fedda7a9ae7d", "f7dc0a13a53be3cf", "b42ad01776b15d14"),
    ("K7", "ds"): ("af3c3fa95f4cae99", "c940e9bfab75ecc1", "7a4a0bb4a072ba35"),
    ("triples", "ds"): ("e5aaf241436cfe94", "2576e30f3a193f2f",
                        "0cd56456178ac602"),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("hosts,problem", sorted(PINNED),
                             ids=[f"{h}-{p}" for h, p in sorted(PINNED)])
    def test_rotation_graph_and_layout_bytes(self, monkeypatch, hosts,
                                             problem):
        # G', its layout and its rotation system are part of the output
        # contract: a refactor of planarize must keep them byte-identical
        graphs = (triple_hosts() if hosts == "triples"
                  else [complete(int(hosts[1:]))])
        rotation, graph, layout = (hashlib.sha256() for _ in range(3))

        def capture(result, lens, heads):
            rotation.update(np.asarray(lens, dtype=np.int64).tobytes())
            rotation.update(np.asarray(heads, dtype=np.int64).tobytes())
            return check_spliced_embedding(result, lens, heads)
        monkeypatch.setattr(planarize_module, "check_spliced_embedding",
                            capture)
        gadget = builtin_gadget(problem)
        for g in graphs:
            res = planarize(g, LinearLayout.identity(g.n), 0, gadget)
            graph.update(cio.write_graph(res.g_prime).encode())
            layout.update(cio.write_layout(res.layout_prime).encode())
        got = tuple(d.hexdigest()[:16] for d in (rotation, graph, layout))
        assert got == PINNED[hosts, problem]


def identity_host(n):
    return complete(n), LinearLayout.identity(n)


def both_optima(g, layout, problem, gadget=None):
    """opt(G') of ``problem`` by the block route and by the layout DP on
    G', for G' built with ``gadget`` (the built-in one by default)."""
    res = planarize(g, layout, 0, gadget or builtin_gadget(problem))
    return (planarized_optimum(res),
            SOLVERS[problem][1](res.g_prime, res.layout_prime).optimum)


def sc_pool():
    """The generator seeds of the verify-ds workload's single-crossing
    hosts."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    return json.loads(path.read_text())["pools"]["sc"]


class TestBlockRoute:
    """planarized_optimum sweeps the contracted graph with one block step
    per gadget copy; its optimum must be the layout DP's on G'."""

    @pytest.mark.parametrize("problem, make", [
        ("ds", lambda: identity_host(4)),
        ("ds", lambda: identity_host(5)),
        *[("is", lambda n=n: identity_host(n)) for n in range(5, 11)],
        ("is", lambda: band24_host(1)),
        ("is", lambda: band24_host(2)),
        ("is", lambda: band24_host(16)),
    ], ids=["K4-ds", "K5-ds", *[f"K{n}-is" for n in range(5, 11)],
            "band24-1-is", "band24-2-is", "band24-16-is"])
    def test_equals_layout_dp(self, problem, make):
        block, layered = both_optima(*make(), problem)
        assert block == layered

    def test_k6_ds(self):
        # the layout DP takes about 12 s on this G' of 3 321 vertices and
        # gives 721 = 1 + 15 * 48
        res = planarize(complete(6), LinearLayout.identity(6), 1,
                        ds_crossover_gadget())
        assert planarized_optimum(res) == 721

    def test_sc_pool(self):
        pool = sc_pool()
        assert len(pool) == 16
        for seed in pool:
            block, layered = both_optima(*single_crossing_host(seed), "ds")
            assert block == layered, seed

    @pytest.mark.parametrize("gadget", [gjs_is_gadget(), ds_crossover_gadget()],
                             ids=["is", "ds"])
    def test_concurrent_triple_crossings(self, gadget):
        for g in triple_hosts():
            block, layered = both_optima(g, LinearLayout.identity(g.n),
                                         gadget.problem, gadget)
            assert block == layered, sorted(g.edges)

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(hosts())
    def test_random_hosts(self, host):
        g, layout, problem = host
        # a DS gadget copy has over 200 vertices
        assume(problem == "is" or len(pairwise_crossings(g, layout)) <= 3)
        block, layered = both_optima(g, layout, problem)
        assert block == layered

    def test_custom_gadget_and_other_problem(self):
        # a gadget read from a file carries no rotation; this one also
        # lays the IS gadget out in reverse.  Solving G' under either
        # problem, whichever the gadget was made for, by block steps over
        # that problem's transfer table gives the layout DP's answer;
        # verify solves it under the gadget's own problem
        base = gjs_is_gadget()
        custom = CrossoverGadget("is", base.graph, base.terminals,
                                 LinearLayout(base.layout.order_array[::-1]),
                                 base.shift)
        g = complete(5)
        for gadget in (custom, ds_crossover_gadget()):
            res = planarize(g, LinearLayout.identity(5), 1, gadget)
            c, layout, first = planarize_module._contract(res)
            for problem in ("is", "ds"):
                brute, dp = SOLVERS[problem]
                after = dp(res.g_prime, res.layout_prime).optimum
                table = solvers.transfer_table(
                    gadget.graph, gadget.terminals, gadget.layout, problem)
                assert solvers.block_dp(c, layout, first, table,
                                        problem).optimum == after
                if problem == gadget.problem:
                    assert planarized_optimum(res) == after
                    assert verify_planarization(res) == (
                        after == brute(g) + res.t_prime - 1)
        assert verify_planarization(
            planarize(g, LinearLayout.identity(5), 1, custom))


class TestStructureCheck:
    """Before the block route solves G', every gadget copy must be an
    exact copy of the gadget that meets the rest of G' at its four
    terminals, one edge each; else InvariantError names the copy."""

    @staticmethod
    def mutated(res, k, add=(), drop=()):
        """res with edges added to and gadget edges dropped from copy k;
        the ids are the gadget's, except a negative one, which names the
        host vertex -1 - id.  Returns the result and the copy's tag."""
        h = res.gadget.graph
        first = res.g_prime.n - res.crossings_replaced * h.n
        base = first + k * h.n

        def gid(w):
            return -1 - w if w < 0 else base + w
        edges = res.g_prime.edge_array
        gone = {(base + a, base + b) for a, b in drop}
        keep = [tuple(e) not in gone for e in edges.tolist()]
        assert len(keep) - sum(keep) == len(drop)
        new = [(gid(a), gid(b)) for a, b in add]
        g_prime = Graph.from_edges(res.g_prime.n, np.concatenate(
            (edges[keep], np.array(new, dtype=np.int64).reshape(-1, 2))),
            res.g_prime.labels)
        tag = res.g_prime.labels[base].split(":")[0]
        return dataclasses.replace(res, g_prime=g_prime), tag

    @pytest.fixture
    def k5(self):
        return planarize(complete(5), LinearLayout.identity(5), 1,
                         gjs_is_gadget())

    def interior_pair(self, gadget):
        """Two non-adjacent vertices of the gadget that are no terminals."""
        h = gadget.graph
        inner = [w for w in range(h.n) if w not in gadget.terminals]
        return next((a, b) for a, b in itertools.combinations(inner, 2)
                    if not h.has_edge(a, b))

    def test_unchanged_copies_pass(self, k5):
        assert verify_planarization(k5)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_extra_edge_inside_a_copy(self, k5, k):
        bad, tag = self.mutated(k5, k, add=[self.interior_pair(k5.gadget)])
        with pytest.raises(InvariantError, match=f"gadget copy {tag} "):
            planarized_optimum(bad)

    @pytest.mark.parametrize("k", [0, 3])
    def test_interior_vertex_wired_outside(self, k5, k):
        w = next(w for w in range(k5.gadget.graph.n)
                 if w not in k5.gadget.terminals)
        bad, tag = self.mutated(k5, k, add=[(w, -1)])
        with pytest.raises(InvariantError, match=f"gadget copy {tag} "):
            verify_planarization(bad)

    @pytest.mark.parametrize("k", [1, 4])
    def test_missing_gadget_edge(self, k5, k):
        edge = tuple(k5.gadget.graph.edge_array[k].tolist())
        bad, tag = self.mutated(k5, k, drop=[edge])
        with pytest.raises(InvariantError, match=f"gadget copy {tag} "):
            planarized_optimum(bad)

    def test_rewired_edge_inside_a_copy(self, k5):
        # as many induced edges as the gadget has, but not the same ones
        edge = tuple(k5.gadget.graph.edge_array[0].tolist())
        bad, tag = self.mutated(k5, 1, add=[self.interior_pair(k5.gadget)],
                                drop=[edge])
        with pytest.raises(InvariantError, match=f"gadget copy {tag} "):
            planarized_optimum(bad)

    def test_extra_vertex(self, k5):
        # G' and its layout with one isolated vertex appended: read from
        # the end of G', every copy would start one id late
        n = k5.g_prime.n
        bad = dataclasses.replace(
            k5, g_prime=Graph.from_edges(n + 1, k5.g_prime.edge_array,
                                         k5.g_prime.labels),
            layout_prime=LinearLayout(
                np.append(k5.layout_prime.order_array, n)))
        with pytest.raises(InvariantError, match=(
                f"^G' has {n + 1} vertices, not the {n} of 5 host "
                f"vertices and 5 gadget copies$")):
            verify_planarization(bad)

    def test_copy_before_its_entering_vertex(self, k5):
        # reversed, every copy comes before the vertex before its u
        bad = dataclasses.replace(k5, layout_prime=LinearLayout(
            k5.layout_prime.order_array[::-1]))
        with pytest.raises(InvariantError, match="gadget copy X"):
            planarized_optimum(bad)


def table_rows(table, bits):
    """The transfer table as {input pair: {(a', b', u', v'): cost}}."""
    out = {}
    for p in range(len(table.starts) - 1):
        lo, hi = table.starts[p], table.starts[p + 1]
        rows = dict(zip(map(tuple, table.digits[lo:hi].tolist()),
                        table.costs[lo:hi].tolist()))
        assert len(rows) == hi - lo
        out[p >> bits, p & (1 << bits) - 1] = rows
    return out


class TestTransferTable:
    GADGETS = [gjs_is_gadget(), ds_crossover_gadget()]
    CASES = [(g, p) for g in GADGETS for p in ("is", "ds")]
    IDS = [f"{g.problem}-gadget-{p}" for g, p in CASES]

    @staticmethod
    def table(gadget, problem):
        """The gadget's transfer table under ``problem``, which need not
        be the gadget's own."""
        return solvers.transfer_table(gadget.graph, gadget.terminals,
                                      gadget.layout, problem)

    @pytest.mark.parametrize("gadget, problem", CASES, ids=IDS)
    def test_no_row_has_a_dominating_twin(self, gadget, problem):
        bits, highest = (1, 1) if problem == "is" else (2, 2)
        tables = table_rows(self.table(gadget, problem), bits)
        assert {p for p, rows in tables.items() if rows} == set(
            itertools.product(range(highest + 1), repeat=2))
        for rows in tables.values():
            for row, cost in rows.items():
                for i, d in enumerate(row):
                    for k in range(d):
                        twin = row[:i] + (k,) + row[i + 1:]
                        assert rows.get(twin, cost + 1) > cost, (row, twin)

    @pytest.mark.parametrize("gadget, problem", CASES, ids=IDS)
    def test_equals_one_run_per_input_pair(self, gadget, problem):
        # the table runs the digits 0 and highest at each pinned vertex and
        # derives the digits in between; running every pair gives the same
        rule = solvers._rule(problem)
        h, (u, up, v, vp) = gadget.graph, gadget.terminals
        a, b, z = h.n, h.n + 1, h.n + 2
        g = Graph.from_edges(h.n + 3, list(h.edges) + [
            (a, u), (b, v), (z, a), (z, b), (z, up), (z, vp)])
        order = [a, b, *gadget.layout.order, z]
        steps = bag_steps(g, LinearLayout(order))[0][2:-1]
        expect = {}
        for i, j in itertools.product(range(rule.highest + 1), repeat=2):
            keys, costs, slots, _ = solvers._sweep(
                steps, np.array([i | j << rule.bits]), np.zeros(1, np.int64),
                [a, b], rule)
            rows = {}
            for key, cost in zip(keys.tolist(), costs.tolist()):
                digits = tuple(key >> rule.bits * slots.index(w)
                               & (1 << rule.bits) - 1 for w in (a, b, up, vp))
                rows[digits] = min(cost, rows.get(digits, cost))
            expect[i, j] = rows
        got = table_rows(self.table(gadget, problem), rule.bits)
        assert {p: rows for p, rows in got.items() if p in expect} == expect

    def test_built_once_per_gadget(self, monkeypatch):
        built = []
        table = solvers.transfer_table

        def counted(h, terminals, layout, problem):
            built.append(problem)
            return table(h, terminals, layout, problem)
        monkeypatch.setattr(solvers, "transfer_table", counted)
        # an uncached build of a gadget builds no table; verify builds it
        # on first use, under the gadget's problem, and then reuses it
        g = complete(4)
        for make in (gadgets.gjs_is_gadget, gadgets.ds_crossover_gadget):
            gadget = make.__wrapped__()
            res = planarize(g, LinearLayout.identity(4), 1, gadget)
            before = list(built)
            assert verify_planarization(res)
            assert verify_planarization(res)
            assert built == before + [gadget.problem]
        assert built == ["is", "ds"]
        # a host without crossings needs no table
        fresh = gadgets.gjs_is_gadget.__wrapped__()
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert verify_planarization(
            planarize(path, LinearLayout.identity(3), 0, fresh))
        assert built == ["is", "ds"]
