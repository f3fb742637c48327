"""Acceptance suite: one test per criterion, each printing a PASS line.

Every optimum-shift claim is checked exactly (no tolerances), with brute
force on the input side and the layout DP on the transformed side.
Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time

import pytest

from cutplanar.drawing import build_arc_drawing, element_order
from cutplanar.gadgets import (boundary_function, certify_is_gadget,
                               ds_crossover_gadget, gjs_is_gadget,
                               insert_double_path, is_gadget_conditions,
                               min_vc_containing, replace_edges_by_gadget,
                               replace_triangle_crossing, vc_crossing_core,
                               verify_vc_crossing_bounds,
                               _COMPOSITE_CROSSINGS, _strand_triangle)
from cutplanar.graph import (Graph, LinearLayout, cut_profile, is_planar,
                             random_graph)
from cutplanar.solvers import (brute_ds, brute_is, brute_vc, dp_ds, dp_is,
                               heuristic_layout)
from cutplanar.planarize import planarize

from oracles import connected_graph_classes

DP_RUNS = []   # (kind, DPReport) collected across criteria for criterion 8


def run_dp_ds(g, layout):
    rep = dp_ds(g, layout)
    DP_RUNS.append(("ds", rep))
    return rep


def run_dp_is(g, layout):
    rep = dp_is(g, layout)
    DP_RUNS.append(("is", rep))
    return rep


def _passed(name, t0, extra=""):
    print(f"[{name}] PASS ({time.time() - t0:.1f}s){' ' + extra if extra else ''}")


# ---------------------------------------------------------------------------
# criterion 1: double-path shift +6
# ---------------------------------------------------------------------------

def test_criterion_1_double_path_shift():
    t0 = time.time()
    checked = 0
    # exhaustive over non-isomorphic connected hosts with <= 5 vertices,
    # replacing every edge
    for g in connected_graph_classes(5):
        for e in g.sorted_edges():
            gp = insert_double_path(g, e)
            before = brute_ds(g)
            after = run_dp_ds(gp, heuristic_layout(gp)).optimum
            assert after - before == 6, (sorted(g.edges), e)
            checked += 1
    # plus 50 random hosts with <= 10 vertices
    rng = random.Random(0)
    done = 0
    while done < 50:
        n = rng.randint(2, 10)
        g = random_graph(n, 0.35, rng)
        if g.m == 0:
            continue
        e = g.sorted_edges()[rng.randrange(g.m)]
        gp = insert_double_path(g, e)
        before = brute_ds(g)
        after = run_dp_ds(gp, heuristic_layout(gp)).optimum
        assert after - before == 6, (sorted(g.edges), e)
        done += 1
        checked += 1
    assert time.time() - t0 < 120
    _passed("criterion 1: +6 on every host", t0, f"({checked} hosts)")


# ---------------------------------------------------------------------------
# criterion 2: triangle-crossing shift +9
# ---------------------------------------------------------------------------

def _host_with_crossing_triangles(rng):
    """Random base graph plus two disjoint triangles with fresh degree-two
    apexes; the triangle bases are wired into the base graph."""
    n = rng.randint(2, 5)
    g0 = random_graph(n, 0.4, rng)
    edges = list(g0.edges)
    a, b, z = n, n + 1, n + 2
    c, d, r = n + 3, n + 4, n + 5
    edges += [(a, b), (a, z), (b, z), (c, d), (c, r), (d, r)]
    edges.append((rng.randrange(n), a))
    edges.append((rng.randrange(n), c))
    if rng.random() < 0.3:
        edges.append((b, d))  # cross edge between the triangle bases
    return Graph.from_edges(n + 6, edges), (a, b, z), (c, d, r)


def test_criterion_2_triangle_crossing_shift():
    t0 = time.time()
    rng = random.Random(0)
    for _ in range(25):
        g, t1, t2 = _host_with_crossing_triangles(rng)
        gp = replace_triangle_crossing(g, t1, t2)
        before = brute_ds(g)
        after = run_dp_ds(gp, heuristic_layout(gp)).optimum
        assert after - before == 9, sorted(g.edges)
    assert time.time() - t0 < 300
    _passed("criterion 2: +9 on 25 triangle-crossing hosts", t0)


# ---------------------------------------------------------------------------
# criterion 3: composite gadget shift +48 and compositional identity
# ---------------------------------------------------------------------------

def _single_crossing_instance(rng):
    """Random (host, layout) whose arc drawing has exactly one crossing,
    between two disjoint edges, with at most two other host edges over
    the crossing point (keeps the DP's live-state count small)."""
    from cutplanar.drawing import vertical_cut_edges
    while True:
        n = rng.randint(4, 8)
        g = random_graph(n, 0.3, rng)
        if g.m < 2:
            continue
        order = list(range(n))
        rng.shuffle(order)
        layout = LinearLayout(tuple(order))
        d = build_arc_drawing(g, layout)
        if len(d.crossings) != 1:
            continue
        (e1, e2) = d.crossings[0].edges
        if set(e1) & set(e2):
            continue
        if len(vertical_cut_edges(d, d.crossings[0].x)) > 4:
            continue
        return g, layout


def test_criterion_3_composite_shift():
    t0 = time.time()
    gadget = ds_crossover_gadget()
    # each crossing block (core plus a watcher per edge) forces cutwidth
    # >= 12 on its own, and the best layout found for the composite has
    # width 18 (frozen in the source); the DP memory budget is enforced
    # through criterion 8's state-count ceiling.
    assert gadget.width <= 18
    rng = random.Random(0)
    for trial in range(10):
        g, layout = _single_crossing_instance(rng)
        res = planarize(g, layout, 0, gadget)
        assert res.crossings_replaced == 1
        before = brute_ds(g)
        after = run_dp_ds(res.g_prime, res.layout_prime).optimum
        assert after - before == 48 * res.crossings_replaced, sorted(g.edges)
    # compositional identity 48 = 2*6 + 4*9: staged pipeline vs the
    # packaged gadget on one shared host
    host = Graph.from_edges(4, [(0, 1), (2, 3)],
                            {i: f"h{i}" for i in range(4)})
    staged = insert_double_path(host, (0, 1), tag="dpu")
    staged = insert_double_path(staged, (2, 3), tag="dpv")
    for c1, c2 in _COMPOSITE_CROSSINGS:
        tri1 = _strand_triangle(staged, *c1)
        tri2 = _strand_triangle(staged, *c2)
        staged = replace_triangle_crossing(staged, tri1, tri2,
                                           tag=f"vcx_{c1[0]}{c1[1]}_{c2[0]}{c2[1]}")
    oneshot = replace_edges_by_gadget(host, (0, 1), (2, 3), gadget)
    assert staged.n == oneshot.n
    assert staged.m == oneshot.m
    frozen = [gadget.graph.labels.get(v, str(v)) for v in gadget.layout.order]
    staged_opt = run_dp_ds(staged, _label_layout(staged, frozen, "")).optimum
    oneshot_opt = run_dp_ds(
        oneshot, _label_layout(oneshot, frozen, "gadget:")).optimum
    assert staged_opt == oneshot_opt == brute_ds(host) + 48
    assert staged_opt == brute_ds(host) + 2 * 6 + 4 * 9
    assert time.time() - t0 < 900
    _passed("criterion 3: +48 composite, 48 = 2*6 + 4*9", t0)


def _label_layout(gp, frozen_labels, prefix):
    """Host vertices around the gadget block, whose internal order follows
    the frozen gadget layout, located through vertex labels."""
    by_label = {s: v for v, s in gp.labels.items()}
    inner = [by_label[prefix + s] for s in frozen_labels]
    hosts = [v for v in range(gp.n) if v not in set(inner)]
    return LinearLayout(tuple(hosts[:2] + inner + hosts[2:]))


# ---------------------------------------------------------------------------
# criterion 4: interior cover bound of the crossing core
# ---------------------------------------------------------------------------

def test_criterion_4_crossing_core_bounds():
    t0 = time.time()
    core, term = vc_crossing_core()
    assert core.n == 18
    assert verify_vc_crossing_bounds(core, term)
    # ell = 2: every cover avoiding all four terminals has >= 11
    # non-terminals (computed via the complement independent set)
    tset = set(term.values())
    blocked = set(tset)
    for t in tset:
        blocked |= core.neighbors(t)
    min_cover_avoiding_all = core.n - (4 + brute_is(core, avoid=blocked))
    assert min_cover_avoiding_all >= 11
    # eleven-vertex covers with one terminal per axis exist (these are
    # what the +9 replacement argument uses); covers containing both
    # vertices of one axis need 12
    for a, b in (("p", "x"), ("p", "y"), ("q", "x"), ("q", "y")):
        assert min_vc_containing(core, {term[a], term[b]}) == 11
    both_pq = min_vc_containing(core, {term["p"], term["q"]})
    assert time.time() - t0 < 60
    _passed("criterion 4: interior bound 9+ell, tight 11-covers", t0,
            f"(min cover containing p and q = {both_pq}, see ledger)")


# ---------------------------------------------------------------------------
# criterion 5: IS gadget certification and exhaustive host check
# ---------------------------------------------------------------------------

def _is_shift_via_boundary(g, e1, e2, hvals, terminals):
    """Exact optimum of the replaced graph from the boundary function:
    only the four connector edges join host to gadget, so every optimal
    independent set splits into a host part S (independent once the two
    replaced edges are dropped) and a gadget part avoiding exactly the
    terminals blocked by S."""
    u, up, v, vp = terminals
    a, b = e1
    c, d = e2
    adj = g.adjacency_masks()
    drop = {tuple(sorted(e1)), tuple(sorted(e2))}
    adj2 = list(adj)
    for s, t in drop:
        adj2[s] &= ~(1 << t)
        adj2[t] &= ~(1 << s)
    best = -1
    for mask in range(1 << g.n):
        ok = True
        mm = mask
        while mm:
            lb = mm & (-mm)
            w = lb.bit_length() - 1
            if adj2[w] & mask:
                ok = False
                break
            mm ^= lb
        if not ok:
            continue
        blocked = []
        if (mask >> a) & 1:
            blocked.append(u)
        if (mask >> b) & 1:
            blocked.append(up)
        if (mask >> c) & 1:
            blocked.append(v)
        if (mask >> d) & 1:
            blocked.append(vp)
        best = max(best, mask.bit_count() + hvals[frozenset(blocked)])
    return best


def test_criterion_5_is_gadget_certification():
    t0 = time.time()
    gadget = gjs_is_gadget()
    assert gadget.shift == 9
    conds = is_gadget_conditions(gadget)
    assert all(conds.values()), conds
    assert certify_is_gadget(gadget)
    hvals = boundary_function(gadget).values
    # exhaustive host check over all graphs with n <= 6 containing two
    # disjoint edges (lexicographically first such pair per graph)
    rng = random.Random(0)
    checked = 0
    direct_checks = 0
    for n in (4, 5, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
            first = None
            for e1, e2 in itertools.combinations(edges, 2):
                if not set(e1) & set(e2):
                    first = (e1, e2)
                    break
            if first is None:
                continue
            g = Graph.from_edges(n, edges)
            before = brute_is(g)
            after = _is_shift_via_boundary(g, first[0], first[1], hvals,
                                           gadget.terminals)
            assert after - before == 9, (n, edges, first)
            checked += 1
            # cross-check the boundary decomposition against a direct
            # brute-force solve on a random subsample
            if rng.random() < 200 / 34000:
                gp = replace_edges_by_gadget(g, first[0], first[1], gadget)
                assert brute_is(gp, limit=32) == after
                direct_checks += 1
    assert checked > 30000
    # plus 200 random hosts with up to 12 vertices
    done = 0
    while done < 200:
        n = rng.randint(4, 12)
        g = random_graph(n, 0.3, rng)
        pair = None
        for e1, e2 in itertools.combinations(g.sorted_edges(), 2):
            if not set(e1) & set(e2):
                pair = (e1, e2)
                break
        if pair is None:
            continue
        before = brute_is(g)
        after = _is_shift_via_boundary(g, pair[0], pair[1], hvals,
                                       gadget.terminals)
        assert after - before == 9
        done += 1
    assert time.time() - t0 < 600
    _passed("criterion 5: IS gadget certified, exhaustive n<=6 hosts", t0,
            f"({checked} exhaustive + 200 random hosts, "
            f"{direct_checks} direct cross-checks)")


# ---------------------------------------------------------------------------
# criterion 6: planarization invariants for both gadgets
# ---------------------------------------------------------------------------

def test_criterion_6_planarization_invariants():
    t0 = time.time()
    rng = random.Random(0)
    pairs = []
    for _ in range(100):
        n = rng.randint(2, 12)
        g = random_graph(n, 0.25, rng)
        order = list(range(n))
        rng.shuffle(order)
        pairs.append((g, LinearLayout(tuple(order))))
    for gadget in (gjs_is_gadget(), ds_crossover_gadget()):
        for g, layout in pairs:
            res = planarize(g, layout, 7, gadget)
            assert is_planar(res.g_prime)
            assert res.t_prime == 7 + res.crossings_replaced * gadget.shift
            bound = res.width_in + res.gadget.width + 4
            assert res.width_out <= bound
            prof = cut_profile(res.g_prime, res.layout_prime)
            for i, v in enumerate(res.layout_prime.order[:-1]):
                if v < g.n:
                    assert prof.widths[i] <= res.width_in
                else:
                    assert prof.widths[i] <= bound
    assert time.time() - t0 < 600
    _passed("criterion 6: planarity, per-gap bounds, t' arithmetic", t0)


# ---------------------------------------------------------------------------
# criterion 7: solver oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_7_solver_equivalence():
    t0 = time.time()
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 14)
        g = random_graph(n, rng.choice([0.2, 0.35, 0.5]), rng)
        layout = heuristic_layout(g)
        bi, bd, bv = brute_is(g), brute_ds(g), brute_vc(g)
        assert run_dp_is(g, layout).optimum == bi
        assert run_dp_ds(g, layout).optimum == bd
        assert bi + bv == g.n
    assert time.time() - t0 < 300
    _passed("criterion 7: dp == brute on 200 graphs, IS+VC = n", t0)


# ---------------------------------------------------------------------------
# criterion 8: DP state-count contract
# ---------------------------------------------------------------------------

def test_criterion_8_state_count_contract():
    t0 = time.time()
    assert DP_RUNS, "earlier criteria must have recorded DP runs"
    for kind, rep in DP_RUNS:
        base = 2 if kind == "is" else 3
        assert rep.max_live_states <= base ** (rep.width_used + 1), rep
    _passed("criterion 8: live states within c^(w+1) on every run", t0,
            f"({len(DP_RUNS)} runs)")


# ---------------------------------------------------------------------------
# criterion 9: drawing correctness
# ---------------------------------------------------------------------------

def test_criterion_9_drawing():
    t0 = time.time()
    for n in (4, 5, 6, 7):
        g = Graph.from_edges(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n)])
        d = build_arc_drawing(g, LinearLayout.identity(n))
        expect = len(list(itertools.combinations(range(n), 4)))
        assert len(d.crossings) == expect, n
    g = Graph.from_edges(6, [(0, 3), (2, 5), (1, 3), (2, 4), (0, 1)])
    seqs = []
    for _ in range(3):
        d = build_arc_drawing(g, LinearLayout.identity(6))
        seqs.append([(e.kind, e.vertex,
                      e.crossing.edges if e.crossing else None)
                     for e in element_order(d)])
    assert seqs[0] == seqs[1] == seqs[2]
    assert time.time() - t0 < 60
    _passed("criterion 9: K_n crossings = C(n,4), deterministic order", t0)
