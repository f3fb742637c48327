import dataclasses
import itertools
import random

import networkx
import pytest
from hypothesis import given, settings, strategies as st

from cutplanar import gadgets, solvers
from cutplanar.errors import GadgetError, OracleLimitError, PreconditionError
from cutplanar.gadgets import (CONNECTOR, BoundaryFunction, CrossoverGadget,
                               boundary_function, certify_gadget,
                               certify_is_gadget,
                               double_path_interior, ds_crossover_gadget,
                               gjs_is_gadget, insert_double_path,
                               is_gadget_conditions, replace_edges_by_gadget,
                               replace_triangle_crossing,
                               validate_crossover_shape, vc_crossing_core,
                               verify_vc_crossing_bounds)
from cutplanar.graph import Graph, LinearLayout, is_planar, random_graph
from cutplanar.io import gadget_from_json, gadget_to_json
from cutplanar.planarize import planarize, verify_planarization
from cutplanar.solvers import brute_ds, brute_is, dp_ds, heuristic_layout

from oracles import (subsets_ds_covers, verify_domset_is_vc,
                     verify_simplicial_avoidance)


def counting_lr(monkeypatch):
    """The graph sizes of every networkx left-right planarity test run
    from now on."""
    calls = []
    lr = networkx.check_planarity

    def counting(graph, *args, **kwargs):
        calls.append(graph.number_of_nodes())
        return lr(graph, *args, **kwargs)
    monkeypatch.setattr(networkx, "check_planarity", counting)
    return calls


def _replace_entry(frozen, i, entry):
    return frozen[:i] + (tuple(entry),) + frozen[i + 1:]


def _swap_terminal(gadget):
    # a terminal's first two slots: its connector and first neighbour
    i = gadget.layout.order.index(gadget.terminals[0])
    r = gadget.frozen_rotation[i]
    return _replace_entry(gadget.frozen_rotation, i, (r[1], r[0]) + r[2:])


def _reverse_interior(gadget):
    i = next(i for i, r in enumerate(gadget.frozen_rotation)
             if len(r) >= 3 and CONNECTOR not in r)
    return _replace_entry(gadget.frozen_rotation, i,
                          gadget.frozen_rotation[i][::-1])


def _move_connector(gadget):
    # from the slot of terminal u to the end of its neighbour's rotation
    frozen = gadget.frozen_rotation
    i = gadget.layout.order.index(gadget.terminals[0])
    j = frozen[i][1]
    frozen = _replace_entry(frozen, i, frozen[i][1:])
    return _replace_entry(frozen, j, frozen[j] + (CONNECTOR,))


def _mirror(gadget):
    return tuple(r[:1] + r[:0:-1] if r[0] == CONNECTOR else r[::-1]
                 for r in gadget.frozen_rotation)


ROTATION_MUTANTS = {"swap_terminal": _swap_terminal,
                    "reverse_interior": _reverse_interior,
                    "move_connector": _move_connector,
                    "mirror": _mirror,
                    "truncated": lambda gadget: gadget.frozen_rotation[:-1]}


def make_gadget(n, edges, terminals, shift, problem="is"):
    g = Graph.from_edges(n, edges)
    return CrossoverGadget(problem, g, terminals, LinearLayout.identity(n), shift)


class TestReplaceEdgesByGadget:
    def test_formal_unfolding(self):
        # four-vertex "gadget": u-u' and v-v' as two disjoint edges
        gadget = make_gadget(4, [(0, 1), (2, 3)], (0, 1, 2, 3), 0)
        host = Graph.from_edges(4, [(0, 1), (2, 3)])
        out = replace_edges_by_gadget(host, (0, 1), (2, 3), gadget)
        assert out.n == 8
        expect = {(0, 4), (4, 5), (1, 5), (2, 6), (6, 7), (3, 7)}
        assert out.edges == frozenset(expect)

    def test_shared_endpoint_rejected(self):
        gadget = make_gadget(4, [(0, 1), (2, 3)], (0, 1, 2, 3), 0)
        host = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError):
            replace_edges_by_gadget(host, (0, 1), (1, 2), gadget)

    def test_missing_edge_rejected(self):
        gadget = make_gadget(4, [(0, 1), (2, 3)], (0, 1, 2, 3), 0)
        host = Graph.from_edges(4, [(0, 1)])
        with pytest.raises(PreconditionError):
            replace_edges_by_gadget(host, (0, 1), (2, 3), gadget)

    def test_ds_gadget_vertex_count(self):
        host = Graph.from_edges(4, [(0, 1), (2, 3)])
        gadget = ds_crossover_gadget()
        out = replace_edges_by_gadget(host, (0, 1), (2, 3), gadget)
        assert out.n == host.n + gadget.graph.n


def connector_successors(gadget):
    """For each terminal t, the terminal where the face walk that enters
    the gadget through t's connector leaves it again.  Like the embedding
    check, the walk continues from v->w with the successor of v in w's
    rotation, so consecutive exits follow the counter-clockwise order of
    the connectors."""
    rot = gadget.rotation
    out = {}
    for t in gadget.terminals:
        prev, cur = CONNECTOR, t
        while True:
            r = rot[cur]
            nxt = r[(r.index(prev) + 1) % len(r)]
            if nxt == CONNECTOR:
                break
            prev, cur = cur, nxt
        out[t] = cur
    return out


class TestGadgetEmbedding:
    @pytest.mark.parametrize("gadget", [gjs_is_gadget(), ds_crossover_gadget()],
                             ids=["is", "ds"])
    def test_connectors_run_ccw(self, gadget):
        u, up, v, vp = gadget.terminals
        assert connector_successors(gadget) == {u: v, v: up, up: vp, vp: u}
        adj = gadget.graph.adjacency()
        for w, r in enumerate(gadget.rotation):
            slot = [CONNECTOR] if w in gadget.terminals else []
            assert r[:len(slot)] == tuple(slot)
            assert sorted(r[len(slot):]) == sorted(adj[w])

    def test_lr_runs_once_per_gadget(self, monkeypatch):
        calls = counting_lr(monkeypatch)
        # a gadget file carries no rotation: nothing frozen, nothing cached
        gadget = gadget_from_json(gadget_to_json(gjs_is_gadget()))
        assert gadget.frozen_rotation is None
        k5 = Graph.from_edges(5, itertools.combinations(range(5), 2))
        assert validate_crossover_shape(gadget)
        planarize(k5, LinearLayout.identity(5), 0, gadget)
        planarize(k5, LinearLayout.identity(5), 0, gadget)
        assert calls == [gadget.graph.n + 1]

    @pytest.mark.parametrize("build", [gjs_is_gadget, ds_crossover_gadget],
                             ids=["is", "ds"])
    def test_builtin_runs_no_lr(self, monkeypatch, build):
        calls = counting_lr(monkeypatch)
        gadget = build.__wrapped__()   # fresh, past the lru_cache
        k5 = Graph.from_edges(5, itertools.combinations(range(5), 2))
        assert validate_crossover_shape(gadget)
        planarize(k5, LinearLayout.identity(5), 0, gadget)
        planarize(k5, LinearLayout.identity(5), 0, gadget)
        assert calls == []

    @pytest.mark.parametrize("build", [gjs_is_gadget, ds_crossover_gadget],
                             ids=["is", "ds"])
    @pytest.mark.parametrize("mutate", sorted(ROTATION_MUTANTS))
    def test_mutant_frozen_rotation_raises(self, build, mutate):
        gadget = build()
        frozen = ROTATION_MUTANTS[mutate](gadget)
        assert frozen != gadget.frozen_rotation
        bad = dataclasses.replace(gadget, frozen_rotation=frozen)
        with pytest.raises(GadgetError):
            bad.rotation
        assert not validate_crossover_shape(bad)

    def test_bad_shape_raises_gadget_error(self):
        # the crossing itself, edges u-u' and v-v', cannot be drawn with
        # the terminals apart in the cyclic order u, v, u', v'
        gadget = gadget_from_json({
            "problem": "is", "shift": 0, "terminals": [1, 2, 3, 4],
            "graph": {"n": 4, "edges": [[1, 2], [3, 4]]},
            "layout": [1, 2, 3, 4]})
        assert not validate_crossover_shape(gadget)
        k4 = Graph.from_edges(4, itertools.combinations(range(4), 2))
        with pytest.raises(GadgetError, match="no planar drawing"):
            planarize(k4, LinearLayout.identity(4), 0, gadget)


class TestBoundaryFunction:
    def test_four_cycle(self):
        # cycle u-v-u'-v' in terminal cyclic order
        gadget = make_gadget(4, [(0, 2), (2, 1), (1, 3), (3, 0)],
                             (0, 1, 2, 3), 2)
        h = boundary_function(gadget)
        assert h[()] == 2
        assert h[(0, 1)] == 2       # {u,u'}: take {v,v'}
        assert h[(0, 1, 2, 3)] == 0
        assert h.is_antitone()

    def test_edgeless(self):
        gadget = make_gadget(4, [], (0, 1, 2, 3), 4)
        h = boundary_function(gadget)
        for k in range(5):
            for F in itertools.combinations(range(4), k):
                assert h[F] == 4 - k
        assert h.is_antitone()

    def test_edgeless_certification_fails(self):
        gadget = make_gadget(4, [], (0, 1, 2, 3), 4)
        # C1 fails: h({u,v}) = 2 != 4
        assert not certify_is_gadget(gadget)

    def test_gadget_over_brute_limit(self):
        # two disjoint copies of the IS gadget (44 vertices), terminals on
        # the first copy: each value is the first copy's plus the second's
        small = gjs_is_gadget()
        n = small.graph.n
        g = Graph.from_edges(2 * n, list(small.graph.edges)
                             + [(a + n, b + n) for a, b in small.graph.edges])
        order = small.layout.order + tuple(v + n for v in small.layout.order)
        big = CrossoverGadget("is", g, small.terminals, LinearLayout(order), 18)
        h = boundary_function(big)
        rest = brute_is(small.graph)
        for k in range(5):
            for F in itertools.combinations(small.terminals, k):
                assert h[F] == brute_is(small.graph, avoid=F) + rest
        with pytest.raises(OracleLimitError):
            brute_is(g, avoid=small.terminals)

    @staticmethod
    def assert_matches_brute(gadget):
        h = boundary_function(gadget)
        for k in range(5):
            for F in itertools.combinations(gadget.terminals, k):
                assert h[F] == brute_is(gadget.graph, avoid=F), F

    def test_edge_deletion_mutants_match_brute(self):
        # every single-edge-deletion mutant of the IS gadget, read off its
        # own transfer table
        small = gjs_is_gadget()
        for edge in small.graph.sorted_edges():
            rest = [e for e in small.graph.sorted_edges() if e != edge]
            self.assert_matches_brute(dataclasses.replace(
                small, graph=Graph.from_edges(small.graph.n, rest)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_gadgets_match_brute(self, data):
        n = data.draw(st.integers(4, 10))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
        terminals = tuple(data.draw(st.permutations(range(n)))[:4])
        order = tuple(data.draw(st.permutations(range(n))))
        self.assert_matches_brute(CrossoverGadget(
            "is", Graph.from_edges(n, edges), terminals, LinearLayout(order),
            1))

    def test_reads_the_table_that_verify_reads(self, monkeypatch):
        # no layout DP of its own: the IS transfer table is built once and
        # serves the conditions, the boundary function and --verify
        def no_dp(*args):
            raise AssertionError("boundary function ran the layout DP")
        monkeypatch.setattr(solvers, "dp_is", no_dp)
        built = []
        table = solvers.transfer_table

        def counted(h, terminals, layout, problem):
            built.append(problem)
            return table(h, terminals, layout, problem)
        monkeypatch.setattr(solvers, "transfer_table", counted)
        gadget = gadgets.gjs_is_gadget.__wrapped__()   # no cached table
        report = certify_gadget(gadget, 2, 0)
        assert report["verdict"] == "PASS"
        assert all(report["conditions"].values())
        assert boundary_function(gadget)[()] == 9
        host = Graph.from_edges(5, itertools.combinations(range(5), 2))
        res = planarize(host, LinearLayout.identity(5), 1, gadget)
        assert verify_planarization(res)
        assert built == ["is"]


class TestIsGadget:
    def test_certified(self):
        gadget = gjs_is_gadget()
        assert gadget.shift == 9
        conds = is_gadget_conditions(gadget)
        assert all(conds.values()), conds

    def test_boundary_base_value(self):
        h = boundary_function(gjs_is_gadget())
        assert h[()] == 9

    def test_boundary_matches_brute(self):
        gadget = gjs_is_gadget()
        h = boundary_function(gadget)
        for k in range(5):
            for F in itertools.combinations(gadget.terminals, k):
                assert h[F] == brute_is(gadget.graph, avoid=F)

    def test_planar_with_cyclic_terminal_order(self):
        assert validate_crossover_shape(gjs_is_gadget())

    def test_layout_width_recorded(self):
        gadget = gjs_is_gadget()
        assert gadget.width >= 1
        # oracle limit is 18 < 22 vertices, so no exact comparison here;
        # sanity: width can never be below max degree / 2 rounded down
        maxdeg = max(gadget.graph.degree(v) for v in range(gadget.graph.n))
        assert gadget.width >= (maxdeg + 1) // 2

    def test_random_host_shifts(self):
        gadget = gjs_is_gadget()
        rng = random.Random(0)
        done = 0
        while done < 12:
            n = rng.randint(4, 8)
            g = random_graph(n, 0.4, rng)
            pairs = [(e1, e2) for e1 in g.sorted_edges()
                     for e2 in g.sorted_edges()
                     if e1 < e2 and not set(e1) & set(e2)]
            if not pairs:
                continue
            e1, e2 = pairs[rng.randrange(len(pairs))]
            gp = replace_edges_by_gadget(g, e1, e2, gadget)
            assert brute_is(gp, limit=32) == brute_is(g) + 9
            done += 1


class TestVcCrossingCore:
    def test_vertex_count(self):
        core, term = vc_crossing_core()
        assert core.n == 18
        assert sorted(term) == ["p", "q", "x", "y"]

    def test_non_terminals_partition_into_triangles_and_edge(self):
        core, term = vc_crossing_core()
        interior = [v for v in range(core.n) if v not in term.values()]
        assert len(interior) == 14
        # exhaustive: find 4 disjoint triangles + 1 disjoint edge
        tris = [t for t in itertools.combinations(interior, 3)
                if all(core.has_edge(a, b) for a, b in itertools.combinations(t, 2))]

        def pick(k, used):
            if k == 4:
                rest = [v for v in interior if v not in used]
                return len(rest) == 2 and core.has_edge(*rest)
            for t in tris:
                if not used & set(t) and pick(k + 1, used | set(t)):
                    return True
            return False

        assert pick(0, set())

    def test_interior_cover_bounds(self):
        core, term = vc_crossing_core()
        assert verify_vc_crossing_bounds(core, term)

    def test_min_cover_with_one_terminal_per_pair_has_nine_interior(self):
        from cutplanar.gadgets import min_vc_containing
        core, term = vc_crossing_core()
        for a, b in (("p", "x"), ("p", "y"), ("q", "x"), ("q", "y")):
            size = min_vc_containing(core, {term[a], term[b]})
            assert size == 11  # 2 terminals + 9 interior

    def test_covers_avoiding_all_terminals_need_eleven(self):
        core, term = vc_crossing_core()
        # min |S| over covers S with no terminal = n - max IS containing
        # all four terminals; terminals are pairwise nonadjacent
        tset = set(term.values())
        blocked = set(tset)
        for t in tset:
            blocked |= core.neighbors(t)
        inner_best = brute_is(core, avoid=blocked)
        min_cover = core.n - (4 + inner_best)
        assert min_cover == 11

    def test_mutation_smoke(self):
        # deleting one interior edge may or may not break the bounds; the
        # checker must still run and return a boolean
        core, term = vc_crossing_core()
        interior_edges = [e for e in core.sorted_edges()
                          if e[0] not in term.values() and e[1] not in term.values()]
        e = interior_edges[0]
        g2 = Graph.from_edges(core.n, [x for x in core.edges if x != e],
                              dict(core.labels))
        assert verify_vc_crossing_bounds(g2, term) in (True, False)


class TestDoublePath:
    def test_interior_has_22_vertices(self):
        names, edges = double_path_interior()
        assert len(names) == 22

    def test_k2_shift(self):
        g = Graph.from_edges(2, [(0, 1)])
        gp = insert_double_path(g, (0, 1))
        assert gp.n == 24
        assert brute_ds(gp, limit=24) == 7  # K2 needs 1, plus 6

    def test_missing_edge(self):
        with pytest.raises(PreconditionError):
            insert_double_path(Graph.from_edges(2, []), (0, 1))

    def test_disjoint_closed_neighborhoods(self):
        # closed neighborhoods of b_x, b_y, t_x, t_y, t''_x, t''_y lie in
        # the interior and are pairwise disjoint
        g = Graph.from_edges(2, [(0, 1)])
        gp = insert_double_path(g, (0, 1), tag="d")
        lbl = {s: v for v, s in gp.labels.items()}
        adj = gp.adjacency()
        six = ["d:b_x", "d:b_y", "d:t_x", "d:t_y", "d:tpp_x", "d:tpp_y"]
        hoods = []
        interior = set(lbl.values())
        for s in six:
            v = lbl[s]
            hood = adj[v] | {v}
            assert hood <= interior
            hoods.append(hood)
        for h1, h2 in itertools.combinations(hoods, 2):
            assert not h1 & h2

    def test_domination_patterns(self):
        # six vertices dominate the interior; a second six dominates y and
        # everything except a_x
        g = Graph.from_edges(2, [(0, 1)])
        gp = insert_double_path(g, (0, 1), tag="d")
        lbl = {s: v for v, s in gp.labels.items()}
        adj = gp.adjacency()
        interior = set(lbl.values())

        def dominated(seed):
            out = set()
            for s in seed:
                v = lbl[s]
                out |= adj[v] | {v}
            return out

        pat1 = dominated(["d:b_x", "d:b_y", "d:e_x", "d:e_y", "d:g_x", "d:g_y"])
        assert interior <= pat1
        pat2 = dominated(["d:c_x", "d:f_x", "d:h_x", "d:e_y", "d:g_y", "d:a_y"])
        missing = interior - pat2
        assert missing == {lbl["d:a_x"]}
        assert 1 in pat2  # y is dominated via a_y

    def test_random_host_shifts(self):
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(2, 8)
            g = random_graph(n, 0.4, rng)
            if g.m == 0:
                continue
            e = g.sorted_edges()[rng.randrange(g.m)]
            gp = insert_double_path(g, e)
            before = brute_ds(g)
            after = dp_ds(gp, heuristic_layout(gp)).optimum
            assert after - before == 6


class TestTriangleCrossing:
    def host_two_triangles(self):
        return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2),
                                    (3, 4), (3, 5), (4, 5)])

    def test_minimal_host_shift(self):
        g = self.host_two_triangles()
        gp = replace_triangle_crossing(g, (0, 1, 2), (3, 4, 5))
        before = brute_ds(g)
        after = dp_ds(gp, heuristic_layout(gp)).optimum
        assert (before, after) == (2, 11)

    def test_watcher_count_equals_copy_edges(self):
        core, _ = vc_crossing_core()
        g = self.host_two_triangles()
        gp = replace_triangle_crossing(g, (0, 1, 2), (3, 4, 5), tag="t")
        watchers = [s for s in gp.labels.values() if s.startswith("t:w")]
        assert len(watchers) == core.m

    def test_non_disjoint_triangles_rejected(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (1, 4)])
        with pytest.raises(PreconditionError):
            replace_triangle_crossing(g, (0, 1, 2), (1, 3, 4))

    def test_apex_degree_enforced(self):
        g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5),
                                 (4, 5), (2, 6)])
        # apex 2 has degree 3 now
        with pytest.raises(PreconditionError):
            replace_triangle_crossing(g, (0, 1, 2), (3, 4, 5))


class TestDsGadget:
    def test_packaging(self):
        gadget = ds_crossover_gadget()
        assert gadget.problem == "ds"
        assert gadget.shift == 48
        assert gadget.graph.n > 100
        assert gadget.width <= 18

    def test_planar_with_cyclic_terminal_order(self):
        gadget = ds_crossover_gadget()
        assert is_planar(gadget.graph)
        assert validate_crossover_shape(gadget)

    def test_one_host_shift_48(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        gadget = ds_crossover_gadget()
        gp = replace_edges_by_gadget(g, (0, 1), (2, 3), gadget)
        layout = _layout_around_gadget(gp, g, gadget)
        after = dp_ds(gp, layout).optimum
        assert after == brute_ds(g) + 48


def _layout_around_gadget(gp, host, gadget):
    """Host vertices first/last, gadget block in its frozen order."""
    base = host.n
    inner = [base + v for v in gadget.layout.order]
    rest = [v for v in range(host.n)]
    return LinearLayout(tuple(rest[:2] + inner + rest[2:]))


class TestStructuralVerifiers:
    def test_simplicial_avoidance_triangle_with_watcher(self):
        # K3 plus a degree-two watcher on one edge
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1)])
        assert verify_simplicial_avoidance(g)

    def test_simplicial_avoidance_c5_vacuous(self):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert verify_simplicial_avoidance(g)

    def test_simplicial_avoidance_on_capped_core_fragment(self):
        core, _ = vc_crossing_core()
        edges = list(core.edges)
        nxt = core.n
        for a, b in core.sorted_edges()[:4]:
            edges += [(nxt, a), (nxt, b)]
            nxt += 1
        g = Graph.from_edges(nxt, edges)
        assert verify_simplicial_avoidance(g)

    def test_domset_is_vc_minimal(self):
        g = Graph.from_edges(3, [(0, 1), (2, 0), (2, 1)])
        assert verify_domset_is_vc(g, {0, 1})

    def test_domset_is_vc_precondition(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(PreconditionError):
            verify_domset_is_vc(g, {0, 1, 2})

    def test_domset_is_vc_on_capped_fragment(self):
        # a 4-cycle with watchers on every edge
        base = [(0, 1), (1, 2), (2, 3), (3, 0)]
        edges = list(base)
        nxt = 4
        for a, b in base:
            edges += [(nxt, a), (nxt, b)]
            nxt += 1
        g = Graph.from_edges(nxt, edges)
        assert verify_domset_is_vc(g, {0, 1, 2, 3})

    def test_domset_is_vc_against_subsets(self):
        # random graphs whose inner edges each have a private watcher;
        # extra vertices outside u_set never touch a watcher
        rng = random.Random(31)
        checked = 0
        while checked < 25:
            k = rng.randint(2, 5)
            inner = [e for e in itertools.combinations(range(k), 2)
                     if rng.random() < 0.5]
            n = k + len(inner) + rng.randint(0, 3)
            if n > 14:
                continue
            edges = list(inner)
            for i, (a, b) in enumerate(inner):
                edges += [(k + i, a), (k + i, b)]
            others = list(range(k))
            for x in range(k + len(inner), n):
                edges += [(x, y) for y in others if rng.random() < 0.4]
                others.append(x)
            g = Graph.from_edges(n, edges)
            assert (verify_domset_is_vc(g, set(range(k)))
                    == subsets_ds_covers(g, inner))
            checked += 1
