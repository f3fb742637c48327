import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cutplanar import cli, solvers
from cutplanar import io as cio
from cutplanar.errors import (OracleLimitError, PreconditionError,
                              ResourceLimitError)
from cutplanar.gadgets import builtin_gadget
from cutplanar.graph import (Graph, LinearLayout, bag_steps, cut_profile,
                             layout_to_path_decomposition, random_graph)
from cutplanar.planarize import planarize, planarized_optimum
from cutplanar.solvers import (brute_ds, brute_is, brute_vc, dp_ds, dp_is,
                               heuristic_layout)

from oracles import (band24_host, reference_dp, single_crossing_host,
                     subsets_ds, subsets_is, subsets_vc)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestBruteForce:
    def test_c5(self):
        g = cycle(5)
        assert brute_is(g) == 2
        assert brute_ds(g) == 2

    def test_star_ds(self):
        g = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        assert brute_ds(g) == 1

    def test_kn(self):
        for n in (2, 4, 6):
            g = complete(n)
            assert brute_vc(g) == n - 1
            assert brute_is(g) == 1

    def test_size_limit(self):
        with pytest.raises(OracleLimitError):
            brute_is(Graph.from_edges(29, []), limit=28)

    def test_against_subset_enumeration(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = random_graph(n, rng.choice([0.25, 0.5]), rng)
            assert brute_is(g) == subsets_is(g)
            assert brute_ds(g) == subsets_ds(g)
            assert brute_vc(g) == subsets_vc(g)
            avoid = set(rng.sample(range(n), rng.randint(1, n)))
            assert brute_ds(g, avoid=avoid) == subsets_ds(g, avoid)

    def test_is_vc_complement(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(n, 0.4, rng)
            assert brute_is(g) + brute_vc(g) == n


class TestLayoutDP:
    def test_p4_is(self):
        g = Graph.from_edges(4, [(i, i + 1) for i in range(3)])
        assert dp_is(g, LinearLayout.identity(4)).optimum == 2

    def test_star_ds(self):
        g = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
        rep = dp_ds(g, heuristic_layout(g))
        assert rep.optimum == 1

    def test_isolated_vertices_must_self_dominate(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert dp_ds(g, LinearLayout.identity(3)).optimum == 2

    def test_matches_brute_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
            layout = heuristic_layout(g)
            ri, rd = dp_is(g, layout), dp_ds(g, layout)
            assert ri.optimum == brute_is(g)
            assert rd.optimum == brute_ds(g)
            assert ri.max_live_states <= 2 ** (ri.width_used + 1)
            assert rd.max_live_states <= 3 ** (rd.width_used + 1)

    def test_layout_invariance(self):
        rng = random.Random(14)
        for _ in range(15):
            n = rng.randint(2, 9)
            g = random_graph(n, 0.4, rng)
            vals_is, vals_ds = set(), set()
            for _ in range(4):
                order = list(range(n))
                rng.shuffle(order)
                layout = LinearLayout(tuple(order))
                vals_is.add(dp_is(g, layout).optimum)
                vals_ds.add(dp_ds(g, layout).optimum)
            assert len(vals_is) == 1 and len(vals_ds) == 1

    def test_edge_addition_monotonicity(self):
        rng = random.Random(15)
        for _ in range(20):
            n = rng.randint(3, 9)
            g = random_graph(n, 0.3, rng)
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if not g.has_edge(u, v)]
            if not non_edges:
                continue
            e = non_edges[rng.randrange(len(non_edges))]
            g2 = Graph.from_edges(n, list(g.edges) + [e])
            assert brute_is(g2) <= brute_is(g)
            assert brute_ds(g2) <= brute_ds(g)


class TestBlockDP:
    # 0 and 1 stand before the block pair U = 2, V = 3
    G = Graph.from_edges(4, [(0, 2), (1, 3)])

    def test_block_vertices_need_a_transfer_table(self):
        with pytest.raises(PreconditionError,
                           match="block vertices 2 to 3 have no transfer"):
            solvers.block_dp(self.G, LinearLayout.identity(4), 2, None, "is")

    @pytest.mark.parametrize("order, extra", [
        ((0, 2, 1, 3), []),           # U is followed by a host vertex
        ((0, 1, 3, 2), []),           # V comes before U
        ((0, 1, 2, 3), [(1, 2)]),     # U has two earlier neighbours
        ((0, 2, 3, 1), []),           # V has no earlier neighbour
    ], ids=["not-followed", "swapped", "two-back", "no-back"])
    def test_block_pair_precondition(self, order, extra):
        g = Graph.from_edges(4, list(self.G.edges) + extra)
        table = builtin_gadget("is").transfer
        with pytest.raises(PreconditionError,
                           match="is not followed by its pair"):
            solvers.block_dp(g, LinearLayout(order), 2, table, "is")


class TestDsEngine:
    def test_matches_brute_at_widths_11_to_16(self):
        # straddles width 13/14, where 3^(w+1) outgrows a dense table
        rng = random.Random(17)
        widths = []
        while len(widths) < 30:
            n = rng.randint(16, 24)
            g = random_graph(n, rng.choice([0.15, 0.2, 0.25, 0.3]), rng)
            order = list(range(n))
            rng.shuffle(order)
            layout = LinearLayout(tuple(order))
            if not 11 <= layout_to_path_decomposition(g, layout).width <= 16:
                continue
            rep = dp_ds(g, layout)
            assert rep.optimum == brute_ds(g)
            assert rep.max_live_states <= 3 ** (rep.width_used + 1)
            rep_is = dp_is(g, layout)
            assert rep_is.optimum == brute_is(g)
            assert rep_is.max_live_states <= 2 ** (rep_is.width_used + 1)
            widths.append(rep.width_used)
        assert min(widths) <= 13 and max(widths) >= 14

    @staticmethod
    def star_centre_last(leaves):
        g = Graph.from_edges(leaves + 1, [(leaves, i) for i in range(leaves)])
        return g, LinearLayout.identity(leaves + 1)

    def test_width_beyond_int64_keys_rejected(self):
        g, layout = self.star_centre_last(40)
        with pytest.raises(ResourceLimitError):
            dp_ds(g, layout)

    @staticmethod
    def assert_solve_exits_on_resource(capsys, tmp_path, g, layout, problem):
        gpath, lpath = tmp_path / "star.gr", tmp_path / "star.layout"
        gpath.write_text(cio.write_graph(g))
        lpath.write_text(cio.write_layout(layout))
        code = cli.main(["solve", str(gpath), str(lpath), "--problem", problem,
                         "--algo", "dp"])
        assert code == cli.EXIT_RESOURCE
        assert "resource limit" in json.loads(capsys.readouterr().out)["error"]

    def test_width_limit_exit_code(self, capsys, tmp_path):
        g, layout = self.star_centre_last(40)
        self.assert_solve_exits_on_resource(capsys, tmp_path, g, layout, "ds")

    @staticmethod
    def pendant_comb(legs):
        """``legs`` (leaf, v) pairs in identity order, then a hub adjacent
        to every v: DP width ``legs``, as every v waits for the hub."""
        g = Graph.from_edges(2 * legs + 1,
                             [(2 * i, 2 * i + 1) for i in range(legs)]
                             + [(2 * legs, 2 * i + 1) for i in range(legs)])
        return g, LinearLayout.identity(2 * legs + 1)

    def test_ds_width_limit_is_30(self, capsys, tmp_path):
        # two bits per slot: 31 slots fit in 62 bits, 32 do not.  Each
        # pair settles to the one state with v in the set, so the peak is
        # the two states after a leaf's introduce
        rep = dp_ds(*self.pendant_comb(30))
        assert (rep.width_used, rep.optimum,
                rep.max_live_states) == (30, 30, 2)
        g, layout = self.pendant_comb(31)
        with pytest.raises(ResourceLimitError):
            dp_ds(g, layout)
        self.assert_solve_exits_on_resource(capsys, tmp_path, g, layout, "ds")

    def test_is_width_limits(self, capsys, tmp_path):
        # the comb of 40 legs: width 40, and the out state of every leaf
        # prunes its in state
        rep = dp_is(*self.pendant_comb(40))
        assert (rep.width_used, rep.optimum) == (40, 41)
        # 2^63 keys do not fit in int64
        g, layout = self.star_centre_last(62)
        with pytest.raises(ResourceLimitError):
            dp_is(g, layout)
        self.assert_solve_exits_on_resource(capsys, tmp_path, g, layout, "is")

    @pytest.mark.parametrize("problem, budget",
                             [("is", 1 << 8), ("ds", 1 << 16)],
                             ids=["is", "ds"])
    def test_memory_budget(self, monkeypatch, problem, budget):
        gadget = builtin_gadget(problem)
        dp = dp_is if problem == "is" else dp_ds
        monkeypatch.setattr(solvers, "MEMORY_BUDGET_BYTES", budget)
        with pytest.raises(ResourceLimitError):
            dp(gadget.graph, gadget.layout)


class TestMemoryCheck:
    """Each step checks, before allocating, that 64 bytes per state it
    may hold fit MEMORY_BUDGET_BYTES: 128 n bytes for a vertex step from
    n states, 64 n (R + 1) for a block step whose transfer table has at
    most R rows per input pair.  No step's traced peak may exceed the
    bytes its check assumed."""

    # a step's Python objects (array headers, slot lists) beside its arrays
    SLACK = 16 << 10

    @staticmethod
    def step_peaks(monkeypatch, run):
        """(assumed bytes, traced peak over the step's start) per step of
        ``run()``.  The prune takes one slot per block, so that no
        fixed-size block matrix hides in the peaks of small tables."""
        monkeypatch.setattr(solvers, "_VECTOR_PRUNE_CELLS", 0)
        reserve = solvers._reserve
        steps = []

        def close():
            if steps and steps[-1][2] is None:
                steps[-1][2] = (tracemalloc.get_traced_memory()[1]
                                - steps[-1][1])

        def traced(need, states):
            close()
            steps.append([need, tracemalloc.get_traced_memory()[0], None])
            tracemalloc.reset_peak()
            reserve(need, states)
        monkeypatch.setattr(solvers, "_reserve", traced)
        tracemalloc.start()
        try:
            run()
            close()
        finally:
            tracemalloc.stop()
        return [(need, peak) for need, _, peak in steps]

    @staticmethod
    def planarized(n):
        gadget = builtin_gadget("ds")
        return planarize(complete(n), LinearLayout.identity(n), 0, gadget)

    @pytest.mark.parametrize("run, largest", [
        (lambda: dp_ds(TestMemoryCheck.planarized(5).g_prime,
                       TestMemoryCheck.planarized(5).layout_prime), 4 << 20),
        (lambda: planarized_optimum(TestMemoryCheck.planarized(5)),
         16 << 10),
        (lambda: planarized_optimum(TestMemoryCheck.planarized(7)),
         1 << 20),
        (lambda: dp_ds(random_graph(24, 0.3, random.Random(5)),
                       LinearLayout.identity(24)), 8 << 20),
    ], ids=["K5-ds-layout-dp", "K5-ds-blocks", "K7-ds-blocks", "random-ds"])
    def test_no_step_exceeds_its_check(self, monkeypatch, run, largest):
        builtin_gadget("ds").transfer
        peaks = self.step_peaks(monkeypatch, run)
        # the check was tried on large tables
        assert max(need for need, _ in peaks) > largest
        over = [(need, peak) for need, peak in peaks
                if peak > need + self.SLACK]
        assert not over

    def test_block_step_counts_its_expansion(self, monkeypatch):
        # K5-DS: the largest block step grows 48 states by the DS table's
        # 9 rows per input pair; a budget just below its 64 * 48 * 10
        # bytes refuses it, and every other step fits
        res = TestMemoryCheck.planarized(5)
        widest = builtin_gadget("ds").transfer.widest
        assert widest == 9
        monkeypatch.setattr(solvers, "MEMORY_BUDGET_BYTES",
                            64 * 48 * (widest + 1) - 1)
        with pytest.raises(ResourceLimitError,
                           match=r"DP step of 432 states needs 30720 bytes"):
            planarized_optimum(res)
        monkeypatch.setattr(solvers, "MEMORY_BUDGET_BYTES",
                            64 * 48 * (widest + 1))
        assert planarized_optimum(res) == 241


class TestPruneForms:
    """Twin pruning tests the bag slots in blocks of
    max(1, _VECTOR_PRUNE_CELLS // N) slots for a table of N keys.  The
    budgets below give one slot per block, mixed blocks and one block for
    all slots; every budget must mark the same states dead, so every
    DPReport agrees."""

    BUDGETS = (0, 1 << 6, 1 << 10, 1 << 62)

    @classmethod
    def reports(cls, monkeypatch, problem, g, layout):
        dp = solvers.SOLVERS[problem][1]
        out = []
        for cells in cls.BUDGETS:
            monkeypatch.setattr(solvers, "_VECTOR_PRUNE_CELLS", cells)
            out.append(dp(g, layout))
        return out

    # expected (optimum, max_live_states, bag_count, width_used) on G'
    @pytest.mark.parametrize("problem, make, expect", [
        ("is", lambda: (complete(5), LinearLayout.identity(5)),
         (46, 79, 115, 12)),
        ("is", lambda: (complete(6), LinearLayout.identity(6)),
         (136, 130, 336, 15)),
        ("is", lambda: (complete(7), LinearLayout.identity(7)),
         (316, 294, 777, 18)),
        ("is", lambda: (complete(8), LinearLayout.identity(8)),
         (631, 766, 1548, 22)),
        ("is", lambda: band24_host(1), (1270, 2340, 3104, 17)),
        ("is", lambda: band24_host(2), (1271, 3195, 3104, 19)),
        ("is", lambda: band24_host(16), (1271, 510, 3104, 17)),
        ("ds", lambda: single_crossing_host(6), (52, 5616, 222, 15)),
        ("ds", lambda: single_crossing_host(8), (52, 5616, 222, 15)),
    ], ids=["K5-is", "K6-is", "K7-is", "K8-is", "band24-1-is",
            "band24-2-is", "band24-16-is", "sc-6-ds", "sc-8-ds"])
    def test_planarized_hosts(self, monkeypatch, problem, make, expect):
        g, layout = make()
        res = planarize(g, layout, 0, builtin_gadget(problem))
        reports = self.reports(monkeypatch, problem, res.g_prime,
                               res.layout_prime)
        assert reports == [solvers.DPReport(*expect)] * len(self.BUDGETS)

    @pytest.mark.parametrize("problem", ["is", "ds"])
    def test_random_graphs(self, monkeypatch, problem):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(1, 14)
            g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
            order = list(range(n))
            rng.shuffle(order)
            first, *rest = self.reports(monkeypatch, problem, g,
                                        LinearLayout(tuple(order)))
            assert rest == [first] * len(rest), (sorted(g.edges), order)

    @pytest.mark.parametrize("problem, make", [
        ("is", lambda: (complete(10), LinearLayout.identity(10))),
        ("ds", lambda: single_crossing_host(6)),
    ], ids=["K10-is", "sc-6-ds"])
    def test_blocks_stay_within_the_cell_budget(self, monkeypatch, problem,
                                                make):
        # a block's matrices of b slots by N keys hold at most
        # max(_VECTOR_PRUNE_CELLS, N) cells, and every candidate indexes
        # one of their cells
        candidates = solvers._prune_candidates
        wide = []

        def checked(keys, nslots, bits):
            limit = max(solvers._VECTOR_PRUNE_CELLS, keys.size)
            wide.append(keys.size * nslots > limit)
            for flat, twin_key in candidates(keys, nslots, bits):
                assert flat.size <= limit
                assert flat.max(initial=0) < limit
                yield flat, twin_key

        monkeypatch.setattr(solvers, "_prune_candidates", checked)
        res = planarize(*make(), 0, builtin_gadget(problem))
        solvers.SOLVERS[problem][1](res.g_prime, res.layout_prime)
        # some table needed more than one block
        assert any(wide)


class TestSettledSteps:
    """A step that forgets nothing after an introduce that reports a
    settled table skips the dedupe and the prune; every other step runs
    the full dedupe and prune.  Every step must end with a settled table,
    sorted, unique and giving the prune nothing to remove, and so must an
    introduce that reports one.  Forcing the full dedupe and prune on
    every step must leave every DPReport as it is."""

    INTRODUCE = {"is": "_introduce_is", "ds": "_introduce_ds"}

    @classmethod
    def reports(cls, problem, g, layout):
        """(report with every settled table checked, report with every
        step forced to the full dedupe and prune, counts): counts holds
        the steps whose introduce reported a settled table ("settled")
        and the steps that forget nothing after an introduce that did not
        ("unsettled")."""
        dp = solvers.SOLVERS[problem][1]
        name = cls.INTRODUCE[problem]
        introduce = getattr(solvers, name)
        bits = {"is": 1, "ds": 2}[problem]
        forgets = iter([forget for _, _, forget in bag_steps(g, layout)[0]])
        counts = dict.fromkeys(("settled", "unsettled"), 0)

        def assert_settled(keys, costs, nslots):
            assert (keys[1:] > keys[:-1]).all()
            pruned, _ = solvers._prune(keys, costs, nslots, bits)
            assert pruned.size == keys.size

        def checked(keys, costs, top, low):
            # the table the previous step ended with, of s = top's slot
            # slots (top = 1 << bits * s)
            nslots = (top.bit_length() - 1) // bits
            assert_settled(keys, costs, nslots)
            keys, costs, settled = introduce(keys, costs, top, low)
            forget = next(forgets)
            if settled:
                counts["settled"] += 1
                assert_settled(keys, costs, nslots + 1)
            elif not forget:
                counts["unsettled"] += 1
            return keys, costs, settled

        def forced(keys, costs, top, low):
            return (*introduce(keys, costs, top, low)[:2], False)

        out = []
        # patched in a context of its own, so the next call wraps the real
        # introduce again
        with pytest.MonkeyPatch.context() as patch:
            for patched in (checked, forced):
                patch.setattr(solvers, name, patched)
                out.append(dp(g, layout))
        return (*out, counts)

    @pytest.mark.parametrize("problem, make", [
        ("is", lambda: (complete(5), LinearLayout.identity(5))),
        ("is", lambda: (complete(6), LinearLayout.identity(6))),
        ("is", lambda: (complete(7), LinearLayout.identity(7))),
        ("ds", lambda: single_crossing_host(6)),
        ("ds", lambda: single_crossing_host(8)),
        ("ds", lambda: (complete(4), LinearLayout.identity(4))),
    ], ids=["K5-is", "K6-is", "K7-is", "sc-6-ds", "sc-8-ds", "K4-ds"])
    def test_planarized_hosts(self, problem, make):
        g, layout = make()
        res = planarize(g, layout, 0, builtin_gadget(problem))
        checked, forced, counts = self.reports(
            problem, res.g_prime, res.layout_prime)
        assert checked == forced
        assert counts["settled"] > 0
        # DS hosts also settle fully after an unsettled introduce that
        # forgets nothing, so that branch is not vacuous
        assert (counts["unsettled"] > 0) == (problem == "ds"), counts

    @pytest.mark.parametrize("problem", ["is", "ds"])
    def test_random_graphs(self, problem):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 14)
            g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
            order = list(range(n))
            rng.shuffle(order)
            checked, forced, _ = self.reports(problem, g,
                                              LinearLayout(tuple(order)))
            assert checked == forced, (sorted(g.edges), order)


class TestDigitForm:
    """Slot i of a DS key holds its digit in bits 2i and 2i + 1.  The bit
    formulas of _introduce_ds must do what the digit rules do on decoded
    digit lists, and the keys must sort as the base-3 keys of the same
    digits, so that sorting, dedupe and twins see the same order."""

    @staticmethod
    def decode(key, nslots):
        return [key >> 2 * i & 3 for i in range(nslots)]

    @staticmethod
    def encode(digits, radix=4):
        return sum(d * radix ** i for i, d in enumerate(digits))

    @classmethod
    def reference_introduce(cls, keys, costs, nslots, back):
        """(keys, costs, settled) of a DS introduce with earlier neighbours
        at the slots ``back``, on decoded digit lists."""
        rows = [(cls.decode(x, nslots), c) for x, c in zip(keys, costs)]
        v_in = [([1 if i in back and d == 2 else d
                  for i, d in enumerate(x)] + [0], c + 1) for x, c in rows]
        dominated = [(x + [1], c) for x, c in rows
                     if any(x[i] == 0 for i in back)]
        free = [(x + [2], c) for x, c in rows
                if all(x[i] != 0 for i in back)]
        out = v_in + dominated + free
        settled = all(x[i] != 2 for x, _ in rows for i in back)
        return ([cls.encode(x) for x, _ in out], [c for _, c in out],
                settled)

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(st.integers(0, 30).flatmap(lambda s: st.tuples(
        st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * s),
                           st.integers(-5, 5)),
                 min_size=1, max_size=30, unique_by=lambda row: row[0]),
        st.lists(st.booleans(), min_size=s, max_size=s))))
    def test_introduce_ds_matches_digit_lists(self, table):
        rows, back_mask = table
        nslots = len(back_mask)
        back = {i for i, b in enumerate(back_mask) if b}
        rows.sort(key=lambda row: self.encode(row[0]))
        assert rows == sorted(rows, key=lambda row: self.encode(row[0], 3))
        keys = np.array([self.encode(x) for x, _ in rows], dtype=np.int64)
        costs = np.array([c for _, c in rows], dtype=np.int64)
        got_keys, got_costs, got_settled = solvers._introduce_ds(
            keys, costs, 1 << 2 * nslots, sum(1 << 2 * i for i in back))
        want_keys, want_costs, settled = self.reference_introduce(
            keys.tolist(), costs.tolist(), nslots, back)
        assert got_keys.tolist() == want_keys
        assert got_costs.tolist() == want_costs
        assert got_settled is settled


def previous_rule_candidates(keys, nslots, bits):
    """The prune rule before the full dominance order: the highest digit
    (1 for IS, 2 for DS: the value ``bits``, whose high bit is set) against
    its twin one lower only, slot by slot."""
    for i in range(nslots):
        s = bits * i
        idx = np.flatnonzero(keys & bits << s)
        yield idx, keys[idx] - (1 << s)


class TestDominanceOrder:
    """A state dies when a twin with a lower digit at one slot costs no
    more.  Optima must match an unpruned reference DP and brute force
    at every block budget of TestPruneForms."""

    @staticmethod
    def assert_exact(monkeypatch, g, layout):
        """Every block budget gives the optimum of brute force and of the
        unpruned reference DP, and the peak of the reference DP pruned by
        the same rule."""
        brute = {"is": brute_is(g), "ds": brute_ds(g)}
        for problem in ("is", "ds"):
            assert reference_dp(g, layout, problem)[0] == brute[problem]
            expect = reference_dp(g, layout, problem, prune=True)
            assert expect[0] == brute[problem]
            for rep in TestPruneForms.reports(monkeypatch, problem, g, layout):
                assert (rep.optimum, rep.max_live_states) == expect, (
                    problem, sorted(g.edges), layout.order)

    def test_random_graphs(self, monkeypatch):
        rng = random.Random(29)
        for _ in range(80):
            n = rng.randint(0, 10)
            g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
            order = list(range(n))
            rng.shuffle(order)
            self.assert_exact(monkeypatch, g, LinearLayout(tuple(order)))

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(st.integers(0, 10).flatmap(lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2),
        st.permutations(range(n)))))
    def test_random_graphs_hypothesis(self, host):
        mask, order = host
        n = len(order)
        pairs = itertools.combinations(range(n), 2)
        g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_exact(monkeypatch, g, LinearLayout(tuple(order)))

    @pytest.mark.parametrize("make", [
        lambda: single_crossing_host(6),
        lambda: single_crossing_host(8),
        lambda: (complete(4), LinearLayout.identity(4)),
    ], ids=["sc-6", "sc-8", "K4"])
    def test_ds_peak_not_above_previous_rule(self, monkeypatch, make):
        g, layout = make()
        res = planarize(g, layout, 0, builtin_gadget("ds"))
        full = dp_ds(res.g_prime, res.layout_prime)
        monkeypatch.setattr(solvers, "_prune_candidates",
                            previous_rule_candidates)
        previous = dp_ds(res.g_prime, res.layout_prime)
        assert full.optimum == previous.optimum
        assert full.max_live_states <= previous.max_live_states


class TestHeuristicLayout:
    def test_paths_get_width_one(self):
        for n in (2, 10, 25, 50):
            g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
            layout = heuristic_layout(g)
            assert cut_profile(g, layout).max_width == 1

    def test_edgeless(self):
        g = Graph.from_edges(5, [])
        assert cut_profile(g, heuristic_layout(g)).max_width == 0

    def test_deterministic(self):
        rng = random.Random(16)
        g = random_graph(9, 0.4, rng)
        assert heuristic_layout(g, seed=0) == heuristic_layout(g, seed=0)

    def test_no_swap_in_the_2opt_window_narrows_the_result(self):
        # the refinement swaps positions less than 9 apart while the
        # width, as the heuristic counts it, drops
        rng = random.Random(17)
        for _ in range(40):
            g = random_graph(rng.randint(3, 14), rng.uniform(0.2, 0.7), rng)
            order = list(heuristic_layout(g, seed=1).order)
            width = cut_profile(g, LinearLayout(tuple(order))).max_width
            for i in range(len(order)):
                for j in range(i + 1, min(len(order), i + 9)):
                    swapped = list(order)
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    assert cut_profile(g, LinearLayout(tuple(swapped))
                                       ).max_width >= width
