import builtins
import gc
import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys

import networkx
import pytest
from hypothesis import given, settings, strategies as st

from cutplanar import cli, solvers
from cutplanar import io as cio
from cutplanar.errors import (CutplanarError, GadgetError, InvalidLayoutError,
                              InvariantError, OracleLimitError, ParseError,
                              PreconditionError, ResourceLimitError)
from cutplanar.gadgets import builtin_gadget, gjs_is_gadget, CrossoverGadget
from cutplanar.graph import (CutProfile, Graph, LinearLayout,
                             check_embedding_arrays, cut_profile,
                             random_graph)
from cutplanar.planarize import (check_spliced_embedding, planarize,
                                 verify_planarization)

from oracles import (graph_to_json_by_tuples, write_dot_by_tuples,
                     write_graph_by_tuples, write_layout_by_tuples)

# the package exports the function planarize under the module's name
planarize_module = importlib.import_module("cutplanar.planarize")
lr_check_planarity = networkx.check_planarity


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestGraphFormat:
    def test_round_trip(self):
        g = complete(4)
        assert cio.parse_graph(cio.write_graph(g)).edges == g.edges

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\np 3 2\ne 1 2\nc another\ne 2 3\n"
        g = cio.parse_graph(text)
        assert g.n == 3 and g.m == 2

    def test_malformed_e_line_reports_line_number(self):
        with pytest.raises(ParseError) as ei:
            cio.parse_graph("p 3 1\ne 1\n")
        assert ei.value.line == 2

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError):
            cio.parse_graph("p 2 1\ne 1 3\n")

    def test_edge_count_checked(self):
        with pytest.raises(ParseError):
            cio.parse_graph("p 3 2\ne 1 2\n")

    def test_layout_round_trip(self):
        g = complete(3)
        layout = LinearLayout((2, 0, 1))
        assert cio.parse_layout(cio.write_layout(layout), g) == layout

    def test_layout_entry_past_int64(self):
        # no vertex id, so the message of any other bad entry
        with pytest.raises(InvalidLayoutError,
                           match=r"^layout over 3 entries is not a "
                                 r"permutation of 0\.\.2$"):
            cio.parse_layout("1 2 99999999999999999999", complete(3))

    def test_gadget_layout_entry_past_int64(self):
        obj = cio.gadget_to_json(gjs_is_gadget())
        obj["layout"][0] = 10**20
        n = obj["graph"]["n"]
        with pytest.raises(ParseError,
                           match=rf"^bad gadget JSON: layout over {n} entries "
                                 rf"is not a permutation of 0\.\.{n - 1}$"):
            cio.gadget_from_json(obj)

    @pytest.mark.parametrize("problem", ["is", "ds"])
    def test_layout_writer_matches_tuple_formatting(self, problem):
        layouts = [LinearLayout(()), LinearLayout((0,)),
                   planarize(complete(6), LinearLayout.identity(6), 0,
                             builtin_gadget(problem)).layout_prime]
        for layout in layouts:
            assert cio.write_layout(layout) == write_layout_by_tuples(layout)

    def test_json_round_trip(self):
        g = Graph.from_edges(3, [(0, 1)], {0: "root"})
        g2 = cio.graph_from_json(cio.graph_to_json(g))
        assert g2.edges == g.edges and g2.labels == g.labels


def planarized(n, problem):
    return planarize(complete(n), LinearLayout.identity(n), 0,
                     builtin_gadget(problem)).g_prime


def banded_host(n, m, band, seed):
    """n vertices under a random relabelling, laid out in band order, with
    m distinct edges between positions at most ``band`` apart."""
    rng = random.Random(seed)
    pairs = rng.sample([(i, j) for i in range(n)
                        for j in range(i + 1, min(n, i + band + 1))], m)
    order = list(range(n))
    rng.shuffle(order)   # order[i] is the vertex at position i
    return (Graph.from_edges(n, [(order[i], order[j]) for i, j in pairs]),
            LinearLayout(order))


# 1-based ids on both sides of every digit boundary up to 10**7
BOUNDARY_IDS = sorted({1} | {10**d + s for d in range(1, 8) for s in (-1, 0)})


@st.composite
def wide_graphs(draw):
    """Up to 40 edges whose 1-based ids have 1 to 13 digits, under an n of
    at least the largest id and at most 10**12."""
    ids = st.integers(0, 12).flatmap(lambda d: st.integers(1, 10**d))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]),
                          max_size=40))
    n = draw(st.integers(max((max(p) for p in pairs), default=0), 10**12))
    return Graph.from_edges(n, [(u - 1, v - 1) for u, v in pairs])


class TestWriters:
    """The writers format the sorted edge array; they must give the bytes
    of the line-by-line formatters over the sorted tuple set."""

    @pytest.mark.parametrize("problem", ["is", "ds"])
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_planarized_complete_graphs(self, n, problem):
        self.assert_same_bytes(planarized(n, problem))

    def test_random_and_empty_graphs(self):
        rng = random.Random(4)
        graphs = [Graph.from_edges(0, []), Graph.from_edges(5, []),
                  Graph.from_edges(3, [], {1: "b"})]
        graphs += [random_graph(rng.randint(1, 30), rng.random(), rng)
                   for _ in range(30)]
        for g in graphs:
            self.assert_same_bytes(g)

    @staticmethod
    def assert_same_bytes(g):
        assert cio.write_graph(g) == write_graph_by_tuples(g)
        assert cio.write_dot(g) == write_dot_by_tuples(g)
        assert (json.dumps(cio.graph_to_json(g))
                == json.dumps(graph_to_json_by_tuples(g)))

    def test_dot_labels_are_escaped(self):
        # a quote or backslash in a label would end or bend the DOT string
        g = cio.graph_from_json({"n": 3, "edges": [[1, 2]], "labels": {
            "1": 'a"b', "2": "x<y&z", "3": "c\\d"}})
        lines = cio.write_dot(g).splitlines()
        assert lines[1:4] == ['  1 [label="a\\"b"];',
                              '  2 [label="x<y&z"];',
                              '  3 [label="c\\\\d"];']
        self.assert_same_bytes(g)

    @pytest.mark.parametrize("top", [10**d for d in range(1, 8)])
    def test_ids_at_digit_boundaries(self, top):
        # rows of ids one digit apart, and rows whose widest id is last
        ids = [i for i in BOUNDARY_IDS if i <= top]
        pairs = list(zip(ids, ids[1:])) + [(i, top) for i in ids[:-2]]
        g = Graph.from_edges(top, [(u - 1, v - 1) for u, v in pairs])
        assert cio.write_graph(g) == write_graph_by_tuples(g)
        if top <= 10**5:   # DOT has a line per vertex
            assert cio.write_dot(g) == write_dot_by_tuples(g)
        # write_layout formats the order as it stands, a permutation or not
        for order in (ids, ids[::-1]):
            layout = LinearLayout([i - 1 for i in order])
            assert cio.write_layout(layout) == write_layout_by_tuples(layout)

    @pytest.mark.parametrize("n", [2**32 - 1, 2**32, 2**33])
    def test_ids_at_and_past_two_to_the_32(self, n):
        # the widest id is the last vertex: below 2**32 the digits come
        # from uint32, from 2**32 on from uint64
        g = Graph.from_edges(n, [(0, 1), (8, 9), (0, n - 1),
                                 (2**31, n - 2), (n - 2, n - 1)])
        text = cio.write_graph(g)
        assert text == write_graph_by_tuples(g)
        assert text.endswith(f"e {n - 1} {n}\n")

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(wide_graphs())
    def test_wide_ids_match_tuples_and_parse_back(self, g):
        text = cio.write_graph(g)
        assert text == write_graph_by_tuples(g)
        assert cio.parse_graph(text) == g

    def test_planarized_banded_host(self):
        # a G' of about 45 000 vertices, so ids of 1 to 5 digits
        g, layout = banded_host(1000, 1500, 4, seed=1)
        res = planarize(g, layout, 0, builtin_gadget("is"))
        assert 10**4 <= res.g_prime.n < 10**5
        self.assert_same_bytes(res.g_prime)
        assert cio.write_layout(res.layout_prime) == write_layout_by_tuples(
            res.layout_prime)

    @pytest.mark.parametrize("problem", ["is", "ds"])
    def test_pipeline_never_builds_the_edge_set_of_g_prime(self, monkeypatch,
                                                           problem):
        # planarize, its cut profile and both output files work on edge
        # arrays, the host's included, so no graph is seen as tuples
        gadget = builtin_gadget(problem)   # built and cached before recording
        seen = []
        as_set, as_list = Graph.edges.func, Graph.sorted_edges

        def recording(method):
            def wrapper(g):
                seen.append(g)
                return method(g)
            return wrapper
        monkeypatch.setattr(Graph, "edges", property(recording(as_set)))
        monkeypatch.setattr(Graph, "sorted_edges", recording(as_list))
        g = complete(6)
        res = planarize(g, LinearLayout.identity(6), 0, gadget)
        cut_profile(res.g_prime, res.layout_prime)
        cio.write_graph(res.g_prime)
        cio.write_layout(res.layout_prime)
        assert seen == []
        g.sorted_edges()   # the recording is live
        assert seen == [g]


    @pytest.mark.parametrize("problem", ["is", "ds"])
    def test_pipeline_never_builds_the_order_tuple_of_g_prime(
            self, monkeypatch, capsys, tmp_path, problem):
        # planarize, its cut profile, both output files and the CLI report
        # work on the arrays of the layouts and cut profiles, so none is
        # seen as a tuple
        gadget = builtin_gadget(problem)   # built and cached before recording
        g, layout = complete(6), LinearLayout.identity(6)
        gpath, lpath = tmp_path / "k6.gr", tmp_path / "k6.layout"
        gpath.write_text(cio.write_graph(g))
        lpath.write_text(cio.write_layout(layout))
        seen = []

        def recording(method):
            def wrapper(obj):
                seen.append(obj)
                return method(obj)
            return property(wrapper)
        monkeypatch.setattr(LinearLayout, "order",
                            recording(LinearLayout.order.func))
        monkeypatch.setattr(CutProfile, "widths",
                            recording(CutProfile.widths.func))
        res = planarize(g, layout, 0, gadget)
        cut_profile(res.g_prime, res.layout_prime)
        cio.write_graph(res.g_prime)
        cio.write_layout(res.layout_prime)
        code, rep = run_cli(capsys, ["planarize", str(gpath), str(lpath),
                                     "--problem", problem, "--t", "0"])
        assert code == 0
        assert seen == []
        # the recording is live, and the tuples give the report and the file
        assert rep["results"]["cut_profile"] == list(res.cut_profile.widths)
        assert (tmp_path / "k6.gr.planarized.layout").read_text() == (
            write_layout_by_tuples(res.layout_prime))
        assert seen == [res.cut_profile, res.layout_prime]


class TestGadgetJson:
    def test_round_trip(self):
        gadget = gjs_is_gadget()
        obj = cio.gadget_to_json(gadget)
        back = cio.gadget_from_json(json.loads(json.dumps(obj)))
        assert back.graph.edges == gadget.graph.edges
        assert back.terminals == gadget.terminals
        assert back.shift == gadget.shift
        assert back.layout == gadget.layout

    # an integer field of the gadget file, and the path of its first
    # entry inside the file's graph object or the file itself
    INT_FIELDS = {"shift": ("shift",), "terminal": ("terminals", 0),
                  "n": ("graph", "n"), "edge-end": ("graph", "edges", 0, 1),
                  "layout": ("layout", 3)}
    # in place of the integer x; x + 0.5 used to be truncated back to x
    NOT_INTS = {"float": lambda x: x + 0.5, "integral-float": float,
                "bool": lambda x: True, "string": str}

    @pytest.mark.parametrize("kind", NOT_INTS)
    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_integer_fields_take_json_integers_only(self, field, kind):
        obj = json.loads(json.dumps(cio.gadget_to_json(gjs_is_gadget())))
        *parents, key = self.INT_FIELDS[field]
        inner = obj
        for k in parents:
            inner = inner[k]
        inner[key] = value = self.NOT_INTS[kind](inner[key])
        graph = "bad graph JSON: " if parents[:1] == ["graph"] else ""
        with pytest.raises(ParseError, match=re.escape(
                f"bad gadget JSON: {graph}{value!r} is not an integer")):
            cio.gadget_from_json(obj)
        if graph:
            with pytest.raises(ParseError, match=re.escape(
                    f"bad graph JSON: {value!r} is not an integer")):
                cio.graph_from_json(obj["graph"])


@pytest.fixture
def k4_files(tmp_path):
    gpath = tmp_path / "k4.gr"
    lpath = tmp_path / "k4.layout"
    gpath.write_text(cio.write_graph(complete(4)))
    lpath.write_text("1 2 3 4\n")
    return str(gpath), str(lpath)


EDGELESS_GADGET_JSON = cio.gadget_to_json(CrossoverGadget(
    "is", Graph.from_edges(4, []), (0, 1, 2, 3), LinearLayout.identity(4), 4))


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# Runs argv lists through cli.main in a fresh process, with networkx made
# unimportable when the first argument is "block"; prints each report,
# then one line with the exit codes and whether networkx was imported.
NO_NETWORKX_SCRIPT = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["networkx"] = None   # any import of networkx now raises
from cutplanar.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes,
                  "networkx": sys.modules.get("networkx") is not None}))
"""


@pytest.mark.parametrize("mode", ["block", "watch"])
def test_builtin_pipeline_runs_without_networkx(k4_files, tmp_path, mode):
    # the built-in gadgets carry proven rotations, so planarize --verify
    # and solve never need the left-right planarity test of networkx
    gpath, lpath = k4_files
    runs = [["planarize", gpath, lpath, "--problem", problem, "--t", t,
             "--verify", "--out-prefix", str(tmp_path / problem)]
            for problem, t in (("is", "1"), ("ds", "2"))]
    runs.append(["solve", gpath, "--problem", "ds"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX_SCRIPT, mode, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    *reports, last = map(json.loads, out.stdout.splitlines())
    assert last == {"codes": [0, 0, 0], "networkx": False}
    assert [r["results"].get("verified") for r in reports] == [True, True,
                                                                 None]
    assert reports[2]["results"]["optimum"] == 1


class TestCli:
    def test_report_command_is_main_argv(self, capsys, monkeypatch, k4_files):
        # an in-process caller's own arguments must not leak into the report
        monkeypatch.setattr(sys, "argv", ["x.py", "--some-flag"])
        gpath, lpath = k4_files
        argv = ["planarize", gpath, lpath, "--problem", "is", "--t", "1"]
        code, rep = run_cli(capsys, argv)
        assert code == 0
        assert rep["command"] == " ".join(argv)

    def test_cutwidth_layout(self, capsys, k4_files):
        gpath, lpath = k4_files
        code, rep = run_cli(capsys, ["cutwidth", gpath, lpath])
        assert code == 0
        assert rep["results"]["width"] == 4
        assert rep["schema"] == 1

    @pytest.mark.parametrize("n", [4, 6])
    def test_cutwidth_heuristic(self, capsys, tmp_path, n):
        g = complete(n)
        gpath = tmp_path / f"k{n}.gr"
        gpath.write_text(cio.write_graph(g))
        argv = ["cutwidth", str(gpath), "--seed", "3"]
        code, rep = run_cli(capsys, argv)
        assert code == 0
        r = rep["results"]
        assert r["mode"] == "heuristic"
        assert sorted(r["layout"]) == list(range(1, n + 1))
        layout = LinearLayout(tuple(v - 1 for v in r["layout"]))
        assert r["width"] == cut_profile(g, layout).max_width
        _, again = run_cli(capsys, argv)
        assert again["results"] == r and again["seed"] == rep["seed"] == 3

    @pytest.mark.parametrize("n", [10**20, 10**9], ids=["n=1e20", "n=1e9"])
    @pytest.mark.parametrize("command", [["cutwidth"], ["solve", "--problem",
                                                        "is"]],
                             ids=["cutwidth", "solve"])
    def test_huge_vertex_count_exit_code(self, capsys, tmp_path, n, command):
        # the heuristic layout is refused before it allocates per vertex
        gpath = tmp_path / "huge.gr"
        gpath.write_text(f"p {n} 0\n")
        code, rep = run_cli(capsys, [command[0], str(gpath), *command[1:]])
        assert code == cli.EXIT_RESOURCE
        assert rep["error"] == (
            f"resource limit: graph has {n} vertices, heuristic layout "
            f"limit is {solvers.HEURISTIC_LIMIT}")

    def test_cutwidth_exact(self, capsys, k4_files):
        gpath, _ = k4_files
        code, rep = run_cli(capsys, ["cutwidth", gpath, "--exact"])
        assert code == 0
        assert rep["results"]["width"] == 4

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.gr"
        bad.write_text("p 3 1\ne 1\n")
        code, rep = run_cli(capsys, ["cutwidth", str(bad)])
        assert code == cli.EXIT_PARSE
        assert "parse error" in rep["error"]

    def test_oracle_limit_exit_code(self, capsys, tmp_path):
        big = tmp_path / "big.gr"
        big.write_text(cio.write_graph(Graph.from_edges(19, [])))
        code, rep = run_cli(capsys, ["cutwidth", str(big), "--exact"])
        assert code == cli.EXIT_RESOURCE

    def test_oracle_limit_is_not_an_option(self, capsys, k4_files):
        # the exact cutwidth limit is fixed, so no input can ask the
        # subset DP for 2^n-entry tables beyond it
        gpath, _ = k4_files
        with pytest.raises(SystemExit) as ei:
            cli.build_parser().parse_args(
                ["cutwidth", gpath, "--exact", "--oracle-limit", "30"])
        assert ei.value.code == 2
        assert "--oracle-limit" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["is", "ds"])
    def test_repeated_main_calls_leave_little_cyclic_garbage(
            self, capsys, k4_files, tmp_path, problem):
        # a parser built per call left about 270 objects in reference
        # cycles per call, and the self-referencing closures of the brute
        # force searches 6 to 9, which the in-process benchmark rounds
        # pile up
        gpath, lpath = k4_files
        argv = ["planarize", gpath, lpath, "--problem", problem, "--t", "1",
                "--verify", "--out-prefix", str(tmp_path / "out")]
        calls = 20
        assert cli.main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            for _ in range(calls):
                assert cli.main(argv) == 0
            garbage = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert garbage == 0

    def test_planarize_k4_is(self, capsys, k4_files, tmp_path):
        gpath, lpath = k4_files
        prefix = str(tmp_path / "out")
        code, rep = run_cli(capsys, [
            "planarize", gpath, lpath, "--problem", "is", "--t", "1",
            "--out-prefix", prefix])
        assert code == 0
        r = rep["results"]
        assert r["t_prime"] == 10
        assert r["crossings_replaced"] == 1
        assert r["width_out"] <= r["width_in"] + r["gadget_width"] + 4
        out_graph = cio.parse_graph(open(r["files"]["graph"]).read())
        assert out_graph.n == 26

    def test_planarize_k4_verify(self, capsys, monkeypatch, k4_files, tmp_path):
        # planarity of G' is proven once per job, by one splice proof,
        # whose general embedding check runs on the contracted graph C
        # (the 4 host vertices and the one copy); the left-right test
        # runs at most once, on the gadget certificate
        splices, checks, lr_calls = [], [], []

        def counting_splice(result, lens, heads):
            splices.append(result.g_prime.n)
            return check_spliced_embedding(result, lens, heads)

        def counting_check(g, lens, heads):
            checks.append(g.n)
            return check_embedding_arrays(g, lens, heads)

        def counting_lr(graph, *args, **kwargs):
            lr_calls.append(graph.number_of_nodes())
            return lr_check_planarity(graph, *args, **kwargs)
        assert not hasattr(planarize_module, "is_planar")
        monkeypatch.setattr(planarize_module, "check_spliced_embedding",
                            counting_splice)
        monkeypatch.setattr(planarize_module, "check_embedding_arrays",
                            counting_check)
        monkeypatch.setattr(networkx, "check_planarity", counting_lr)
        gpath, lpath = k4_files
        code, rep = run_cli(capsys, [
            "planarize", gpath, lpath, "--problem", "is", "--t", "1",
            "--verify", "--out-prefix", str(tmp_path / "v")])
        assert code == 0
        assert rep["results"]["verified"] is True
        assert splices == [26]
        assert checks == [5]
        assert lr_calls in ([], [gjs_is_gadget().graph.n + 1])

    @pytest.mark.parametrize("problem", ["is", "ds"])
    def test_planarize_k6_verify_checks_only_c(self, capsys, monkeypatch,
                                               tmp_path, problem):
        # with 15 crossings the one general embedding check of a job still
        # runs on C alone, 6 host vertices and one vertex per copy, and the
        # verify step runs none: the check never sees G' itself
        checks, in_verify = [], []

        def counting_check(g, lens, heads):
            checks.append(g.n)
            return check_embedding_arrays(g, lens, heads)

        def counting_verify(result):
            before = len(checks)
            ok = verify_planarization(result)
            in_verify.append(len(checks) - before)
            return ok
        monkeypatch.setattr(planarize_module, "check_embedding_arrays",
                            counting_check)
        monkeypatch.setattr(cli, "verify_planarization", counting_verify)
        gpath, lpath = tmp_path / "k6.gr", tmp_path / "k6.layout"
        gpath.write_text(cio.write_graph(complete(6)))
        lpath.write_text("1 2 3 4 5 6\n")
        code, rep = run_cli(capsys, [
            "planarize", str(gpath), str(lpath), "--problem", problem,
            "--t", "1", "--verify", "--out-prefix", str(tmp_path / "v")])
        assert code == 0
        assert rep["results"]["verified"] is True
        assert rep["results"]["crossings_replaced"] == 15
        assert checks == [6 + 15]
        assert in_verify == [0]

    def test_planarize_verify_failure_report(self, capsys, monkeypatch,
                                             k4_files, tmp_path):
        monkeypatch.setattr(cli, "verify_planarization", lambda result: False)
        gpath, lpath = k4_files
        code, rep = run_cli(capsys, [
            "planarize", gpath, lpath, "--problem", "is", "--t", "1",
            "--verify", "--out-prefix", str(tmp_path / "v")])
        assert code == cli.EXIT_VERIFY
        assert list(rep) == ["schema", "command", "inputs", "results",
                             "wall_time_s"]
        assert list(rep["results"]) == [
            "problem", "crossings_replaced", "t", "t_prime", "width_in",
            "width_out", "gadget_width", "n_prime", "m_prime", "cut_profile",
            "files", "verified"]
        assert rep["results"]["verified"] is False
        assert rep["results"]["t_prime"] == 10

    def test_planarize_k5_ds(self, capsys, tmp_path):
        g = complete(5)
        gpath = tmp_path / "k5.gr"
        lpath = tmp_path / "k5.layout"
        gpath.write_text(cio.write_graph(g))
        lpath.write_text("1 2 3 4 5\n")
        code, rep = run_cli(capsys, [
            "planarize", str(gpath), str(lpath), "--problem", "ds",
            "--t", "1", "--out-prefix", str(tmp_path / "k5")])
        assert code == 0
        r = rep["results"]
        assert r["crossings_replaced"] == 5
        assert r["t_prime"] == 1 + 5 * 48 == 241

    def test_solve_brute_and_dp_agree(self, capsys, tmp_path):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        gpath = tmp_path / "c5.gr"
        gpath.write_text(cio.write_graph(g))
        code1, rep1 = run_cli(capsys, ["solve", str(gpath), "--problem", "ds",
                                       "--algo", "brute"])
        code2, rep2 = run_cli(capsys, ["solve", str(gpath), "--problem", "ds",
                                       "--algo", "dp"])
        assert code1 == code2 == 0
        assert rep1["results"]["optimum"] == rep2["results"]["optimum"] == 2

    def test_certify_builtin_is_gadget(self, capsys, tmp_path):
        gpath = tmp_path / "gadget.json"
        gpath.write_text(json.dumps(cio.gadget_to_json(gjs_is_gadget())))
        code, rep = run_cli(capsys, ["certify", str(gpath), "--hosts", "4"])
        assert code == 0
        assert rep["results"]["verdict"] == "PASS"
        assert rep["results"]["conditions"]["C1_legal_patterns"]

    def test_certify_bad_gadget_fails(self, capsys, tmp_path):
        bad = CrossoverGadget("is", Graph.from_edges(4, []), (0, 1, 2, 3),
                              LinearLayout.identity(4), 4)
        gpath = tmp_path / "bad.json"
        gpath.write_text(json.dumps(cio.gadget_to_json(bad)))
        code, rep = run_cli(capsys, ["certify", str(gpath), "--hosts", "2"])
        assert code == cli.EXIT_VERIFY

    @pytest.mark.parametrize("text", [
        json.dumps({**EDGELESS_GADGET_JSON, "problem": "xx"}),
        json.dumps({**EDGELESS_GADGET_JSON, "terminals": [1, 2, 3, 9]}),
        "{not json",
        json.dumps({**EDGELESS_GADGET_JSON, "layout": [1, 2, 3, 3]}),
    ], ids=["unknown-problem", "terminal-out-of-range", "not-json",
            "bad-layout"])
    def test_certify_malformed_gadget_exit_code(self, capsys, tmp_path, text):
        gpath = tmp_path / "bad.json"
        gpath.write_text(text)
        code, rep = run_cli(capsys, ["certify", str(gpath)])
        assert code == cli.EXIT_PARSE
        assert rep["error"].startswith("parse error: bad gadget JSON")

    def test_certify_fractional_layout_entry_exit_code(self, capsys,
                                                       tmp_path):
        # "layout": [1, 2, 3, 4.5] used to certify as [1, 2, 3, 4]
        obj = cio.gadget_to_json(gjs_is_gadget())
        obj["layout"][3] += 0.5
        gpath = tmp_path / "fractional.json"
        gpath.write_text(json.dumps(obj))
        code, rep = run_cli(capsys, ["certify", str(gpath), "--hosts", "4"])
        assert code == cli.EXIT_PARSE == 2
        assert rep["error"] == (f"parse error: bad gadget JSON: "
                                f"{obj['layout'][3]!r} is not an integer")

    def test_certify_vc_gadget_exit_code(self, capsys, tmp_path):
        # the gadget's check of its problem is the only one: --verify and
        # certify read the problem from the gadget
        gpath = tmp_path / "vc.json"
        gpath.write_text(json.dumps(
            {**cio.gadget_to_json(gjs_is_gadget()), "problem": "vc"}))
        code, rep = run_cli(capsys, ["certify", str(gpath)])
        assert code == cli.EXIT_PARSE == 2
        assert rep == {"schema": 1, "error": "parse error: bad gadget JSON: "
                       "unknown problem 'vc'"}

    def test_certify_repeated_fifth_terminal_exit_code(self, capsys,
                                                      tmp_path):
        # five terminal entries naming four distinct vertices are refused
        # by the gadget model, not by a crash in the rotation
        obj = cio.gadget_to_json(gjs_is_gadget())
        gpath = tmp_path / "five.json"
        gpath.write_text(json.dumps(
            {**obj, "terminals": obj["terminals"] + obj["terminals"][-1:]}))
        code = cli.main(["certify", str(gpath)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_PARSE == 2
        assert err == ""
        assert json.loads(out) == {
            "schema": 1, "error": "parse error: bad gadget JSON: "
            "terminals must be four distinct vertices"}

    def test_certify_needs_at_least_one_host(self, capsys, tmp_path):
        # the DS verdict rests on the host checks alone, so without hosts
        # a gadget with a wrong shift would pass
        gpath = tmp_path / "ds47.json"
        gpath.write_text(json.dumps(
            {**cio.gadget_to_json(builtin_gadget("ds")), "shift": 47}))
        for hosts in ("0", "-3"):
            with pytest.raises(SystemExit) as ei:
                cli.main(["certify", str(gpath), "--hosts", hosts])
            assert ei.value.code == cli.EXIT_PARSE
            assert "--hosts" in capsys.readouterr().err
        code, rep = run_cli(capsys, ["certify", str(gpath), "--hosts", "1"])
        assert code == cli.EXIT_VERIFY
        assert rep["results"]["verdict"] == "FAIL"

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    @pytest.mark.parametrize("role", ["graph", "layout", "gadget"])
    def test_unreadable_input_exit_code(self, capsys, tmp_path, k4_files,
                                        kind, role):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"p 4 0\n\xff\xfe\x80\n")
        gpath, _ = k4_files
        argv = {"graph": ["solve", str(bad), "--problem", "is"],
                "layout": ["solve", gpath, str(bad), "--problem", "is"],
                "gadget": ["certify", str(bad)]}[role]
        code, rep = run_cli(capsys, argv)
        assert code == cli.EXIT_PARSE
        assert rep["error"].startswith(f"parse error: cannot read {bad}")

    @pytest.mark.parametrize("kind", ["directory", "missing parent"])
    @pytest.mark.parametrize("command", ["planarize", "export"])
    def test_unwritable_output_exit_code(self, capsys, tmp_path, k4_files,
                                         kind, command):
        gpath, lpath = k4_files
        if kind == "directory":
            target = tmp_path / "out"
            target.mkdir()
            # planarize appends ".planarized" to its prefix
            (tmp_path / "out.planarized").mkdir()
        else:
            target = tmp_path / "missing" / "out"
        argv = {"planarize": ["planarize", gpath, lpath, "--problem", "is",
                              "--t", "1", "--out-prefix", str(target)],
                "export": ["export", gpath, "--format", "dot",
                           "-o", str(target)]}[command]
        written = {"planarize": f"{target}.planarized",
                   "export": str(target)}[command]
        code, rep = run_cli(capsys, argv)
        assert code == cli.EXIT_PRECONDITION
        assert rep["error"].startswith(f"precondition: cannot write {written}")

    def test_invariant_error_exit_code(self, capsys, monkeypatch, k4_files):
        def broken(*args):
            raise InvariantError("gap 3: cut after vertex X2:u of gadget copy X2")
        monkeypatch.setattr(cli, "planarize", broken)
        gpath, lpath = k4_files
        code, rep = run_cli(capsys, ["planarize", gpath, lpath, "--problem",
                                     "is", "--t", "1"])
        assert code == cli.EXIT_VERIFY
        assert "gadget copy X2" in rep["error"]

    @pytest.mark.parametrize("error, code, text", [
        (ParseError("bad token", line=3), 2, "parse error: line 3: bad token"),
        (PreconditionError("no layout"), 3, "precondition: no layout"),
        (InvalidLayoutError("not a permutation"), 3,
         "precondition: not a permutation"),
        (OracleLimitError("too big"), 4, "resource limit: too big"),
        (ResourceLimitError("over budget"), 4, "resource limit: over budget"),
        (InvariantError("gap 3"), 5, "invariant: gap 3"),
        (GadgetError("no drawing"), 3, "no drawing"),
        (CutplanarError("other"), 3, "other"),
    ], ids=lambda x: type(x).__name__ if isinstance(x, Exception) else None)
    def test_failure_families(self, capsys, monkeypatch, k4_files, error,
                              code, text):
        # every error family maps to one exit code and one message prefix
        def failing(args):
            raise error
        monkeypatch.setattr(cli, "cmd_cutwidth", failing)
        got = cli.main(["cutwidth", k4_files[0]])
        assert got == code
        assert capsys.readouterr().out == json.dumps(
            {"schema": 1, "error": text}) + "\n"

    def test_export_svg(self, capsys, tmp_path, k4_files):
        gpath, lpath = k4_files
        out = str(tmp_path / "k4.svg")
        code, rep = run_cli(capsys, ["export", gpath, lpath,
                                     "--format", "svg", "-o", out])
        assert code == 0
        content = open(out).read()
        assert content.count("r=\"3\"") == 1  # one crossing marker

    def test_export_svg_crossing_limit(self, capsys, monkeypatch, tmp_path):
        # K50 in identity order has C(50, 4) = 230 300 crossings: counted,
        # and refused before the drawing is built
        def never(*args):
            raise AssertionError("the drawing was built")
        monkeypatch.setattr(cli, "build_arc_drawing", never)
        gpath, lpath = tmp_path / "k50.gr", tmp_path / "k50.layout"
        gpath.write_text(cio.write_graph(complete(50)))
        lpath.write_text(cio.write_layout(LinearLayout.identity(50)))
        code = cli.main(["export", str(gpath), str(lpath), "--format", "svg"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_RESOURCE and err == ""
        assert json.loads(out) == {
            "schema": 1, "error": "resource limit: arc drawing has 230300 "
                                  "crossings, SVG export limit is 100000"}
        assert not (tmp_path / "k50.gr.svg").exists()

    @pytest.mark.parametrize("limit, code", [(5, 0), (4, cli.EXIT_RESOURCE)])
    def test_export_svg_crossing_limit_is_inclusive(
            self, capsys, monkeypatch, tmp_path, limit, code):
        # K5 in identity order has 5 crossings
        monkeypatch.setattr(cli, "SVG_CROSSING_LIMIT", limit)
        gpath, lpath = tmp_path / "k5.gr", tmp_path / "k5.layout"
        gpath.write_text(cio.write_graph(complete(5)))
        lpath.write_text(cio.write_layout(LinearLayout.identity(5)))
        got, rep = run_cli(capsys, ["export", str(gpath), str(lpath),
                                    "--format", "svg"])
        assert got == code
        assert (tmp_path / "k5.gr.svg").exists() == (code == 0)

    def test_export_svg_needs_layout(self, capsys, k4_files):
        code, rep = run_cli(capsys, ["export", k4_files[0], "--format", "svg"])
        assert code == cli.EXIT_PRECONDITION
        assert rep == {"schema": 1,
                       "error": "precondition: svg export needs a layout file"}

    def test_export_dot_round_trip(self, capsys, tmp_path, k4_files):
        gpath, _ = k4_files
        out = str(tmp_path / "k4.dot")
        code, _ = run_cli(capsys, ["export", gpath, "--format", "dot",
                                   "-o", out])
        assert code == 0
        text = (tmp_path / "k4.dot").read_text()
        edges = re.findall(r"^  (\d+) -- (\d+);$", text, re.M)
        assert {(int(u) - 1, int(v) - 1) for u, v in edges} == \
            complete(4).edges

    @pytest.mark.parametrize("n", [10**20, cio.DOT_VERTEX_LIMIT + 1],
                             ids=["n=1e20", "n=limit+1"])
    def test_export_dot_huge_vertex_count_exit_code(self, capsys, tmp_path,
                                                    n):
        # refused before one line per declared vertex is built
        gpath = tmp_path / "huge.gr"
        gpath.write_text(f"p {n} 0\n")
        out = tmp_path / "huge.dot"
        code, rep = run_cli(capsys, ["export", str(gpath), "--format", "dot",
                                     "-o", str(out)])
        assert code == cli.EXIT_RESOURCE
        assert rep["error"] == (
            f"resource limit: graph has {n} vertices, DOT export limit is "
            f"{cio.DOT_VERTEX_LIMIT}")
        assert not out.exists()

    def test_planarize_over_vertex_limit_exit_code(self, capsys, tmp_path):
        # K40 in identity order: the DS gadget would make G' of 40 +
        # 91 390 * 216 vertices; refused after the crossings are counted
        gpath, lpath = tmp_path / "k40.gr", tmp_path / "k40.layout"
        gpath.write_text(cio.write_graph(complete(40)))
        lpath.write_text(cio.write_layout(LinearLayout.identity(40)))
        code = cli.main(["planarize", str(gpath), str(lpath),
                         "--problem", "ds", "--t", "1"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_RESOURCE
        assert err == ""
        assert json.loads(out) == {
            "schema": 1,
            "error": "resource limit: planarized graph would have 19740280 "
                     "vertices (91390 crossings), planarize limit is "
                     "10000000"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k40.gr",
                                                             "k40.layout"]

    def test_export_dot_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cio, "DOT_VERTEX_LIMIT", 4)
        assert cio.write_dot(complete(4)).count(";") == 4 + 6
        with pytest.raises(ResourceLimitError):
            cio.write_dot(complete(5))


def sha16(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


class TestReadOnce:
    """Each input file is read once, and the report digests the bytes the
    command parsed."""

    def test_outputs_overwriting_inputs(self, capsys, k4_files, tmp_path):
        gpath, lpath = k4_files
        prefix = str(tmp_path / "a")
        opts = ["--problem", "is", "--t", "1", "--out-prefix", prefix]
        code, _ = run_cli(capsys, ["planarize", gpath, lpath, *opts])
        assert code == 0
        inputs = [prefix + ".planarized", prefix + ".planarized.layout"]
        before = {p: sha16(p) for p in inputs}
        code, rep = run_cli(capsys, ["planarize", *inputs, *opts])
        assert code == 0
        assert {p: sha16(p) for p in inputs} != before   # overwritten
        assert rep["inputs"] == before

    @pytest.mark.parametrize("command", ["planarize", "certify"])
    def test_each_input_opened_once(self, capsys, monkeypatch, k4_files,
                                    tmp_path, command):
        gadget = tmp_path / "gadget.json"
        gadget.write_text(json.dumps(cio.gadget_to_json(gjs_is_gadget())))
        inputs = {"planarize": list(k4_files), "certify": [str(gadget)]}[command]
        argv = {"planarize": ["planarize", *inputs, "--problem", "is",
                              "--t", "1", "--verify",
                              "--out-prefix", str(tmp_path / "v")],
                "certify": ["certify", *inputs, "--hosts", "2"]}[command]
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)
        monkeypatch.setattr(builtins, "open", counting_open)
        code, rep = run_cli(capsys, argv)
        assert code == 0
        assert list(rep["inputs"]) == inputs
        assert [opened.count(p) for p in inputs] == [1] * len(inputs)


# Parsers fed arbitrary input: each either raises a ParseError (a layout
# that parses but is no permutation raises InvalidLayoutError, exit 3) or
# returns a valid object.  Derandomized, so that every run tries the same
# examples, and without an example database.
fuzz = settings(max_examples=60, derandomize=True, database=None,
                deadline=None)
small_ints = st.integers(-2, 12)
fields = st.one_of(small_ints.map(str), st.text(max_size=3))
graph_lines = st.one_of(
    st.text(max_size=12),
    st.tuples(st.sampled_from(["p", "e", "c"]),
              st.lists(fields, max_size=4)).map(
        lambda t: " ".join((t[0], *t[1]))))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
GADGET_JSON_PATHS = [
    (), ("problem",), ("shift",), ("terminals",), ("terminals", 0), ("graph",),
    ("graph", "n"), ("graph", "edges"), ("graph", "edges", 0),
    ("graph", "edges", 0, 1), ("graph", "labels"), ("graph", "labels", "1"),
    ("layout",), ("layout", 0)]


class TestParserFuzz:
    @fuzz
    @given(st.lists(graph_lines, max_size=8).map("\n".join))
    def test_parse_graph(self, text):
        try:
            g = cio.parse_graph(text)
        except ParseError:
            return
        assert cio.parse_graph(cio.write_graph(g)) == g

    @fuzz
    @given(st.one_of(st.text(max_size=20),
                     st.lists(fields, max_size=6).map(" ".join)))
    def test_parse_layout(self, text):
        g = complete(4)
        try:
            layout = cio.parse_layout(text, g)
        except (ParseError, InvalidLayoutError):
            return
        assert sorted(layout.order) == [0, 1, 2, 3]

    @fuzz
    @given(st.sampled_from(GADGET_JSON_PATHS), json_values | small_ints)
    def test_gadget_from_json(self, path, value):
        # a valid gadget file with one entry, or all of it, replaced by
        # arbitrary JSON
        obj = {"root": cio.gadget_to_json(gjs_is_gadget())}
        *parents, key = ("root", *path)
        inner = obj
        for k in parents:
            inner = inner[k]
        inner[key] = value
        obj = obj["root"]
        try:
            gadget = cio.gadget_from_json(obj)
        except ParseError:
            return
        assert isinstance(gadget, CrossoverGadget)
        gadget.layout.validate(gadget.graph)
        back = cio.gadget_from_json(cio.gadget_to_json(gadget))
        assert back.graph == gadget.graph and back.layout == gadget.layout
