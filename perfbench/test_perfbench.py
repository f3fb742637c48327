"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gen
from workloads import FAMILIES, WORKLOADS, load_golden, make_jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_single_crossing_hosts_deterministic_and_shaped():
    for seed in range(300):
        h = gen.single_crossing_host(seed)
        assert h == gen.single_crossing_host(seed)
        assert 4 <= h.n <= 8
        assert sorted(h.order) == list(range(h.n))
        (s, t), = gen.crossing_pairs(h)
        assert not set(s) & set(t)
        assert gen.edges_over(h, gen.crossing_x(s, t)) <= 4


def test_crossing_above_a_vertex_is_counted_directly():
    # arcs 1-5 and 3-7 meet above position 4, where a vertex sits
    h = gen.Host(7, ((0, 4), (2, 6), (3, 4)), tuple(range(7)))
    (s, t), = gen.crossing_pairs(h)
    x = gen.crossing_x(s, t)
    assert x == Fraction(4)
    assert gen.edges_over(h, x) == 2


def test_banded_hosts_deterministic_with_exact_crossings():
    for seed in range(200):
        h = FAMILIES["band24"](seed)
        assert h == FAMILIES["band24"](seed)
        assert len(h.edges) == 48 and len(set(h.edges)) == 48
        assert len(gen.crossing_pairs(h)) == 140
        pos = {v: i for i, v in enumerate(h.order)}
        assert all(abs(pos[u] - pos[v]) <= 6 for u, v in h.edges)
    for family in ("sparse1000", "sparse100"):
        for seed in range(3):
            h = FAMILIES[family](seed)
            assert h == FAMILIES[family](seed)
    assert gen.crossing_count(FAMILIES["sparse100"](0)) == 195


def test_fast_crossing_count_matches_pair_scan():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 30)
        pairs = list(itertools.combinations(range(n), 2))
        picked = sorted(rng.sample(pairs, rng.randint(1, len(pairs))))
        h = gen.Host(n, tuple(picked), tuple(range(n)))
        assert gen.count_crossings(picked) == len(gen.crossing_pairs(h))


def test_every_pool_instance_has_golden_digests():
    golden = load_golden()
    for workload in WORKLOADS:
        for seed in range(20):
            for job in make_jobs(workload, seed, golden["pools"]):
                assert job.key in golden["digests"], job.key


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_run_is_correct_and_prints_declared_metrics(trace, section):
    out = _run(ROOT, "smoke", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "verify-ds", 0)
    assert out.returncode != 0
    assert out.stdout == ""
