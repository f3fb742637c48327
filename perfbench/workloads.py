"""Workloads: which jobs a run makes from its seed.

A job is one ``cutplanar planarize`` invocation on one generated host.
Hosts come from fixed pools of generator seeds, so that golden digests
of every G' and layout the pools can produce sit in ``golden.json``; the
workload seed picks the pool members and the ``--t`` values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import gen

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Per-crossing optimum shifts proven by the paper (IS +9, DS +48).
SHIFT = {"is": 9, "ds": 48}

# family -> host maker; instance keys are "<family>-<generator seed>"
FAMILIES = {
    # criterion-3 shape: one crossing, at most 4 edges over it
    "sc": gen.single_crossing_host,
    # 24 vertices, 2n edges spanning <= 6 positions, G' of 3 104 vertices
    "band24": lambda s: gen.banded_host(24, 48, 6, 140, s),
    # 1 000 vertices, 1 500 edges, 2 000 crossings: G' of 45 000 vertices
    "sparse1000": lambda s: gen.banded_host(1000, 1500, 4, 2000, s),
    # 100 vertices, 150 edges, 195 crossings: G' of 42 220 vertices
    "sparse100": lambda s: gen.banded_host(100, 150, 4, 195, s),
    "k": gen.complete_host,
}


@dataclass(frozen=True)
class Job:
    problem: str
    family: str
    index: int           # generator seed, or n for K_n
    verify: bool
    t: int

    @property
    def key(self) -> str:
        """Names the instance in golden.json."""
        return f"{self.problem}/{self.family}-{self.index}"

    def host(self) -> gen.Host:
        return FAMILIES[self.family](self.index)


def load_golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def make_jobs(workload: str, seed: int, pools: dict[str, list[int]]
              ) -> list[Job]:
    """The jobs of one round of ``workload``, in run order."""
    rng = random.Random(seed)

    def job(problem, family, index, verify):
        return Job(problem, family, index, verify, rng.randint(0, 99))

    if workload == "verify-ds":
        return [job("ds", "sc", s, True)
                for s in rng.sample(pools["sc"], 3)]
    if workload == "verify-is":
        return ([job("is", "k", n, True) for n in (5, 6, 7, 8)]
                + [job("is", "band24", rng.choice(pools["band24"]), True)])
    if workload == "planarize-sparse":
        return [job("is", "sparse1000", rng.choice(pools["sparse1000"]), False),
                job("ds", "sparse100", rng.choice(pools["sparse100"]), False)]
    if workload == "smoke":
        return [job("is", "k", 5, True), job("is", "k", 6, True),
                job("is", "k", 7, False)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-ds", "verify-is", "planarize-sparse", "smoke")
