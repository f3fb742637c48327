"""Record ``golden.json``: the host pools and the sha256 digests of the
G' and layout files that ``cutplanar planarize`` writes for each of them.

    python3 perfbench/record.py

Run it only at a commit whose output is trusted; every benchmark run
then checks that the program still writes byte-identical files.

The single-crossing pool ("sc") holds the first SC_POOL generator seeds
whose planarized host makes the DS layout DP peak at SC_LIVE_STATES live
states (the most common value), so that every verify-ds job does the
same DP work and the seed changes the hosts but not the cost of a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import gen
import run
from workloads import GOLDEN, Job

POOLS = {"band24": list(range(32)), "sparse1000": list(range(12)),
         "sparse100": list(range(12)), "k": [5, 6, 7, 8]}
PROBLEM = {"sc": "ds", "band24": "is", "sparse1000": "is", "sparse100": "ds",
           "k": "is"}
SC_POOL = 16
SC_LIVE_STATES = 47_616


def single_crossing_pool() -> list[int]:
    from cutplanar import builtin_gadget, planarize, solvers
    from cutplanar.graph import Graph, LinearLayout
    pool, seed = [], 0
    while len(pool) < SC_POOL:
        h = gen.single_crossing_host(seed)
        res = planarize(Graph.from_edges(h.n, h.edges), LinearLayout(h.order),
                        0, builtin_gadget("ds"))
        states = solvers.dp_ds(res.g_prime, res.layout_prime).max_live_states
        if states == SC_LIVE_STATES:
            pool.append(seed)
        print(f"sc-{seed}: {states} live states", file=sys.stderr)
        seed += 1
    return pool


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from cutplanar import cli
    workdir = run.WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pools = dict(POOLS, sc=single_crossing_pool())
    digests = {}
    for family, indices in sorted(pools.items()):
        for index in indices:
            inst = run.Instance(Job(PROBLEM[family], family, index, False, 0),
                                workdir, None)
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                code = cli.main(inst.argv())
            res = json.loads(buf.getvalue())["results"]
            if code != 0 or res["crossings_replaced"] != inst.crossings:
                raise SystemExit(f"{inst.job.key}: exit {code}, {res}")
            digests[inst.job.key] = inst.output_digests()
            print(f"{inst.job.key}: {digests[inst.job.key]}", file=sys.stderr)
    shutil.rmtree(workdir)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=run.ROOT, capture_output=True,
                            text=True).stdout.strip()
    GOLDEN.write_text(json.dumps(
        {"recorded_at": commit, "pools": pools, "digests": digests},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
