"""Benchmark of ``cutplanar planarize``, end to end and layer by layer.

    python3 perfbench/run.py --workload verify-ds --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each run is one process that generates its inputs from the seed (not
timed), then runs the workload's jobs one at a time, in rounds, until
``--seconds`` have passed.  Every job is checked: exit code, ``verified``,
t' = t + crossings * shift with the crossing count taken from the
generator, and sha256 digests of the written G' and layout against
``golden.json``.

--trace 0  end-to-end metrics, jobs run through ``cutplanar.cli.main``:
           setup_s      median time of a fresh process to import
                        cutplanar and build both built-in gadgets
           wall_s       median wall time of one round of jobs
           peak_rss_mb  ru_maxrss of this process
--trace 1  per-layer metrics: untraced rounds alternate with traced ones,
           which call each layer's public functions with spans around
           them; the spans are written once, at the end.  Calls the
           library makes internally (the drawing, cut profile and
           planarity check inside planarize, bag construction inside
           the DP) are timed again on their own and subtracted, so
           planarize.assembly_s and solvers.dp_self_s are estimates.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a summary with
spreads, sample counts, per-layer self times and run metadata.  Scratch
files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: jobs run single-threaded.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gen
from spans import Tracer
from workloads import SHIFT, WORKLOADS, Job, load_golden, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cutplanar\n"
    "cutplanar.builtin_gadget('is')\n"
    "cutplanar.builtin_gadget('ds')\n"
    "print(time.perf_counter() - t0)\n"
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def measure_setup() -> list[float]:
    """Fresh-process set-up times; the first, which compiles bytecode,
    is dropped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


class Instance:
    """A job's input files, written once per run, and its expectations."""

    def __init__(self, job: Job, workdir: Path, digests: dict | None):
        self.job = job
        host = job.host()
        stem = workdir / job.key.replace("/", "_")
        self.graph = stem.with_suffix(".gr")
        self.layout = stem.with_suffix(".layout")
        self.graph.write_text(gen.graph_text(host))
        self.layout.write_text(gen.layout_text(host))
        self.crossings = gen.crossing_count(host)
        self.t_prime = job.t + self.crossings * SHIFT[job.problem]
        self.digests = digests   # {"graph": sha256, "layout": sha256}
        self.out_prefix = str(stem) + ".out"

    @property
    def outputs(self) -> tuple[Path, Path]:
        return (Path(self.out_prefix + ".planarized"),
                Path(self.out_prefix + ".planarized.layout"))

    def argv(self) -> list[str]:
        j = self.job
        argv = ["planarize", str(self.graph), str(self.layout),
                "--problem", j.problem, "--t", str(j.t),
                "--out-prefix", self.out_prefix]
        return argv + (["--verify"] if j.verify else [])

    def output_digests(self) -> dict[str, str]:
        graph_out, layout_out = self.outputs
        return {"graph": _sha256(graph_out), "layout": _sha256(layout_out)}

    def check_outputs(self) -> str | None:
        """Golden-digest check of the written G' and layout files."""
        got = self.output_digests()
        for what in ("graph", "layout"):
            if got[what] != self.digests[what]:
                return f"written {what} differs from the golden digest"
        return None

    def check_report(self, code: int, report: dict) -> str | None:
        if code != 0:
            return f"exit code {code}: {report.get('error', '')}"
        res = report["results"]
        if res["crossings_replaced"] != self.crossings:
            return (f"{res['crossings_replaced']} crossings replaced, "
                    f"generator counts {self.crossings}")
        if res["t_prime"] != self.t_prime:
            return f"t' = {res['t_prime']}, expected {self.t_prime}"
        if self.job.verify and res.get("verified") is not True:
            return "not verified"
        return self.check_outputs()


class Runner:
    def __init__(self, instances: list[Instance]):
        self.instances = instances
        self.attempted = 0
        self.failures: list[str] = []

    def _record(self, inst: Instance, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{inst.job.key}: {reason}")
            print(f"FAIL {inst.job.key}: {reason}", file=sys.stderr)

    def cli_round(self) -> float:
        """One untraced round through the CLI; returns its wall time."""
        from cutplanar import cli
        wall = 0.0
        for inst in self.instances:
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(inst.argv())
                finally:
                    wall += time.perf_counter() - t0
                reason = inst.check_report(code, json.loads(buf.getvalue()))
            # any exception fails the job, the bare AssertionError of a
            # broken construction invariant included; the run goes on
            except (Exception, SystemExit):
                reason = traceback.format_exc(limit=-3).strip()
            self._record(inst, reason)
        return wall

    def traced_round(self, tr: Tracer) -> dict[str, float]:
        """One round that calls the layers directly, with spans; returns
        the round's per-layer metrics."""
        from cutplanar import gadgets
        m = {name: 0.0 if name.endswith("_s") else 0
             for name in PER_LAYER_SUMS + PER_LAYER_MAXES}
        t0 = time.perf_counter()
        # the built-in gadgets are cached; build uncached copies
        with tr.span("gadgets.build", "setup") as sp:
            gadgets.gjs_is_gadget.__wrapped__()
            gadgets.ds_crossover_gadget.__wrapped__()
        m["gadgets.build_s"] = sp.end - sp.start
        for inst in self.instances:
            try:
                with tr.span("job", inst.job.key):
                    reason = self._traced_job(tr, inst, m)
            except (Exception, SystemExit):
                reason = traceback.format_exc(limit=-3).strip()
            self._record(inst, reason)
        m["traced_wall_s"] = time.perf_counter() - t0
        return m

    @staticmethod
    def _traced_job(tr: Tracer, inst: Instance, m: dict) -> str | None:
        from cutplanar import io as cio, solvers
        from cutplanar.drawing import build_arc_drawing, element_order
        from cutplanar.gadgets import builtin_gadget
        from cutplanar.graph import (cut_profile, is_planar,
                                     layout_to_path_decomposition)
        from cutplanar.planarize import planarize

        job, key = inst.job, inst.job.key

        def timed(name: str, fn, *args):
            with tr.span(name, key) as sp:
                out = fn(*args)
            m[name + "_s"] += sp.end - sp.start
            return out

        def parse():
            g = cio.parse_graph(inst.graph.read_text())
            return g, cio.parse_layout(inst.layout.read_text(), g)

        g, layout = timed("io.parse", parse)
        gadget = builtin_gadget(job.problem)
        d = timed("drawing.build", build_arc_drawing, g, layout)
        timed("drawing.order", element_order, d)
        res = timed("planarize.call", planarize, g, layout, job.t, gadget)
        timed("graph.cut_profile", cut_profile, res.g_prime, res.layout_prime)
        planar = timed("graph.planarity", is_planar, res.g_prime)

        def write():
            graph_out, layout_out = inst.outputs
            graph_out.write_text(cio.write_graph(res.g_prime))
            layout_out.write_text(cio.write_layout(res.layout_prime))
        timed("io.write", write)

        m["drawing.crossings"] += len(d.crossings)
        m["planarize.n_prime"] += res.g_prime.n
        m["planarize.m_prime"] += res.g_prime.m
        m["planarize.width_out"] = max(m["planarize.width_out"], res.width_out)
        optimum_ok = True
        if job.verify:
            brute = solvers.brute_is if job.problem == "is" else solvers.brute_ds
            dp = solvers.dp_is if job.problem == "is" else solvers.dp_ds
            before = timed("solvers.brute", brute, g)
            rep = timed("solvers.dp", dp, res.g_prime, res.layout_prime)
            pd = timed("graph.decompose", layout_to_path_decomposition,
                       res.g_prime, res.layout_prime)
            m["graph.pathwidth"] = max(m["graph.pathwidth"], pd.width)
            m["solvers.dp_live_states_max"] = max(
                m["solvers.dp_live_states_max"], rep.max_live_states)
            optimum_ok = rep.optimum == before + (res.t_prime - job.t)
        else:
            # no verify stage: empty spans, so these layers read ~0
            for name in ("solvers.brute", "solvers.dp", "graph.decompose"):
                timed(name, lambda: None)
        if res.crossings_replaced != inst.crossings or res.t_prime != inst.t_prime:
            return "crossing count or t' differs from the generator's"
        if not planar:
            return "G' is not planar"
        if not optimum_ok:
            return "optimum did not shift by crossings * shift"
        return inst.check_outputs()


# per-layer metrics summed over a round's jobs, and those maxed over them
PER_LAYER_SUMS = ("io.parse_s", "io.write_s", "drawing.build_s",
                  "drawing.order_s", "drawing.crossings", "planarize.call_s",
                  "planarize.n_prime", "planarize.m_prime",
                  "graph.cut_profile_s", "graph.planarity_s",
                  "graph.decompose_s", "solvers.brute_s", "solvers.dp_s")
PER_LAYER_MAXES = ("planarize.width_out", "graph.pathwidth",
                   "solvers.dp_live_states_max")
UNITS = {"_s": "s", "_mb": "MB", "crossings": "count", "n_prime": "count",
         "m_prime": "count", "width_out": "count", "pathwidth": "count",
         "states_max": "count"}


def _unit(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def _derived(m: dict, untraced_wall: float) -> dict:
    """Self-time estimates: the stand-in calls are subtracted from the
    calls that contain them inside the library."""
    m = dict(m)
    m["planarize.assembly_s"] = (m["planarize.call_s"] - m["drawing.build_s"]
                                 - m["drawing.order_s"]
                                 - m["graph.cut_profile_s"]
                                 - m["graph.planarity_s"])
    m["solvers.dp_self_s"] = m["solvers.dp_s"] - m["graph.decompose_s"]
    m["trace.overhead_s"] = m.pop("traced_wall_s") - untraced_wall
    return m


def layer_self_times(m: dict) -> dict[str, float]:
    """Estimated self time of each layer in one round."""
    return {
        "io": m["io.parse_s"] + m["io.write_s"],
        "drawing": m["drawing.build_s"] + m["drawing.order_s"],
        "planarize": m["planarize.assembly_s"],
        "graph": (m["graph.cut_profile_s"] + m["graph.planarity_s"]
                  + m["graph.decompose_s"]),
        "solvers": m["solvers.dp_self_s"] + m["solvers.brute_s"],
        "gadgets": m["gadgets.build_s"],
    }


def metadata() -> dict:
    import networkx
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    files = sorted((SRC / "cutplanar").rglob("*.py"))
    src_hash = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        src_hash.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"commit": commit, "src_sha256": src_hash.hexdigest()[:16],
            "src_lines": lines, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "networkx": networkx.__version__}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    golden = load_golden()
    jobs = make_jobs(workload, seed, golden["pools"])
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        summary: dict = {"workload": workload, "seed": seed,
                         "jobs": [j.key for j in jobs]}
        metrics: dict[str, float] = {}
        if not trace:
            setups = measure_setup()
            metrics["setup_s"] = statistics.median(setups)
            summary["setup_s_samples"] = setups
        from cutplanar import builtin_gadget
        builtin_gadget("is"), builtin_gadget("ds")
        runner = Runner([Instance(j, workdir, golden["digests"][j.key])
                         for j in jobs])

        walls: list[float] = []
        traced: list[dict] = []
        tr = Tracer()
        start = time.perf_counter()
        while True:
            walls.append(runner.cli_round())
            if trace:
                traced.append(runner.traced_round(tr))
            per_round = (time.perf_counter() - start) / len(walls)
            if time.perf_counter() - start + per_round > seconds:
                break

        q1, med, q3 = _quartiles(walls)
        summary["round_wall_s"] = {"median": med, "q1": q1, "q3": q3,
                                   "samples": len(walls), "rounds": walls}
        if trace:
            rounds = [_derived(m, w) for m, w in zip(traced, walls)]
            for name in rounds[0]:
                metrics[name] = statistics.median(r[name] for r in rounds)
            selfs = layer_self_times(metrics)
            summary["layer_self_s"] = selfs
            summary["dominant_layer"] = max(selfs, key=selfs.get)
            summary["traced_rounds"] = len(rounds)
            spans_path = WORK / f"spans-{workload}-seed{seed}.json"
            tr.dump(str(spans_path))
            summary["spans"] = str(spans_path.relative_to(ROOT))
        else:
            metrics["wall_s"] = med
            metrics["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
        summary["attempted"] = runner.attempted
        summary["fail_share"] = len(runner.failures) / runner.attempted
        summary["failures"] = runner.failures[:20]
        summary["meta"] = metadata()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"summary": summary, "metrics": metrics,
            "attempted": runner.attempted, "failed": len(runner.failures)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import cutplanar
    except ImportError as exc:
        print(f"cannot import cutplanar from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(cutplanar.__file__).resolve().parent != SRC / "cutplanar":
        print(f"cutplanar imported from {cutplanar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in sorted(out["metrics"].items())},
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "summary": out["summary"]}, indent=1))
    print(json.dumps({"summary": out["summary"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
