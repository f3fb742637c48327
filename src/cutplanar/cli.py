"""Command-line front end.

Commands: cutwidth, planarize, solve, certify, export.  Every command
prints a JSON run report (schema 1) to stdout as one line of compact
JSON; files are written next to the inputs or to the requested paths.
Each input file is read once, by _read: the report's "inputs" maps every
file the command read, in read order, to the digest of the bytes it
parsed, so a run whose outputs overwrite its inputs still names them.
Exit codes: 0 success, 2 parse error, 3 precondition violation (also an
output file that cannot be written), 4 resource/oracle limit, 5
verification failure, including a broken construction invariant
(InvariantError).  FAILURES maps each error family to its exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import io as cio
from .drawing import build_arc_drawing, count_crossings, to_svg
from .errors import (CutplanarError, InvalidLayoutError, InvariantError,
                     OracleLimitError, ParseError, PreconditionError,
                     ResourceLimitError)
from .gadgets import builtin_gadget, certify_gadget
from .graph import cut_profile, exact_cutwidth
from .planarize import planarize, verify_planarization
from . import solvers

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_VERIFY = 5

# the most crossings an SVG export draws; the drawing's sweep, and the
# file with one marker per crossing, grow with them
SVG_CROSSING_LIMIT = 10**5


def _report(argv: list[str], args, results: dict, t0: float,
            seed: int | None = None) -> dict:
    rep = {
        "schema": 1,
        "command": " ".join(argv),
        "inputs": args.inputs,
        "results": results,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    if seed is not None:
        rep["seed"] = seed
    return rep


def _read(args, path: str) -> str:
    """The text of an input file; the digest of the same bytes goes into
    the report's inputs, in read order."""
    text, digest = cio.read_input(path)
    args.inputs[path] = digest
    return text


def cmd_cutwidth(args) -> dict:
    g = cio.parse_graph(_read(args, args.graph))
    if args.layout:
        layout = cio.parse_layout(_read(args, args.layout), g)
        prof = cut_profile(g, layout)
        return {"mode": "layout", "widths": prof.width_array.tolist(),
                "width": prof.max_width}
    if args.exact:
        w, layout = exact_cutwidth(g)
        return {"mode": "exact", "width": w,
                "layout": [v + 1 for v in layout.order]}
    layout = solvers.heuristic_layout(g, seed=args.seed)
    prof = cut_profile(g, layout)
    return {"mode": "heuristic", "width": prof.max_width,
            "layout": [v + 1 for v in layout.order]}


def cmd_planarize(args) -> dict:
    g = cio.parse_graph(_read(args, args.graph))
    layout = cio.parse_layout(_read(args, args.layout), g)
    gadget = builtin_gadget(args.problem)
    res = planarize(g, layout, args.t, gadget)
    prefix = args.out_prefix or args.graph
    graph_out = prefix + ".planarized"
    layout_out = prefix + ".planarized.layout"
    cio.write_text(graph_out, cio.write_graph(res.g_prime))
    cio.write_text(layout_out, cio.write_layout(res.layout_prime))
    out = {
        "problem": args.problem,
        "crossings_replaced": res.crossings_replaced,
        "t": res.t,
        "t_prime": res.t_prime,
        "width_in": res.width_in,
        "width_out": res.width_out,
        "gadget_width": gadget.width,
        "n_prime": res.g_prime.n,
        "m_prime": res.g_prime.m,
        "cut_profile": res.cut_profile.width_array.tolist(),
        "files": {"graph": graph_out, "layout": layout_out},
    }
    if args.verify:
        ok = verify_planarization(res)
        out["verified"] = ok
        if not ok:
            raise _VerificationFailed(out)
    return out


class _VerificationFailed(Exception):
    def __init__(self, report):
        self.report = report


def cmd_solve(args) -> dict:
    g = cio.parse_graph(_read(args, args.graph))
    brute, dp = solvers.SOLVERS[args.problem]
    if args.algo == "brute":
        return {"problem": args.problem, "algo": "brute", "optimum": brute(g)}
    if args.layout:
        layout = cio.parse_layout(_read(args, args.layout), g)
    else:
        layout = solvers.heuristic_layout(g, seed=args.seed)
    rep = dp(g, layout)
    return {
        "problem": args.problem, "algo": "dp", "optimum": rep.optimum,
        "max_live_states": rep.max_live_states,
        "bag_count": rep.bag_count, "width_used": rep.width_used,
    }


def cmd_certify(args) -> dict:
    gadget = cio.parse_gadget(_read(args, args.gadget))
    out = certify_gadget(gadget, args.hosts, args.seed)
    if out["verdict"] != "PASS":
        raise _VerificationFailed(out)
    return out


def cmd_export(args) -> dict:
    g = cio.parse_graph(_read(args, args.graph))
    if args.format == "dot":
        content = cio.write_dot(g)
        default_out = args.graph + ".dot"
    else:
        if not args.layout:
            raise PreconditionError("svg export needs a layout file")
        layout = cio.parse_layout(_read(args, args.layout), g)
        crossings = count_crossings(g, layout)
        if crossings > SVG_CROSSING_LIMIT:
            raise ResourceLimitError(
                f"arc drawing has {crossings} crossings, SVG export limit "
                f"is {SVG_CROSSING_LIMIT}")
        content = to_svg(build_arc_drawing(g, layout))
        default_out = args.graph + ".svg"
    out_path = args.out or default_out
    cio.write_text(out_path, content)
    return {"format": args.format, "file": out_path, "bytes": len(content)}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache    # each build leaves hundreds of objects in cycles
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cutplanar",
        description="Cutwidth-preserving planarization and exact IS/DS solvers")
    sub = p.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("cutwidth", help="cut profile / exact / heuristic width")
    pc.add_argument("graph")
    pc.add_argument("layout", nargs="?")
    pc.add_argument("--exact", action="store_true")
    pc.add_argument("--seed", type=int, default=0)

    pp = sub.add_parser("planarize", help="replace drawing crossings by gadgets")
    pp.add_argument("graph")
    pp.add_argument("layout")
    pp.add_argument("--problem", choices=solvers.SOLVERS, required=True)
    pp.add_argument("--t", type=int, required=True)
    pp.add_argument("--verify", action="store_true")
    pp.add_argument("--out-prefix")

    ps = sub.add_parser("solve", help="exact optimum via brute force or DP")
    ps.add_argument("graph")
    ps.add_argument("layout", nargs="?")
    ps.add_argument("--problem", choices=solvers.SOLVERS, required=True)
    ps.add_argument("--algo", choices=("dp", "brute"), default="dp")
    ps.add_argument("--seed", type=int, default=0)

    pg = sub.add_parser("certify", help="certify a gadget JSON file")
    pg.add_argument("gadget")
    pg.add_argument("--hosts", type=_positive_int, default=25)
    pg.add_argument("--seed", type=int, default=0)

    pe = sub.add_parser("export", help="DOT or SVG arc diagram")
    pe.add_argument("graph")
    pe.add_argument("layout", nargs="?")
    pe.add_argument("--format", choices=("dot", "svg"), required=True)
    pe.add_argument("-o", "--out")
    return p


# (error types, exit code, message prefix) of each failure family; the
# first row that matches wins
FAILURES = (
    (ParseError, EXIT_PARSE, "parse error: "),
    ((PreconditionError, InvalidLayoutError), EXIT_PRECONDITION,
     "precondition: "),
    ((OracleLimitError, ResourceLimitError), EXIT_RESOURCE,
     "resource limit: "),
    (InvariantError, EXIT_VERIFY, "invariant: "),
    (CutplanarError, EXIT_PRECONDITION, ""),
)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args.inputs = {}
    t0 = time.perf_counter()
    try:
        # looked up per call, not kept in the parser that is built once
        results = globals()[f"cmd_{args.cmd}"](args)
        code = 0
    except _VerificationFailed as exc:
        results = exc.report
        code = EXIT_VERIFY
    except CutplanarError as exc:
        code, prefix = next(row[1:] for row in FAILURES
                            if isinstance(exc, row[0]))
        print(json.dumps({"schema": 1, "error": f"{prefix}{exc}"}))
        return code
    print(json.dumps(_report(argv, args, results, t0,
                             seed=getattr(args, "seed", None))))
    return code


if __name__ == "__main__":
    sys.exit(main())
