"""Command-line harness: generate / solve / verify / sweep.

All randomness flows from one 64-bit seed (flag, or RAINBOW_SEED when the
flag is absent).  Reports embed a run manifest; with SOURCE_DATE_EPOCH set
the output bytes are a pure function of the command line (with each file
argument by its base name) and the input files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from datetime import datetime, timezone
from typing import Callable, NamedTuple, Optional

from . import __version__
from .errors import InvalidInstance, RainbowError, RefusedReport
from .generators import FAMILIES
from .graph import (ColorClassKind, ColoredMultigraph, is_rainbow_matching,
                    load_instance, save_instance)
from .seeding import derive_seed
from .solvers import (SolveReport, alspach_solve, augment_flagged, default_p,
                      exact_max_rainbow, greedy_maximal, sampling_solve)
from .verification import PIPELINES, THEOREMS, check, sweep_surplus

def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    when = (datetime.fromtimestamp(int(epoch), tz=timezone.utc)
            if epoch else datetime.now(tz=timezone.utc))
    return when.isoformat(timespec="seconds")


def build_manifest(argv: list[str], seed: int,
                   input_digest: Optional[str] = None) -> dict:
    return {
        "command_line": " ".join(argv),
        "tool_version": __version__,
        "global_seed": seed,
        "timestamp": _timestamp(),
        "input_digest": input_digest,
    }


def _csv_rows(doc: dict) -> tuple[list[str], list[list]]:
    if "cells" in doc:  # theorem check
        header = ["n", "trial", "pass", "margin", "instance_seed", "solver_seed"]
        return header, [[c[k] for k in header] for c in doc["cells"]]
    if "rows" in doc:  # sweep table
        header = ["family", "n", "surplus", "trials", "success_fraction"]
        return header, [[r[k] for k in header] for r in doc["rows"]]
    header = ["size", "defect", "seed", "elapsed_ms", "optimal"]
    return header, [[doc[k] for k in header]]


def emit(doc: dict, fmt: str, path: Optional[str]) -> None:
    """Serialize a report deterministically; files end with a newline."""
    if fmt == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header, rows = _csv_rows(doc)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("RAINBOW_SEED", 0))


# each command's id-specific options, name -> default; the chosen id's record
# names those it reads, and a value other than the default for any other is refused
_ID_OPTIONS = {"generate": dict.fromkeys(("n", "v", "m", "d", "extra"), 0),
               "solve": {"p": "auto", "node_budget": None}}


def _refuse_unread(args: argparse.Namespace, id_kind: str, ident: str,
                   reads: tuple[str, ...]) -> None:
    for name, default in _ID_OPTIONS[args.command].items():
        if name not in reads and getattr(args, name) != default:
            raise ValueError(f"{id_kind} {ident!r} does not read "
                             f"--{name.replace('_', '-')}")


def _cmd_generate(args: argparse.Namespace, argv: list[str]) -> int:
    kind, make, reads = FAMILIES[args.family]
    _refuse_unread(args, "family", args.family, reads)
    save_instance(make(args, _resolve_seed(args)), args.out, kind)
    return 0


# solve's entries: (graph, args, seed) -> SolveReport.  They look the solvers up
# as module globals at call time, so wrappers installed here see them.
def _solve_greedy(graph: ColoredMultigraph, args: argparse.Namespace,
                  seed: int) -> SolveReport:
    matching = greedy_maximal(graph)
    return SolveReport.single_phase("greedy", matching, graph.n_colors, seed)


def _solve_augment(graph: ColoredMultigraph, args: argparse.Namespace,
                   seed: int) -> SolveReport:
    matching = greedy_maximal(graph)
    matching, _ = augment_flagged(graph, matching, derive_seed(seed, "augment"))
    return SolveReport.single_phase("greedy+augment", matching, graph.n_colors, seed)


def _solve_sampling(graph: ColoredMultigraph, args: argparse.Namespace,
                    seed: int) -> SolveReport:
    p = default_p(graph.n_colors) if args.p == "auto" else float(args.p)
    return sampling_solve(graph, p, seed)


def _solve_alspach(graph: ColoredMultigraph, args: argparse.Namespace,
                   seed: int) -> SolveReport:
    return alspach_solve(graph, seed)


def _solve_exact(graph: ColoredMultigraph, args: argparse.Namespace,
                 seed: int) -> SolveReport:
    _, matching, certified = exact_max_rainbow(graph, args.node_budget)
    return SolveReport.single_phase("exact", matching, graph.n_colors, seed,
                                    optimal=certified)


class Solver(NamedTuple):
    entry: Callable[[ColoredMultigraph, argparse.Namespace, int], SolveReport]
    reads: tuple[str, ...] = ()  # the solve options the entry reads
    kinds: Optional[tuple[ColorClassKind, ...]] = None  # None: every kind


SOLVERS = {"greedy": Solver(_solve_greedy), "augment": Solver(_solve_augment),
           "sampling": Solver(_solve_sampling, ("p",)),
           "alspach": Solver(_solve_alspach, kinds=(ColorClassKind.TWO_FACTOR,
                                                    ColorClassKind.ARBITRARY)),
           "exact": Solver(_solve_exact, ("node_budget",))}


def _cmd_solve(args: argparse.Namespace, argv: list[str]) -> int:
    solver = SOLVERS[args.solver]
    _refuse_unread(args, "solver", args.solver, solver.reads)
    seed = _resolve_seed(args)
    graph, kind, digest = load_instance(args.instance)
    if solver.kinds is not None and kind not in solver.kinds:
        raise InvalidInstance(
            f"{args.instance}: solver {args.solver!r} takes kind "
            f"{' or '.join(k.value for k in solver.kinds)}, not {kind.value}")
    start = time.perf_counter()
    report = solver.entry(graph, args, seed)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if "SOURCE_DATE_EPOCH" in os.environ:  # the report bytes must not depend on it
        elapsed_ms = 0
    ok, why = is_rainbow_matching(graph, report.matching)
    if not ok:
        raise RefusedReport(f"solver {args.solver!r} returned a matching that is "
                            f"not rainbow: {why}")

    doc = report.to_json_dict(graph, elapsed_ms)
    doc["manifest"] = build_manifest(argv, seed, digest)
    emit(doc, args.format, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace, argv: list[str]) -> int:
    seed = _resolve_seed(args)
    result = check(args.theorem, args.n, args.trials, seed)
    doc = result.to_json_dict()
    doc["manifest"] = build_manifest(argv, seed)
    emit(doc, args.format, args.out)
    return 0 if result.passed else 1


def _cmd_sweep(args: argparse.Namespace, argv: list[str]) -> int:
    seed = _resolve_seed(args)
    rows = sweep_surplus(args.family, args.n, args.surplus, args.trials, seed)
    doc = {"family": args.family, "n": args.n, "trials": args.trials,
           "rows": rows, "manifest": build_manifest(argv, seed)}
    emit(doc, args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowmatch",
        description="Rainbow-matching generators, solvers, and checkers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a seeded instance file")
    g.add_argument("--family", required=True, choices=list(FAMILIES))
    for name, default in _ID_OPTIONS["generate"].items():
        g.add_argument(f"--{name}", type=int, default=default)
    g.add_argument("-o", "--out", required=True)

    s = sub.add_parser("solve", help="run a solver on an instance file")
    s.add_argument("--solver", required=True, choices=list(SOLVERS))
    s.add_argument("--p", help="sampling probability or 'auto'")
    s.add_argument("--node-budget", type=_positive_int, metavar="N",
                   help="search nodes before the exact solver stops uncertified "
                   "(default: no limit)")
    s.add_argument("-o", "--out", default=None)
    s.add_argument("instance")
    s.set_defaults(**_ID_OPTIONS["solve"])

    v = sub.add_parser("verify", help="run a theorem checker")
    v.add_argument("--theorem", required=True, choices=list(THEOREMS))
    v.add_argument("--n", type=_parse_int_list, default=None,
                   help="comma-separated values (default: desk-scale table)")
    v.add_argument("--trials", type=_positive_int, default=None)
    v.add_argument("-o", "--out", default=None)

    w = sub.add_parser("sweep", help="success fraction across surplus values")
    w.add_argument("--family", required=True, choices=list(PIPELINES))
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--surplus", type=_parse_int_list, required=True)
    w.add_argument("--trials", type=_positive_int, default=20)
    w.add_argument("-o", "--out", default=None)
    for p in (g, s, v, w):
        p.add_argument("--seed", type=int, default=None,
                       help="global seed (default: $RAINBOW_SEED or 0)")
    for p in (s, v, w):  # generate writes an instance file, never a report
        p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: each built parser holds reference cycles
    that only the cyclic GC frees, so main does not build one per call."""
    return build_parser()


def _base_names(argv: list[str], args: argparse.Namespace) -> list[str]:
    """argv with each file argument cut to its base name, so a report's bytes
    do not depend on the work directory; input_digest identifies the input."""
    # longest first: one file's relative path may end another's absolute one
    paths = sorted(filter(None, (getattr(args, "instance", None), args.out)),
                   key=len, reverse=True)
    for i, tok in enumerate(argv):
        p = next((p for p in paths if tok.endswith(p)), None)
        if p is not None:
            argv[i] = tok[:len(tok) - len(p)] + os.path.basename(p)
    return argv


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args, unknown = _parser().parse_known_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 2
    if unknown:  # an unknown option may have taken a positional's place; name it
        stray = next((a for a in unknown if a.startswith("-")), unknown[0])
        print(f"error: unrecognized argument: {stray}", file=sys.stderr)
        return 2
    handlers = {"generate": _cmd_generate, "solve": _cmd_solve,
                "verify": _cmd_verify, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args, ["rainbowmatch"] + _base_names(list(argv), args))
    except (RainbowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
