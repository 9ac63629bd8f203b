"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py [--first-seed 1] [--out perfbench/baseline.json]
                               [--compare OTHER.json]

Run from the root of a source checkout.  Each run is `BENCHMARK.json`'s
command in its own process, one at a time, on every workload for ten seeds;
the workloads are interleaved seed by seed so that a drift in host speed
reaches all of them alike.  For every end-to-end metric the table gives the
median, the quartiles and the spread (q3 - q1) / median against the metric's
bound; a spread above its bound is a problem.  Traced runs on the first two
seeds give the per-layer split and each workload's dominant layer.  The
summary is written to --out; with --compare, each median is also checked
against the median of an earlier summary, within the metric's bound.  The
exit code is 1 when there is any problem.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYERS  # noqa: E402

SEEDS = 10        # untraced runs per workload
TRACE_SEEDS = 2   # traced runs per workload, on the first seeds


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict, float]:
    """(result line, full record, wall seconds) of one benchmark run."""
    start = time.perf_counter()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record, wall


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer_names = {m["name"] for m in spec["per_layer"]}
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))

    values = {w: {m: [] for m in e2e} for w in names}
    diag = {w: {"defect_mean": [], "failed_frac": [], "host_ref_ms": [],
                "attempted": [], "run_wall_s": []} for w in names}
    problems: list[str] = []
    for seed in seeds:
        for w in names:
            result, record, wall = run_once(command, w, seed, seconds, 0)
            if set(result["metrics"]) != set(e2e):
                problems.append(f"{w}: metrics {sorted(result['metrics'])} != BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} seed {seed}: {record['failures'][:3]}")
            for m, v in result["metrics"].items():
                values[w][m].append(v["value"])
            for key in ("defect_mean", "failed_frac", "host_ref_ms", "attempted"):
                diag[w][key].append(record[key])
            diag[w]["run_wall_s"].append(wall)
            print(f"{w:22s} seed {seed:3d}  " + "  ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
                + f"  n={result['attempted']}  wall={wall:.1f}s", flush=True)

    layers: dict[str, dict] = {w: {} for w in names}
    split: dict[str, dict] = {}
    for w in names:
        per_run, setup_only = [], set()
        for seed in seeds[:TRACE_SEEDS]:
            result, record, _wall = run_once(command, w, seed, seconds, 1)
            if set(result["metrics"]) != per_layer_names:
                problems.append(f"{w}: traced metrics differ from BENCHMARK.json per_layer")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} seed {seed} traced: {record['failures'][:3]}")
            per_run.append({m: v["value"] for m, v in result["metrics"].items()})
            setup_only.update(record["setup_only_layers"])
        if not per_run:
            continue
        layers[w] = {m: statistics.median([r[m] for r in per_run]) for m in per_run[0]}
        self_ms = {layer.name: layers[w][f"{layer.name}.self_ms"] for layer in LAYERS
                   if layer.name not in setup_only}
        total = sum(self_ms.values())
        shares = {k: v / total for k, v in sorted(self_ms.items(), key=lambda kv: -kv[1])
                  if v / total >= 0.005}
        split[w] = {"dominant": next(iter(shares)), "request_ms": total, "shares": shares,
                    "setup_only_layers": sorted(setup_only)}

    print(f"\nend-to-end over seeds {seeds[0]}..{seeds[-1]}, {seconds} s per run")
    summary: dict[str, dict] = {}
    for w in names:
        summary[w] = {}
        for m, meta in e2e.items():
            s = summarise(values[w][m], meta["bound"])
            summary[w][m] = s
            flag = ("" if s["spread"] <= meta["bound"] / 3 else
                    "  <-- spread above bound/3" if s["spread"] <= meta["bound"] else
                    "  <-- SPREAD ABOVE BOUND")
            if s["spread"] > meta["bound"]:
                problems.append(f"{w} {m}: spread {s['spread']:.3f} above bound {meta['bound']}")
            print(f"  {w:22s} {m:16s} median {s['median']:10.4f} {meta['unit']:4s} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.3f} "
                  f"(bound {meta['bound']}){flag}")
        print(f"  {w:22s} defect_mean {diag[w]['defect_mean']}  failed_frac "
              f"{max(diag[w]['failed_frac'])}")
        if w in split:
            dominant = split[w]["dominant"]
            print(f"  {w:22s} dominant layer {dominant} ({split[w]['shares'][dominant]:.0%})")

    against: dict[str, dict] = {}
    if args.compare:
        other = json.loads(Path(args.compare).read_text())["end_to_end"]
        print(f"\nmedians against {args.compare}")
        for w in names:
            for m, meta in e2e.items():
                if w not in other:
                    continue
                a, b = other[w][m]["median"], summary[w][m]["median"]
                worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
                against.setdefault(w, {})[m] = {"first_median": a, "second_median": b,
                                                "worse_by": worse, "bound": meta["bound"]}
                verdict = "ok" if worse <= meta["bound"] else "WORSE THAN BOUND"
                print(f"  {w:22s} {m:16s} {a:10.4f} -> {b:10.4f}  worse by {worse:+.3f}  {verdict}")
                if worse > meta["bound"]:
                    problems.append(f"{w} {m}: second median worse by {worse:.3f}")

    doc = {
        "generated_by": " ".join(["python3", "perfbench/suite.py", *sys.argv[1:]]),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine(), "processor": platform.processor()},
        "run_seconds": seconds, "seeds": seeds, "trace_seeds": seeds[:TRACE_SEEDS],
        "end_to_end": summary, "diagnostics": diag, "per_layer": layers,
        "measured_split": split, "against_baseline": against,
        "problems": problems,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
