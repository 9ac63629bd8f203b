"""Run one benchmark workload against `rainbowmatch.cli.main`, in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  One client sends its next request when the previous one returns (a
closed loop), in this one process, with no extra threads.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced passes over the request pool and prints the per-layer metrics from
the traced requests, plus the tracing overhead.  Either way the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; a fuller record (latencies, SHA-256 of every instance file and
report, failure reasons, the host-speed reference, and in a traced run the
spans) is written under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from layers import metric_units
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Instance

# Fixes the report timestamp and zeroes elapsed_ms, so that repeats of one
# request must give identical report bytes.
SOURCE_DATE_EPOCH = "1700000000"

END_TO_END_UNITS = {"setup_s": "s", "req_per_s": "1/s", "latency_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop; diagnostic, never rescales a metric."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000.0


def purge_package() -> None:
    for name in [m for m in sys.modules if m == "rainbowmatch" or m.startswith("rainbowmatch.")]:
        del sys.modules[name]


def execute(cli, steps) -> list[tuple[int, bytes]]:
    """Run each step's argv through cli.main, up to the first non-zero exit.

    Returns the exit code and stdout of each step that ran.
    """
    out = []
    for step in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(step.argv))
        out.append((rc, buf.getvalue().encode()))
        if rc != 0:
            break
    return out


class Run:
    def __init__(self, workload, seconds: float, tracer, work: Path, src: Path):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.work = work
        self.src = src
        self.setup_s: list[float] = []
        self.instance_sha: dict[str, str] = {}
        self.setup_consistent = True
        self.latencies: list[float] = []
        self.traced: list[bool] = []
        self.defects: list[int] = []
        self.keys: list[str] = []
        self.reasons: list[str | None] = []
        self.peak_rss_mb = 0.0
        self.fingerprints: dict[str, tuple] = {}
        self._first_report: dict[str, tuple] = {}
        self._setup_sha: dict[str, str] = {}
        self.setup_only_layers: list[str] = []

    def set_up(self, directory: Path):
        """One set-up: import the package afresh and write the inputs to directory.

        Returns the freshly imported cli module.  Every set-up must write the
        same bytes as the first.
        """
        tracer = self.tracer
        purge_package()
        directory.mkdir(parents=True)
        start = perf_counter()
        cli = importlib.import_module("rainbowmatch.cli")
        if tracer is not None:
            tracer.install()
            tracer.request = f"setup-{len(self.setup_s)}"
        try:
            files = self.workload.build(cli, directory)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.setup_s.append(perf_counter() - start)
        if not Path(cli.__file__).resolve().is_relative_to(self.src):
            raise RuntimeError(f"rainbowmatch was imported from {cli.__file__}, not {self.src}")
        hashes = {f.name: sha256(f.read_bytes()) for f in files}
        if len(self.setup_s) == 1:
            self.instance_sha.update(hashes)
            self._setup_sha = hashes
        elif hashes != self._setup_sha:
            self.setup_consistent = False
        return cli

    def spare_set_up(self):
        """A further set-up into a scratch directory, which is then removed."""
        directory = self.work / f"setup-{len(self.setup_s)}"
        cli = self.set_up(directory)
        shutil.rmtree(directory)
        return cli

    def _screen(self, request, results) -> str | None:
        """Failure reason known as soon as a request returns, or None.

        Repeats must reproduce the first run's input and report bytes.  The
        first run's reports are kept for `check_outputs`, which runs after the
        loop so that parsing the instances does not count in `peak_rss_mb`.
        """
        for step, (rc, _report) in zip(request.steps, results):
            if rc != 0:
                return f"{step.argv[0]} exited {rc}"
        fingerprint = []
        for step, (_rc, report) in zip(request.steps, results):
            inst_sha = None
            if step.instance is not None:
                with open(step.instance, "rb") as f:
                    inst_sha = self.instance_sha[step.instance.name] = (
                        hashlib.file_digest(f, "sha256").hexdigest())
            fingerprint.append((inst_sha, sha256(report)))
        fingerprint = tuple(fingerprint)
        if self.fingerprints.setdefault(request.key, fingerprint) != fingerprint:
            return "input or report bytes differ from the first run of this request"
        self._first_report.setdefault(request.key, (request, results))
        return None

    def check_outputs(self) -> None:
        """Check each request's first reports in full; the verdict stands for its repeats.

        A request's defect is the sum over its checked steps of the colours
        missing from the returned matching.
        """
        parsed: dict[Path, Instance] = {}
        verdicts = {}
        for key, (request, results) in self._first_report.items():
            reason, defect = None, 0
            for step, (_rc, report) in zip(request.steps, results):
                if step.verdict is None:
                    continue
                try:
                    inst = None
                    if step.instance is not None:
                        if step.instance not in parsed:
                            data = step.instance.read_bytes()
                            parsed[step.instance] = Instance.parse(data)
                        inst = parsed[step.instance]
                    step_reason, step_defect = step.verdict(json.loads(report), inst)
                except (KeyError, TypeError, ValueError) as exc:
                    step_reason, step_defect = (
                        f"malformed output: {type(exc).__name__}: {exc}", 0)
                defect += step_defect
                if step_reason is not None and reason is None:
                    reason = f"{' '.join(step.argv[:3])}: {step_reason}"
            verdicts[key] = (reason, defect)
        for i, key in enumerate(self.keys):
            if key not in verdicts:
                continue
            reason, defect = verdicts[key]
            if self.reasons[i] is None:
                self.reasons[i] = reason
            self.defects.append(defect)

    @property
    def failures(self) -> list[str]:
        return [f"request {i} ({key}): {reason}"
                for i, (key, reason) in enumerate(zip(self.keys, self.reasons))
                if reason is not None]

    def loop(self) -> None:
        """Set up, then send requests for `seconds` of request time.

        The first set-up writes the inputs the requests use.  The others are
        spread over the run, between requests and off its clock, so that a
        slow spell of the host does not decide the set-up median alone.  A
        traced run traces every other pass over the pool, so each request
        runs both traced and untraced.
        """
        tracer = self.tracer
        inputs = self.work / "inputs"
        cli = self.set_up(inputs)
        pool = self.workload.pool(inputs)
        setups = self.workload.setups
        start = perf_counter()
        i = 0
        while i == 0 or perf_counter() - start < self.seconds:
            done = len(self.setup_s)
            if done < setups and perf_counter() - start >= done * self.seconds / setups:
                t0 = perf_counter()
                cli = self.spare_set_up()
                start += perf_counter() - t0
            request = pool[i % len(pool)]
            traced = tracer is not None and (i // len(pool)) % 2 == 0
            if traced:
                tracer.install()
                tracer.request = f"request-{i}"
            t0 = perf_counter()
            try:
                results = execute(cli, request.steps)
                raised = None
            except Exception as exc:  # a raising request is a failed request
                results, raised = [], f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            if traced:
                tracer.uninstall()
            self.latencies.append(elapsed)
            self.traced.append(traced)
            self.keys.append(request.key)
            self.reasons.append(raised or self._screen(request, results))
            i += 1
        while len(self.setup_s) < setups:
            self.spare_set_up()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def end_to_end(self) -> dict[str, float]:
        return {"setup_s": statistics.median(self.setup_s),
                "req_per_s": len(self.latencies) / sum(self.latencies),
                "latency_p50_ms": statistics.median(self.latencies) * 1000.0,
                "peak_rss_mb": self.peak_rss_mb}

    def per_layer(self) -> dict[str, float]:
        table = self.tracer.per_request()
        traced = [f"request-{i}" for i, t in enumerate(self.traced) if t]
        setups = [f"setup-{r}" for r in range(len(self.setup_s))]
        metrics, self.setup_only_layers = layer_metrics(table, traced, setups)
        # 1 - (traced req/s) / (untraced req/s), over the requests that ran both ways
        on, off = defaultdict(list), defaultdict(list)
        for key, t, tr in zip(self.keys, self.latencies, self.traced):
            (on if tr else off)[key].append(t)
        both = [k for k in on if k in off]
        metrics["trace.overhead_frac"] = (
            1.0 - sum(statistics.fmean(off[k]) for k in both)
            / sum(statistics.fmean(on[k]) for k in both) if both else 0.0)
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "rainbowmatch" / "cli.py").is_file():
        print(f"error: no rainbowmatch sources under {src}", file=sys.stderr)
        return 2
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    sys.path.insert(0, str(src))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = root / ".perfbench"
    work = out_dir / f"{tag}-work-{os.getpid()}"
    host_ms = host_reference_ms()
    tracer = Tracer() if args.trace else None
    run = Run(WORKLOADS[args.workload](args.seed), args.seconds, tracer, work, src)
    try:
        run.loop()
        run.check_outputs()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = run.per_layer() if tracer is not None else run.end_to_end()
    units = metric_units() if tracer is not None else END_TO_END_UNITS
    attempted, failed = len(run.latencies), len(run.failures)
    correct = failed == 0 and run.setup_consistent
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted,
        "defect_mean": statistics.fmean(run.defects) if run.defects else None,
        "host_ref_ms": host_ms, "metrics": metrics, "setup_s": run.setup_s,
        "peak_rss_mb_after_checks":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setups_identical": run.setup_consistent,
        "latency_ms": [t * 1000.0 for t in run.latencies], "traced": run.traced,
        "instance_sha256": run.instance_sha,
        "report_sha256": {k: [step[1] for step in v]
                          for k, v in sorted(run.fingerprints.items())},
        "failures": run.failures,
        "setup_only_layers": run.setup_only_layers,
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{tag}-spans.jsonl")

    print(f"# {args.workload} seed={args.seed}: {attempted} requests, {failed} failed, "
          f"defect_mean={record['defect_mean']}, host_ref_ms={host_ms:.2f}")
    for reason in run.failures[:10]:
        print(f"# FAILED {reason}")
    if not run.setup_consistent:
        print("# FAILED set-ups wrote different instance bytes")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
