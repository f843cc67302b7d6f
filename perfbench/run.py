"""Benchmark of the clfmetrics command-line tool on one seeded workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload labels-1m --seed 1 --seconds 40 --trace 0

The run writes the workload's input files under .perfbench_work/, then drives
``python3 -m clfmetrics`` from ./src as a closed loop: one client, one child
process at a time, each started only after the previous one exited. Every
output is checked against the generator's exact reference (see workloads.py).

--trace 0 measures end-to-end metrics with no instrumentation; their timings
are scaled by reference.py, timed through the same run (see end_to_end). --trace 1
alternates plain invocations with traced ones (see tracer.py) and reports
per-layer self times; the difference between the two is the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A run whose ./src holds no clfmetrics package exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE_S = 0.08  # end-to-end timings are seconds at the speed where reference.py takes this
TIMEOUT_S = 60.0  # one invocation; the slowest takes about 5 s
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# Per-layer metrics and their units; README.md says what each should move, and where.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "ingest.read_s": "s",
    "ingest.rows": "count",
    "ingest.bytes": "B",
    "ingest.rows_per_s": "1/s",
    "ingest.peak_mb": "MiB",
    "confusion.tally_s": "s",
    "confusion.build_s": "s",
    "proba.record_s": "s",
    "proba.harden_s": "s",
    "proba.xent_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.evaluate_calls": "count",
    "report.compare_s": "s",
    "report.render_s": "s",
    "report.bytes_out": "B",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.work_s": "s",
}
# Span name -> metric; any other span counts towards its layer's default metric.
SPAN_METRIC = {
    "cli.import": "cli.import_s",
    "confusion.ConfusionMatrix": "confusion.build_s",
    "proba.ProbRecord": "proba.record_s",
    "proba.xent_dataset": "proba.xent_s",
    "report.compare_reports": "report.compare_s",
}
LAYER_METRIC = {
    "cli": "cli.self_s",
    "ingest": "ingest.read_s",
    "confusion": "confusion.tally_s",
    "proba": "proba.harden_s",
    "metrics": "metrics.evaluate_s",
    "report": "report.render_s",
}


@dataclass
class Invocation:
    wall: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts CLI children one at a time, through spawner.py, and tallies which failed."""

    def __init__(self, root: Path, work: Path, workload: workloads.Workload):
        self.work = work
        self.workload = workload
        env = {k: v for k, v in os.environ.items() if not k.startswith("CLFMETRICS_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root,
        )
        self.attempted = 0
        self.failed = 0

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.spawner.terminate()  # kills the child it is waiting for, too
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def spawn(self, cmd: list[str]) -> Invocation:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        request = "\0".join([str(TIMEOUT_S), str(out_path), str(err_path), *cmd])
        self.spawner.stdin.write(request.encode() + b"\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline().split()
        if len(reply) != 3:
            raise RuntimeError("spawner.py stopped without a reply")
        code, wall, rss_kib = int(reply[0]), float(reply[1]), int(reply[2])
        return Invocation(wall, code, rss_kib / 1024, out_path.read_bytes(), err_path.read_bytes())

    def cli(self, args: list[str]) -> Invocation:
        return self.spawn([sys.executable, "-m", "clfmetrics", *args])

    def record(self, run: Invocation, errors: list[str]) -> bool:
        """Count one attempted invocation; a non-zero exit, traceback or wrong output fails it."""
        if run.code != 0:
            errors = [f"exit code {run.code}", *errors]
        if b"Traceback" in run.stderr:
            errors = ["traceback on stderr", *errors]
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED: {'; '.join(errors)[:500]}", file=sys.stderr)
            sys.stderr.write(run.stderr.decode("utf-8", "replace")[-2000:])
        return not errors

    def evaluate(self) -> Invocation:
        run = self.cli(self.workload.argv)
        self.record(run, workloads.check_output(self.workload, run.stdout))
        return run

    def reference(self) -> float:
        """Wall time of one reference.py run, which is not a CLI invocation and is not counted."""
        run = self.spawn([sys.executable, str(HERE / "reference.py")])
        if run.code != 0:
            raise RuntimeError(f"reference.py exited {run.code}: {run.stderr.decode(errors='replace')}")
        return run.wall

    def version(self) -> Invocation:
        run = self.cli(["--version"])
        self.record(run, [] if run.stdout.startswith(b"clfmetrics ") else ["no version line"])
        return run

    def traced(self, run_id: str, memory: bool = False) -> tuple[Invocation, dict | None]:
        spans_path = self.work / f"spans-{run_id}.json"
        mode = ["--memory"] if memory else []
        cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), run_id, *mode, "--", *self.workload.argv]
        run = self.spawn(cmd)
        ok = self.record(run, workloads.check_output(self.workload, run.stdout))
        if not ok or not spans_path.exists():
            return run, None
        trace = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        return run, trace


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it.

    Below about 2 * TAIL_BEYOND samples that percentile would lie under the median,
    so the median is reported instead (the upper one for an even count). Not the
    maximum: the value would jump where the sample count crosses 2 * TAIL_BEYOND,
    which the count of a labels-1m run does as the machine's speed drifts.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def closed_loop(seconds: float, step) -> None:
    """Call step() back to back until the next call would likely end past the deadline."""
    start = time.perf_counter()
    durations: list[float] = []
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        begin = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - begin)


def end_to_end(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics, with every timing scaled to the speed at which reference.py takes REFERENCE_S.

    On a shared 2-vCPU VM the whole machine ran up to 1.8 times slower for minutes at a
    time. In two sets of ten seeds per workload, raw mean wall times spread 10-35%
    (distance between quartiles over median); scaled by the reference timed in the same
    run, two more sets spread 4-13%. The reference runs no clfmetrics code, so a change to the
    package moves the scaled timings by the same share as the raw ones. wall_s is a mean
    because the mean of a run follows its reference more closely than the median of ~7
    probs-200k samples does.

    Each timing is scaled by the reference run of its own step, timed right after it, not
    by the run's median reference, because the speed also drifts within a run. In a
    12-minute log of labels-1m, groups of 8 invocations spread 6% scaled step by step
    and 10% scaled by the group's median reference; --version spread 2.5% and 6%. On
    probs-200k, one reference per step tracked the CLI as well as the median of three.
    """
    raw: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    raw_setup: list[float] = []
    setup: list[float] = []
    reference: list[float] = []

    def step(i: int) -> None:
        run = runner.evaluate()
        raw.append(run.wall)
        rss.append(run.rss_mb)
        raw_setup.append(runner.version().wall)
        reference.append(runner.reference())
        walls.append(run.wall * REFERENCE_S / reference[-1])
        setup.append(raw_setup[-1] * REFERENCE_S / reference[-1])

    closed_loop(seconds, step)
    tail_value, tail_pct = tail(walls)
    units = runner.workload.units * len(walls)
    metrics = {
        "wall_s": (statistics.fmean(walls), "s"),
        "wall_tail_s": (tail_value, "s"),
        "units_per_s": (units / sum(walls), "1/s"),
        "peak_rss_mb": (max(rss), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = {
        "wall_s": f"mean of {len(walls)} invocations; raw mean {statistics.fmean(raw):.4f} s, median {statistics.median(raw):.4f} s",
        "wall_tail_s": f"p{tail_pct:.1f} of {len(walls)} invocations",
        "units_per_s": f"{units} units",
        "peak_rss_mb": f"max over {len(rss)} children, each from os.wait4",
        "setup_s": f"median of {len(setup)} --version invocations; raw {statistics.median(raw_setup):.4f} s",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:12s} {value:12.4f} {unit:4s} {notes[name]}")
    print(f"timings scaled step by step; reference.py took {statistics.median(reference):.4f} s (median of {len(reference)})")
    print(f"raw wall times in order: {' '.join(f'{w:.3f}' for w in raw)}")
    print(f"scaled wall times in order: {' '.join(f'{w:.3f}' for w in walls)}")
    print(f"fail_share   {runner.failed / runner.attempted:12.4f}      {runner.failed} of {runner.attempted} invocations")
    return metrics


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer self times of one traced run: span time minus its children's time."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, busy, calls in spans:
        if parent is not None:
            child[parent] += busy
    values: dict[str, float] = defaultdict(float)
    calls_of: Counter = Counter()
    for index, (name, start, end, parent, busy, calls) in enumerate(spans):
        metric = SPAN_METRIC.get(name) or LAYER_METRIC[name.split(".", 1)[0]]
        values[metric] += busy - child[index]
        calls_of[name] += calls
    values["trace.self_sum_s"] = sum(v for k, v in values.items() if k != "cli.import_s")
    counters = trace["counters"]
    values["ingest.rows"] = counters["ingest.rows"]
    values["ingest.bytes"] = counters["ingest.bytes"]
    values["report.bytes_out"] = counters["report.bytes_out"]
    values["metrics.evaluate_calls"] = calls_of["metrics.evaluate"]
    if values["ingest.read_s"] > 0:
        values["ingest.rows_per_s"] = values["ingest.rows"] / values["ingest.read_s"]
    return values


def per_layer(runner: Runner, seconds: float, run_tag: str) -> dict:
    _, memory_trace = runner.traced(f"{run_tag}-memory", memory=True)
    setup: list[float] = []
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []

    def pair(i: int) -> None:
        # Alternate which side goes first, so drift in machine speed hits both alike.
        for side in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            if side == "plain":
                plain.append(runner.evaluate().wall)
                continue
            run, trace = runner.traced(f"{run_tag}-{i}")
            traced.append(run.wall)
            if trace is not None:
                layers.append(layer_metrics(trace))
        setup.append(runner.version().wall)

    closed_loop(seconds, pair)
    values = {name: statistics.median(m.get(name, 0.0) for m in layers) if layers else 0.0 for name in PER_LAYER}
    peak = memory_trace["ingest_peak_bytes"] if memory_trace else 0
    values["ingest.peak_mb"] = peak / 2**20
    values["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(plain)
    values["trace.work_s"] = statistics.fmean(plain) - statistics.median(setup)
    print(f"{len(layers)} traced and {len(plain)} plain invocations, alternating; layer medians below")
    for name, unit in PER_LAYER.items():
        print(f"{name:24s} {values[name]:14.4f} {unit}")
    gap = values["trace.work_s"] - values["trace.self_sum_s"]
    print(
        f"accounting: plain wall_s - setup_s = {values['trace.work_s']:.4f} s, layer self times sum to "
        f"{values['trace.self_sum_s']:.4f} s, gap {gap:+.4f} s, tracing overhead {values['trace.overhead_s']:+.4f} s"
    )
    print(f"fail_share   {runner.failed / runner.attempted:.4f}  {runner.failed} of {runner.attempted} invocations")
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "clfmetrics" / "cli.py").is_file():
        print(f"perfbench: no clfmetrics sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        start = time.perf_counter()
        workload = workloads.generate(args.workload, args.seed, work)
        size = sum(path.stat().st_size for path in workload.files)
        print(
            f"workload {workload.name} seed {args.seed}: {workload.units} units per invocation, "
            f"{size / 1e6:.1f} MB of input, generated in {time.perf_counter() - start:.2f} s"
        )
        with Runner(root, work, workload) as runner:
            runner.evaluate()  # untimed: warms the page cache and the bytecode cache
            if args.trace:
                metrics = per_layer(runner, args.seconds, f"{args.workload}-{args.seed}")
            else:
                metrics = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
