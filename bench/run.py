#!/usr/bin/env python3
"""qswitch benchmark: four workloads, end to end and per layer.

    python3 bench/run.py --workload timing-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout; qswitch is imported from its `src/`.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  `--workload all` runs every workload
untraced and traced, each in its own process, and prints the tracing
overhead.  Every run also writes its result, and a traced run its spans,
under bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("timing-sweep", "switch-sweep", "clock", "single-runs")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}

#: per-layer metric -> (unit, span whose mean self time it reports, ns -> unit)
SPAN_METRICS = {
    "config.parse_config_us": ("us/call", "config.parse_config", 1e-3),
    "config.with_sweep_value_us": ("us/call", "config.with_sweep_value", 1e-3),
    "spacetime.dilation_difference_ns": ("ns/call", "spacetime.dilation_difference", 1.0),
    "timing.solve_matching_us": ("us/call", "timing.solve_matching", 1e-3),
    "timing.dtau_v_us": ("us/call", "timing.dtau_v", 1e-3),
    "timing.validate_windows_us": ("us/call", "timing.validate_windows", 1e-3),
    "cli.compute_timing_us": ("us/point", "cli.compute_timing", 1e-3),
    "cli.switch_summary_us": ("us/point", "cli.switch_summary", 1e-3),
    "cli.main_timing_ms": ("ms/call", "cli.main_timing", 1e-6),
    "cli.main_switch_ms": ("ms/call", "cli.main_switch", 1e-6),
    "switch_model.interaction_build_us": ("us/operator", "switch_model.interaction_build", 1e-3),
    "switch_model.run_switch_us": ("us/call", "switch_model.run_switch", 1e-3),
    "switch_model.diagonal_measure_us": ("us/call", "switch_model.diagonal_measure", 1e-3),
    "hilbert.apply_us": ("us/call", "hilbert.apply", 1e-3),
    "hilbert.measure_in_basis_us": ("us/call", "hilbert.measure_in_basis", 1e-3),
    "hilbert.project_us": ("us/call", "hilbert.project", 1e-3),
    "trigger.fft_pair_us": ("us/call", "trigger.fft_pair", 1e-3),
}

#: per-layer metrics measured apart from the span table
OTHER_METRICS = {
    "timing.import_ms": "ms",
    "cli.import_ms": "ms",
    "trigger.import_ms": "ms",
    "cli.format_csv_us_per_row": "us/row",
    "cli.csv_bytes_per_row": "bytes",
    "trigger.grid_points": "count",
    "trigger.steps": "count",
    "trigger.numeric_evolve_s": "s",
    "trigger.step_us": "us/step",
    "trigger.grid_mbytes": "MB",
    "trace.ops_per_s": "1/s",
}

PER_LAYER = {name: spec[0] for name, spec in SPAN_METRICS.items()} | OTHER_METRICS

#: the workload's operation rate under the name a user of that command knows
OP_NAMES = {
    "timing-sweep": "points_per_s",
    "switch-sweep": "points_per_s",
    "clock": "clock validations per s (1/clock_s)",
    "single-runs": "runs_per_s",
}

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from qswitch import cli
from qswitch.config import parse_config
from qswitch.spacetime import CODATA2018
for text in json.loads(sys.stdin.read()):
    config = parse_config(text, CODATA2018)
    for rng in config.sweep.ranges:
        rng.values()
    if config.trigger.m is not None:
        cli.trigger_params_from_config(config, CODATA2018)
"""


def setup_seconds(texts):
    """Median wall time of a fresh interpreter that imports qswitch.cli and
    resolves the workload's configuration."""
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which would round every set-up time up to that grid
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            input=json.dumps(texts), text=True, check=True,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_times():
    """Cumulative import times (ms) from `python -X importtime`, medians."""
    samples = {"timing.import_ms": [], "cli.import_ms": [], "trigger.import_ms": []}
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             f"import sys; sys.path.insert(0, {str(SRC)!r}); import qswitch.cli"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        samples["timing.import_ms"].append(cumulative.get("qswitch.timing", 0.0))
        samples["trigger.import_ms"].append(cumulative.get("qswitch.trigger", 0.0))
        # `import qswitch.cli` runs the package __init__ first, then cli
        samples["cli.import_ms"].append(
            cumulative.get("qswitch", 0.0) + cumulative.get("qswitch.cli", 0.0)
        )
    return {name: statistics.median(values) for name, values in samples.items()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Checks each distinct round output once; equal outputs share a verdict."""

    def __init__(self, workload):
        self.workload = workload
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, output):
        digest = self.workload.digest(output)
        if digest not in self.verdicts:
            failed, messages = self.workload.check(output)
            self.verdicts[digest] = failed
            self.messages += messages
        self.attempted += self.workload.ops_per_round
        self.failed += self.verdicts[digest]

    @property
    def deterministic(self):
        """Every round of one run must produce the same output."""
        return len(self.verdicts) <= 1


def measure(workload, tally, seconds):
    """Whole rounds until `seconds` of timed work; round times in s."""
    times = []
    gc.collect()
    while not times or sum(times) < seconds:
        start = time.perf_counter()
        output = workload.run_round()
        times.append(time.perf_counter() - start)
        tally.add(output)
        del output
    return times


def machine_meta(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args):
    sys.path.insert(0, str(SRC))
    from qswitch.config import parse_config
    from qswitch.spacetime import CODATA2018
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    tally = Tally(workload)
    meta = machine_meta(args)
    RESULTS.mkdir(exist_ok=True)
    try:
        if not args.trace:
            setup = setup_seconds(workload.config_texts())
            times = measure(workload, tally, args.seconds)
            values = {
                "setup_s": setup,
                "peak_rss_mb": peak_rss_mb(),
                "ops_per_s": statistics.median(workload.ops_per_round / t for t in times),
            }
            units = END_TO_END
            summary = (f"{len(times)} rounds; {OP_NAMES[args.workload]} = "
                       f"{values['ops_per_s']:.6g}; setup_s = {setup:.4g} s; "
                       f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
        else:
            tracer = Tracer()
            for _ in range(20):
                for text in workload.config_texts():
                    tracer.call("config.parse_config", parse_config, text, CODATA2018)
            outputs, traced_rate, extra = workload.traced(tracer, args.seconds)
            for output in outputs:
                tally.add(output)
            del outputs
            stats = tracer.self_times()
            values = dict(import_times())
            for name, (_, span, scale) in SPAN_METRICS.items():
                calls, total = stats.get(span, (0, 0))
                values[name] = total / calls * scale if calls else 0.0
            values.update(extra)
            values["trace.ops_per_s"] = traced_rate
            units = PER_LAYER
            summary = f"traced {OP_NAMES[args.workload]} = {traced_rate:.6g}, {len(tracer.spans)} spans"
            tracer.write(RESULTS / f"{args.workload}-s{args.seed}-spans.json", meta)
        run_messages = workload.run_checks()
    finally:
        workload.close()

    result = {
        "correct": tally.deterministic and not run_messages,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    for message in (run_messages + tally.messages)[:20]:
        print(f"check: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {tally.attempted} {workload.op}s, "
          f"{tally.failed} failed; {summary}", file=sys.stderr)
    (RESULTS / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload untraced and traced, each in its own process."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        results = []
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=900,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print(json.dumps({"workload": name, "trace": trace, **result}))
            if result["failed"] or not result["correct"]:
                status = 1
            results.append(result["metrics"])
        plain = results[0]["ops_per_s"]["value"]
        traced = results[1]["trace.ops_per_s"]["value"]
        rows.append((name, plain, traced, (plain / traced - 1.0) * 100.0))
    for name, plain, traced, overhead in rows:
        print(f"{name:13s} ops_per_s {plain:12.6g} traced {traced:12.6g} "
              f"tracing overhead {overhead:+.1f}%", file=sys.stderr)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qswitch" / "cli.py").is_file():
        print(f"error: no qswitch sources at {SRC}; run from a qswitch checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
