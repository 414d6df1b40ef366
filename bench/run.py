"""The stochex benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports stochex from the
checkout's src/ and fails (exit 2, no result) when src/ is missing.

--trace 0 runs the workload's seeded batch in whole passes until S seconds
have passed, with no wrappers installed, and reports the end-to-end metrics:
setup_s (median time of fresh interpreters that import and make the inputs),
items_per_s, item_ms.p50, item_ms.tail, peak_rss_mb, and on the report line
error_rate.  --trace 1 alternates untraced and traced passes for S seconds
and reports the per-layer counts (see spans.py), the CLI start-up costs and
trace.overhead_frac.  Every item's output is checked either way.  Times are
scaled to a reference host speed (see "Host speed" below).

Stdout ends with an "env" line, a "report" line (every metric with its unit,
sample counts, raw times, per-layer self times) and the result line.  --tiny
shrinks the batch for the smoke test:

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# The tail percentile per workload, fixed so that runs of faster or slower
# commits compare the same point of the distribution.  Each has at least ten
# items beyond it at the seed commit's speed on a 2-vCPU host, and falls on
# the same kind of heavy item whether a run makes two, three or four passes;
# with fewer than ten beyond, the report steps down to the highest percentile
# that has ten (and says which).
TAIL_PERCENTILE = {"exact-chains": 86, "symmetry-scan": 93, "numeric-lab": 83, "cli": 85}
SETUP_REPEATS = 7
START_REPEATS = 7
MIN_BEYOND = 10

# The metric names of the result line, from the benchmark's definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.MAKERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a tiny batch, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="import and make the inputs, then exit (times set-up)")
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Host speed
#
# The benchmark shares its host with other machines' work, and on a 2-vCPU
# cloud VM the same Python loop was seen to take anywhere from 0.65x to 1.9x
# its usual time, in phases lasting from seconds to minutes.  So a fixed
# reference is timed before every measured step and once more at the end, and
# each step's time is reported scaled by the reference's nominal time over the
# median of the reference times around it (two before, two after): that is,
# in seconds of a host on which the reference takes its nominal time.  Steps
# in this process are scaled by a pure-Python reference (Fraction, dict and
# float work, the kind of code stochex runs); steps that start an interpreter
# (CLI invocations, set-up runs) by a bare interpreter start.  Raw times are
# on the report line too.

PYTHON_REFERENCE_S = 0.003
START_REFERENCE_S = 0.07


def _python_reference():
    acc, seen, x = Fraction(0), {}, 0.0
    for i in range(1, 500):
        f = Fraction(i, i + 7)
        acc += f * f
        seen[(i % 17, f)] = acc
    for i in range(2500):
        x += math.exp(-((i % 50) * 0.01) ** 2) * math.sin(i * 0.001)
    return acc, x, len(seen)


# An interpreter that starts, imports a few standard modules and does some
# Fraction and float work: the make-up of a short CLI invocation.
_START_SNIPPET = """
import argparse, csv, json, math, statistics
from fractions import Fraction
acc, x = Fraction(0), 0.0
for i in range(1, 500):
    acc += Fraction(i, i + 7) ** 2
for i in range(10000):
    x += math.exp(-((i % 50) * 0.01) ** 2) * math.sin(i * 0.001)
"""


def _start_reference():
    subprocess.run([sys.executable, "-c", _START_SNIPPET], check=True)


class Speed:
    """Reference timings taken through a run, and the scale they give."""

    def __init__(self, starts: bool = False):
        self.reference = _start_reference if starts else _python_reference
        self.nominal = START_REFERENCE_S if starts else PYTHON_REFERENCE_S
        self.samples: list[float] = []

    def mark(self) -> int:
        """Time the reference once more; its index, to pass to scale()."""
        if self.reference is _python_reference:
            _python_reference()  # once untimed, to refill the caches the last step used
        t0 = time.perf_counter()
        self.reference()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """The factor for a step timed right after reference `mark`."""
        around = self.samples[max(0, mark - 1): mark + 3]
        return self.nominal / statistics.median(around)

    def summary(self) -> dict:
        ms = [s * 1000.0 for s in self.samples]
        return {"reference_ms": {"median": statistics.median(ms), "min": min(ms), "max": max(ms)},
                "nominal_ms": self.nominal * 1000.0, "samples": len(ms)}


class Timings:
    """Raw step times, each with the reference mark taken just before it."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.raw: list[float] = []
        self.marks: list[int] = []

    def time(self, fn):
        self.marks.append(self.speed.mark())
        t0 = time.perf_counter()
        result = fn()
        self.raw.append(time.perf_counter() - t0)
        return result

    def add(self, mark: int, seconds: float) -> None:
        self.marks.append(mark)
        self.raw.append(seconds)

    def scaled(self) -> list[float]:
        """Call after a closing speed.mark(), so the last step has samples after it."""
        return [t * self.speed.scale(m) for t, m in zip(self.raw, self.marks)]


# ---------------------------------------------------------------------------
# Timed passes


class Tally:
    """Item times and outcomes over some passes."""

    def __init__(self, speed: Speed):
        self.items = Timings(speed)   # the library calls of each item
        self.spent = Timings(speed)   # each item with its checks
        self.outcomes = {"ok": 0, "wrong": 0, "error": 0}
        self.problems: dict[str, int] = {}
        self.passes = 0

    def run_pass(self, workload) -> None:
        for item in workload.items:
            mark = self.spent.speed.mark()
            t0 = time.perf_counter()
            dt, outcome, detail = workload.run(item)
            self.spent.add(mark, time.perf_counter() - t0)
            self.items.add(mark, dt)
            self.outcomes[outcome] += 1
            if detail:
                key = f"{outcome}: {detail}"[:300]
                self.problems[key] = self.problems.get(key, 0) + 1
        self.passes += 1

    @property
    def raw_wall(self) -> float:
        return sum(self.spent.raw)

    @property
    def attempted(self) -> int:
        return len(self.items.raw)

    @property
    def failed(self) -> int:
        return self.outcomes["wrong"] + self.outcomes["error"]


def tail(times: list[float], percentile: int) -> tuple[float, int, int]:
    """(value, percentile used, items beyond it) by nearest rank.

    Steps down from `percentile` until at least MIN_BEYOND items lie beyond;
    with too few items for that, it reports the largest.
    """
    xs = sorted(times)
    n = len(xs)
    q = percentile
    while q > 0 and n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        q -= 1
    if q == 0:
        q = 100
    idx = max(1, math.ceil(q / 100.0 * n)) - 1
    return xs[idx], q, n - 1 - idx


def run_timed(workload, speed: Speed, seconds: float, between=None) -> Tally:
    """Whole passes until `seconds` of passes have run; `between()` runs
    after each pass, outside the measured time."""
    tally = Tally(speed)
    while tally.passes == 0 or tally.raw_wall < seconds:
        tally.run_pass(workload)
        if between is not None:
            between()
    return tally


# ---------------------------------------------------------------------------
# Fresh-interpreter measurements


def run_child(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{cmd[1:4]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def setup_command(args) -> list[str]:
    """A fresh interpreter doing this workload's set-up (imports and inputs)."""
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])


def cli_costs(cli_items, env: dict, speed: Speed, tiny: bool) -> dict:
    """cli.python_start_ms, cli.import_ms and cli.main_ms, in fresh interpreters."""
    start, imported, main = Timings(speed), Timings(speed), Timings(speed)
    for _ in range(2 if tiny else START_REPEATS):
        start.time(lambda: run_child([sys.executable, "-c", "pass"], env))
        imported.time(lambda: run_child([sys.executable, "-c", "import stochex.cli"], env))
    for item in cli_items:
        mark = speed.mark()
        proc = run_child([sys.executable, str(BENCH / "clichild.py"), "time", *item["argv"]], env)
        main.add(mark, float(proc.stdout.strip().splitlines()[-1]) / 1000.0)
    speed.mark()
    start_ms = statistics.median(start.scaled()) * 1000.0
    return {
        "cli.python_start_ms": start_ms,
        "cli.import_ms": statistics.median(imported.scaled()) * 1000.0 - start_ms,
        "cli.main_ms": statistics.median(main.scaled()) * 1000.0,
    }


# ---------------------------------------------------------------------------
# Environment


def environment(args, workload, tally: Tally) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    numpy = sys.modules.get("numpy")
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_pass": len(workload.items),
        "passes": tally.passes,
        "items": tally.attempted,
        "src_lines": src_lines,
    }


def end_to_end(tally: Tally, workload_name: str) -> tuple[dict, dict]:
    def metrics(times, spent):
        ms = [t * 1000.0 for t in times]
        tail_ms, q, beyond = tail(ms, TAIL_PERCENTILE[workload_name])
        return {
            "items_per_s": (tally.attempted / sum(spent), "1/s"),
            "item_ms.p50": (statistics.median(ms), "ms"),
            "item_ms.tail": (tail_ms, "ms"),
        }, q, beyond

    values, q, beyond = metrics(tally.items.scaled(), tally.spent.scaled())
    raw, _, _ = metrics(tally.items.raw, tally.spent.raw)
    notes = {
        "items": tally.attempted,
        "passes": tally.passes,
        "wall_s": tally.raw_wall,
        "tail_percentile": q,
        "items_beyond_tail": beyond,
        "error_rate": {"value": tally.failed / tally.attempted, "unit": "fraction",
                       "failed": tally.failed, "attempted": tally.attempted,
                       "wrong": tally.outcomes["wrong"], "error": tally.outcomes["error"]},
        "problems": tally.problems,
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "stochex" / "__init__.py").is_file():
        fail(f"no stochex sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, args.seed, args.tiny, workdir)
        stochex = sys.modules["stochex"]
        if Path(stochex.__file__).resolve().parent != (src / "stochex").resolve():
            fail(f"imported stochex from {stochex.__file__}, not from {src}")
        if args.setup_only:
            return 0
        env = workloads.child_env()
        if args.trace == 0:
            result = untraced_run(args, workload, env)
        else:
            result = traced_run(args, workload, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's files are still there
            pass
    print(json.dumps(result))
    return 0


def untraced_run(args, workload, env) -> dict:
    speed = Speed(starts=not workload.in_process)
    start_speed = speed if not workload.in_process else Speed(starts=True)
    setups = Timings(start_speed)
    wanted = 1 if args.tiny else SETUP_REPEATS
    cmd = setup_command(args)

    def probe():
        setups.time(lambda: run_child(cmd, env))

    # Set-up runs are spread between passes so that they meet the same host
    # conditions as the passes do.
    tally = run_timed(workload, speed, args.seconds,
                      lambda: len(setups.raw) < wanted and probe())
    rss = workload.peak_rss_mb()
    while len(setups.raw) < wanted:
        probe()
    speed.mark()
    start_speed.mark()
    values, notes = end_to_end(tally, args.workload)
    values["setup_s"] = (statistics.median(setups.scaled()), "s")
    values["peak_rss_mb"] = (rss, "MB")
    notes["setup_runs"] = len(setups.raw)
    notes["raw"]["setup_s"] = {"value": statistics.median(setups.raw), "unit": "s"}
    notes["speed"] = {"items": speed.summary(), "setup": start_speed.summary()}
    print(json.dumps({"env": environment(args, workload, tally)}))
    print(json.dumps({"report": {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, **notes}}))
    return {
        "correct": tally.outcomes["wrong"] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in END_TO_END},
    }


def traced_run(args, workload, env, workdir) -> dict:
    import spans

    speed = Speed(starts=not workload.in_process)
    tracer = spans.Tracer()
    untraced, traced = Tally(speed), Tally(speed)
    while untraced.passes == 0 or untraced.raw_wall + traced.raw_wall < args.seconds:
        untraced.run_pass(workload)
        if workload.in_process:
            tracer.install()
        else:
            workload.tracer = tracer
        try:
            traced.run_pass(workload)
        finally:
            tracer.uninstall()
            workload.tracer = None
    speed.mark()
    cli_workload = workload if args.workload == "cli" else workloads.make(
        "cli", args.seed, args.tiny, workdir / "cli")
    traced_wall, untraced_wall = sum(traced.spent.scaled()), sum(untraced.spent.scaled())
    # Self times are scaled like the traced passes they were taken in.
    scale = traced_wall / traced.raw_wall / traced.passes
    per_layer = {
        name: (value * scale, "s") if name.endswith("_s") else (value / traced.passes, "count")
        for name, value in tracer.layer_totals().items()
    }
    for name, value in cli_costs(cli_workload.items, env, Speed(), args.tiny).items():
        per_layer[name] = (value, "ms")
    checks = per_layer["symmetry.checks"][0]
    per_layer["symmetry.witness_frac"] = (
        per_layer["symmetry.failing"][0] / checks if checks else 0.0, "fraction")
    per_layer["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "fraction")
    e2e, notes = end_to_end(untraced, args.workload)
    functions = sorted(
        ({"span": key, "calls": tracer.calls[key] / traced.passes,
          "self_s": tracer.self_s[key] * scale} for key in tracer.calls),
        key=lambda row: -row["self_s"])
    print(json.dumps({"env": environment(args, workload, untraced)}))
    print(json.dumps({"report": {
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "per_layer_basis": "per traced pass",
        "traced_passes": traced.passes,
        "traced_wall_s": traced.raw_wall,
        "untraced_end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        **notes,
        "speed": speed.summary(),
        "functions": functions,
    }}))
    return {
        "correct": untraced.outcomes["wrong"] + traced.outcomes["wrong"] == 0,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": {name: {"value": per_layer[name][0], "unit": per_layer[name][1]}
                    for name in PER_LAYER},
    }


if __name__ == "__main__":
    sys.exit(main())
