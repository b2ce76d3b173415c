"""Run one benchmark workload of umbral-stats and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package measured is ``src/umbral_stats`` next to this
directory, imported from source in fresh child processes.  Each workload is a
closed loop with one client: the seed fixes a list of operations (longer for
larger --seconds), and the client issues them one at a time.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh set-ups), throughput, median and tail latency, and the peak resident
memory of the process doing the work.  --trace 1 runs the workload's list
for a third of the seconds under cProfile and prints the per-layer metrics
instead (see tracing.py).
Either way every output is checked (checks.py), and the last line printed
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"  # raw records of the latest run, per workload
TRACES = BENCH / "traces"  # profiles of the latest traced run, per workload
SETUP_SAMPLES = 7
# cProfile slows the operations two- to fourfold, so a traced run plans a
# third of the operations to stay near the length of an untraced run
TRACE_SLOWDOWN = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    ["fractions.self_s", "series.self_s", "series.calls"]
    + [f"series.{op}.{m}" for op in tracing.KERNEL for m in ("calls", "s")]
    + ["series.max_coeff_bits", "statistics.constructions", "statistics.self_s",
       "statistics.occupation_polynomial.calls", "deformed_entropy.calls",
       "deformed_entropy.self_s", "umbral.calls", "umbral.self_s", "catalog.build.calls",
       "catalog.build.constructions", "catalog.self_s", "verify.self_s"]
    + [f"verify.run_s.{suite}" for suite in tracing.SUITES]
    + ["oeis.self_s", "cli.import_s", "cli.parse_s", "cli.emit_s", "cli.self_s", "trace.wall_s"]
)


def layer_unit(name: str) -> str:
    if name.endswith("_bits"):
        return "bits"
    return "s" if name.endswith(("_s", ".s")) or "_s." in name else "count"


class Child:
    """A finished child process: exit code, output, wall time and peak memory."""

    def __init__(self, cmd: list[str], env: dict, log: str):
        RUNS.mkdir(exist_ok=True)
        with open(RUNS / f"{log}.out", "w+b") as out, open(RUNS / f"{log}.err", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode(errors="replace")
            self.stderr = err.read().decode(errors="replace")

    def ensure_ok(self) -> None:
        """Stop the benchmark if a child of its own failed."""
        if self.code != 0:
            sys.exit(f"run.py: a child process failed with exit code {self.code}:\n{self.stderr[-2000:]}")

    def summary(self) -> dict:
        """The JSON summary a worker prints last."""
        self.ensure_ok()
        return json.loads(self.stdout.strip().splitlines()[-1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same hashing, so traced call counts repeat
    env.pop("UMBRAL_ORDER", None)  # the CLI runs at its default order
    # the warm-up set-up writes the bytecode cache of src/, so that every
    # measured import reads it, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten operations above it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    q = 100 * (n - 10) // n
    return q, ordered[math.ceil(q * n / 100) - 1]


class Run:
    def __init__(self, args):
        self.args = args
        self.wl = workloads.WORKLOADS[args.workload]()
        self.seconds = args.seconds / TRACE_SLOWDOWN if args.trace else args.seconds
        self.ops = self.wl.plan(args.seed, self.seconds)
        self.checker = checks.CHECKERS[self.wl.name]()
        self.env = child_env()
        self.py = sys.executable
        self.failed = 0  # operations that raised or exited non-zero
        self.wrong = 0  # completed operations whose output failed its check

    def setup_sample(self) -> float:
        if self.wl.in_process:
            a = self.args
            cmd = [self.py, str(BENCH / "worker.py"), "setup", a.workload, str(a.seed), str(self.seconds)]
            return Child(cmd, self.env, "setup").summary()["setup_s"]
        # one fresh process that imports the CLI and exits
        child = Child([self.py, "-c", "import umbral_stats.cli"], self.env, "setup")
        child.ensure_ok()
        return child.wall_s

    def outcome(self, op: dict, output=None, error: str | None = None) -> bool:
        """Count a failed operation or check a completed one; True if it completed."""
        if error is not None:
            self.failed += 1
            print(f"failed: {op}\n{error}", file=sys.stderr)
            return False
        try:
            self.checker.check(op, output)
        except (checks.CheckError, KeyError, ValueError, TypeError) as exc:
            self.wrong += 1
            print(f"wrong output: {type(exc).__name__}: {exc} for {op}", file=sys.stderr)
        return True

    def worker(self, mode: str, *extra: str) -> tuple[dict, list[float], Child]:
        a = self.args
        records = RUNS / f"{a.workload}.jsonl"
        cmd = [self.py, str(BENCH / "worker.py"), mode, a.workload, str(a.seed), str(self.seconds),
               str(records), *extra]
        child = Child(cmd, self.env, "worker")
        summary = child.summary()
        latencies = []
        with open(records) as f:
            lines = [json.loads(line) for line in f]
        if len(lines) != len(self.ops):
            sys.exit(f"run.py: {len(lines)} records for {len(self.ops)} operations")
        for op, line in zip(self.ops, lines):
            if self.outcome(op, line.get("record"), line.get("error")):
                latencies.append(line["latency_s"])
        return summary, latencies, child

    def cli_ops(self, prefix: list[str], traced: bool) -> tuple[list[float], list[Child]]:
        latencies, children = [], []
        for i, op in enumerate(self.ops):
            dump = TRACES / self.wl.name / str(i)
            extra = [f"{dump}.json", f"{dump}.prof"] if traced else []
            child = Child([*prefix, *extra, *op["argv"]], self.env, "cli")
            children.append(child)
            output = {"code": child.code, "stdout": child.stdout, "stderr": child.stderr}
            error = None if child.code == 0 else f"exit code {child.code}: {child.stderr[-300:]}"
            if self.outcome(op, output, error):
                latencies.append(child.wall_s)
        return latencies, children

    def timed(self) -> dict:
        self.setup_sample()  # warms the bytecode cache; not counted
        # a CLI set-up is a fifth as long as an in-process one: sample it more
        samples = SETUP_SAMPLES if self.wl.in_process else 3 * SETUP_SAMPLES
        setup = [self.setup_sample() for _ in range(samples)]
        if self.wl.in_process:
            summary, latencies, child = self.worker("run")
            setup.append(summary["setup_s"])
            busy, rss = summary["busy_s"], child.rss_mb
        else:
            latencies, children = self.cli_ops([self.py, "-m", "umbral_stats.cli"], traced=False)
            busy, rss = sum(c.wall_s for c in children), max(c.rss_mb for c in children)
        if not latencies:
            sys.exit(f"run.py: no operation of {self.wl.name} completed")
        q, tail_s = tail(latencies)
        print(f"{self.wl.name}: {len(self.ops)} operations, latency_tail_ms is p{q}")
        return {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": len(latencies) / busy,
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail_s,
            "peak_rss_mb": rss,
        }

    def traced(self) -> dict:
        self.setup_sample()  # warms the bytecode cache
        shutil.rmtree(TRACES / self.wl.name, ignore_errors=True)
        (TRACES / self.wl.name).mkdir(parents=True)
        if self.wl.in_process:
            summary, latencies, _ = self.worker("trace", str(TRACES / self.wl.name / "run.prof"))
            layers = summary["layers"]
        else:
            latencies, _ = self.cli_ops([self.py, str(BENCH / "cli_child.py")], traced=True)
            layers = {}
            for i in range(len(self.ops)):
                with open(TRACES / self.wl.name / f"{i}.json") as f:
                    for name, value in json.load(f).items():
                        old = layers.get(name, 0)
                        layers[name] = max(old, value) if name == "series.max_coeff_bits" else old + value
        layers.setdefault("cli.import_s", 0.0)  # the in-process workloads do not import the CLI
        layers["trace.wall_s"] = sum(latencies)
        suites = Child([self.py, str(BENCH / "worker.py"), "suites", str(self.args.seed)],
                       self.env, "suites").summary()
        for suite in tracing.SUITES:
            layers[f"verify.run_s.{suite}"] = suites[suite]["s"]
            if not suites[suite]["passed"]:
                self.wrong += 1
                print(f"wrong output: verify suite {suite} failed at seed {self.args.seed % 1000}", file=sys.stderr)
        return {name: layers[name] for name in PER_LAYER}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "umbral_stats" / "__init__.py").is_file():
        sys.exit(f"run.py: no src/umbral_stats under {ROOT} to measure")
    run = Run(args)
    values = run.traced() if args.trace else run.timed()
    units = END_TO_END_UNITS if not args.trace else {name: layer_unit(name) for name in PER_LAYER}
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
