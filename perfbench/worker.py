"""The measured process of the in-process workloads (started by ``run.py``).

    worker.py setup WORKLOAD SEED SECONDS
    worker.py run   WORKLOAD SEED SECONDS RECORDS
    worker.py trace WORKLOAD SEED SECONDS RECORDS PROFILE
    worker.py suites SEED

``setup`` builds the seeded inputs, imports the package and warms it, and
reports how long that took.  ``run`` does the same and then runs every
operation one at a time, writing one JSON line per operation (latency and
record) to RECORDS.  ``trace`` is ``run`` under cProfile, with the largest
series coefficient tracked; it also writes the profile to PROFILE.
``suites`` times one ``verify.run(suite, 16, SEED)`` per suite.  Each mode
prints one JSON summary as its last line of output.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

import workloads


def prepare(name: str, seed: int, seconds: float):
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[name]()
    ops = wl.plan(seed, seconds)
    wl.setup()
    return wl, ops, time.perf_counter() - t0


def run_ops(wl, ops, records_path: str, profile=None) -> dict:
    busy = 0.0
    with open(records_path, "w") as records:
        for op in ops:
            line = {}
            if profile is not None:
                profile.enable()
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception:  # a failed operation is counted, not fatal
                line["error"] = traceback.format_exc()[-2000:]
            line["latency_s"] = time.perf_counter() - t0
            if profile is not None:
                profile.disable()
            if "error" not in line:
                line["record"] = wl.record(op, out)
            busy += line["latency_s"]
            records.write(json.dumps(line) + "\n")
    return {"busy_s": busy}


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "suites":
        from umbral_stats import verify

        seed = int(argv[1]) % 1000
        out = {}
        for suite in verify.SUITES:
            t0 = time.perf_counter()
            report = verify.run(suite, workloads.ORDER, seed)
            out[suite] = {"s": time.perf_counter() - t0, "passed": report.passed}
        print(json.dumps(out))
        return
    name, seed, seconds = argv[1], int(argv[2]), float(argv[3])
    wl, ops, setup_s = prepare(name, seed, seconds)
    summary = {"setup_s": setup_s}
    if mode == "run":
        summary.update(run_ops(wl, ops, argv[4]))
    elif mode == "trace":
        import cProfile

        import tracing
        from umbral_stats.series import TruncatedSeries

        bits = tracing.MaxBits()
        bits.install(TruncatedSeries)
        profile = cProfile.Profile()
        summary.update(run_ops(wl, ops, argv[4], profile))
        profile.dump_stats(argv[5])
        summary["layers"] = tracing.summarize(profile)
        summary["layers"]["series.max_coeff_bits"] = bits.value
    print(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1:])
