"""One traced ``umbral-stats`` call (started by ``run.py --trace 1``).

    cli_child.py SUMMARY PROFILE ARGS...

Times the import of ``umbral_stats.cli``, then runs ``cli.main(ARGS)`` under
cProfile with the largest series coefficient tracked.  The command's own
output goes to standard output as usual; the per-layer numbers go to
SUMMARY (JSON) and the profile to PROFILE.
"""

import sys
import time

t0 = time.perf_counter()
import umbral_stats.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

import cProfile  # noqa: E402
import json  # noqa: E402

import tracing  # noqa: E402
from umbral_stats.series import TruncatedSeries  # noqa: E402


def main(summary_path: str, profile_path: str, args: list[str]) -> int:
    bits = tracing.MaxBits()
    bits.install(TruncatedSeries)
    profile = cProfile.Profile()
    profile.enable()
    try:
        code = cli.main(args)
    finally:
        profile.disable()
        sys.stdout.flush()
    profile.dump_stats(profile_path)
    layers = tracing.summarize(profile)
    layers["cli.import_s"] = import_s
    layers["series.max_coeff_bits"] = bits.value
    with open(summary_path, "w") as f:
        json.dump(layers, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
