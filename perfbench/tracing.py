"""Per-layer numbers from a cProfile of the package, taken from outside it.

A layer is one module of ``umbral_stats`` (``LAYERS``), plus the standard
library's ``fractions``, which every layer calls.  A function's self time
goes to its own layer.  Time in any other code (built-in functions, the
rest of the standard library) goes to the layers that called it, split by
the time each caller edge spent there, so that ``math.gcd`` counts for
``fractions`` and ``json.dump`` for ``cli``.  Time under no layer, such as
the benchmark's own code, is not counted.
"""

from __future__ import annotations

import fractions
import os
import pstats

LAYERS = ("fractions", "series", "umbral", "statistics", "deformed_entropy",
          "catalog", "verify", "oeis", "cli")
KERNEL = ("mul", "compose", "lagrange_invert", "exp_series", "log_series", "reciprocal")
SUITES = ("inversion", "binomial", "occupation", "duality", "main-theorem",
          "gradient", "xi", "fixtures")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of(filename: str) -> str | None:
    if filename == fractions.__file__:
        return "fractions"
    folder, base = os.path.split(filename)
    stem = base[:-3] if base.endswith(".py") else ""
    if os.path.basename(folder) == "umbral_stats" and stem in LAYERS:
        return stem
    if folder == BENCH_DIR:
        return "bench"
    return None


def code_key(fn) -> tuple:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


class MaxBits:
    """Largest numerator or denominator, in bits, of every series the package makes."""

    def __init__(self):
        self.value = 0

    def install(self, series_class) -> None:
        original = series_class.__init__
        tracker = self

        def __init__(series, coeffs):
            original(series, coeffs)
            cs = series.coeffs
            bits = max(max(map(int.bit_length, [c._numerator for c in cs])),
                       max(map(int.bit_length, [c._denominator for c in cs])))
            if bits > tracker.value:
                tracker.value = bits

        series_class.__init__ = __init__


def _self_times(stats: dict) -> dict:
    owners_memo: dict = {}

    def owners(func) -> dict:
        if func in owners_memo:
            return owners_memo[func]
        layer = layer_of(func[0])
        if layer is not None:
            owners_memo[func] = {layer: 1.0}
            return owners_memo[func]
        owners_memo[func] = {}  # breaks cycles through recursion
        callers = {c: v for c, v in stats[func][4].items() if c in stats}
        weight = 2 if any(v[2] for v in callers.values()) else 0
        total = sum(v[weight] for v in callers.values())
        share: dict = {}
        for caller, v in callers.items():
            for owner, part in owners(caller).items():
                share[owner] = share.get(owner, 0.0) + part * v[weight] / total
        owners_memo[func] = share
        return share

    out = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, tt, _, _) in stats.items():
        for owner, part in owners(func).items():
            if owner in out:
                out[owner] += tt * part
    return out


def summarize(profile) -> dict:
    """The per-layer metrics of one profiled process, as (metric name -> value)."""
    import argparse

    from umbral_stats import catalog, cli, series, statistics

    stats = pstats.Stats(profile).stats
    empty = (0, 0, 0.0, 0.0, {})

    def entry(fn):
        return stats.get(code_key(fn), empty)

    out = {f"{layer}.self_s": s for layer, s in _self_times(stats).items()}
    for layer in ("series", "deformed_entropy", "umbral"):
        out[f"{layer}.calls"] = sum(v[1] for f, v in stats.items() if layer_of(f[0]) == layer)
    for op in KERNEL:
        _, calls, _, cumulative, _ = entry(getattr(series, op))
        out[f"series.{op}.calls"] = calls
        out[f"series.{op}.s"] = cumulative
    init = entry(statistics.Statistics.__init__)
    out["statistics.constructions"] = init[1]
    out["statistics.occupation_polynomial.calls"] = entry(statistics.occupation_polynomial)[1]
    out["catalog.build.calls"] = entry(catalog.CatalogEntry.build)[1] + entry(catalog.CatalogEntry.quantity)[1]
    # every catalog cache miss makes one Statistics from inside the catalog
    out["catalog.build.constructions"] = sum(
        v[0] for caller, v in init[4].items() if layer_of(caller[0]) == "catalog")
    out["cli.parse_s"] = entry(cli.build_parser)[3] + entry(argparse.ArgumentParser.parse_args)[3]
    out["cli.emit_s"] = entry(cli.emit)[3]
    return out
