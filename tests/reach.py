"""Reach map of the library: which defs in ``src/umbral_stats`` the system calls.

Runs every entry point in ``ENTRY_POINTS`` in this one process under
:func:`sys.setprofile`, records each Python function of ``src/umbral_stats``
that is called, and prints every def (function or method, nested ones
included) that never was, with its line count.  The entry points are what the
system runs:

* every request of the ``cli-cold`` benchmark workload's seed-1 plan, run in
  process through ``cli.main`` as JSON, the first request of each kind again
  as CSV and as pretty text, and six requests that end in an error;
* ``verify.run("all", n, s)`` for n = 3..8, 16 and 48 and s = 0 and 1;
* every operation of the ``identities-o16`` workload's seed-1 plan;
* four operations of the ``build-o48`` workload.

The plans come from ``perfbench/workloads.py``, which this script only reads.
Each unreached def must be named in ``UNREACHED`` with the reason it stays.
The script exits 1 if an unreached def is named there under no reason, or if
a name there is reached or no longer a def.  Standard library only; pytest
does not collect this file, and nothing is written inside the checkout.  Run
from anywhere::

    python tests/reach.py
"""

from __future__ import annotations

import ast
import io
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path
from typing import NamedTuple

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "umbral_stats"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

SEED = 1
SECONDS = 60  # the length of the cli-cold and identities-o16 plans

# Each exits 1: maxent's Newton iteration does not converge, and the other
# five end in "error: ...".
ERROR_REQUESTS = (
    ["expand", "--stat", "no-such-entry", "--quantity", "F"],
    ["expand", "--stat", "acharya-swamy", "--param", "eps=1/0", "--quantity", "w"],
    ["compose", "--stat", "averaged-as-3", "--stat2", "lah"],
    ["spectral", "--stat", "fermi-dirac", "--points", "0,,1/3"],
    ["maxent", "--stat", "fermi-dirac", "--energies", "0,1,2", "--energy-target", "1/2"],
    ["verify", "--suite", "all", "--order", "2"],
)


def cli_cold() -> None:
    from umbral_stats import cli

    ops = workloads.CliCold().plan(SEED, SECONDS)
    first = {}
    for op in ops:
        first.setdefault(op["kind"], op["argv"])
    requests = [op["argv"] for op in ops]
    requests += [argv + ["--format", fmt] for argv in first.values() for fmt in ("csv", "pretty")]
    with redirect_stderr(io.StringIO()):
        for argv in requests + list(ERROR_REQUESTS):
            cli.main(argv, stream=io.StringIO())


def verify_runs() -> None:
    from umbral_stats import verify

    for order in (3, 4, 5, 6, 7, 8, 16, 48):
        for seed in (0, 1):
            verify.run("all", order, seed)


def _workload(workload, ops: list[dict]) -> None:
    workload.setup()
    for op in ops:
        workload.record(op, workload.run(op))


def identities_o16() -> None:
    workload = workloads.IdentitiesO16()
    _workload(workload, workload.plan(SEED, SECONDS))


def build_o48() -> None:
    workload = workloads.BuildO48()
    # a 10-s plan holds 19 distinct builds; a 60-s one cannot be drawn
    _workload(workload, workload.plan(SEED, 10)[:4])


ENTRY_POINTS = (cli_cold, verify_runs, identities_o16, build_o48)

# Every def that no entry point reaches, under the reason it stays.
UNREACHED: dict[str, tuple[str, ...]] = {
    "the OEIS fetch path: oeis-check --fetch needs the network": (
        "oeis.parse_b_file", "oeis.fetch_sequence",
    ),
    "value-type methods: copy, pickle, hash, immutability, repr and the series "
    "operators, pinned by the _Value contract tests in test_series.py": (
        "catalog.Fixture.__repr__",
        "series._restore",
        "series._Value.__copy__",
        "series._Value.__deepcopy__",
        "series._Value.__reduce__",
        "series._Value.__setattr__",
        "series._Value.__delattr__",
        "series._Value.__hash__",
        "series._Exact.__repr__",
        "series._Exact.is_zero",
        "series.TruncatedSeries.__getitem__",
        "series.TruncatedSeries.__add__",
        "series._CheckedSeries.__repr__",
        "series.LogSeries._key",
        "series.LogSeries.__repr__",
        "statistics.Statistics.__repr__",
        "umbral.PolynomialSequence._key",
        "umbral.PolynomialSequence.__repr__",
    ),
    "the umbral layer (Roman & Rota's theorems), for a verify suite of its own "
    "(ROADMAP: a verify suite for the umbral layer)": (
        "umbral.Polynomial.__add__",
        "umbral.Polynomial.__sub__",
        "umbral.Polynomial.__mul__",
        "umbral.Polynomial.shift_x",
        "umbral.poly_x",
        "umbral.DeltaSeries.inverse",
        "umbral.associated_sequence",
        "umbral.apply_operator",
        "umbral.functional",
        "umbral.umbral_shift_next",
        "umbral.sheffer_shift_next",
        "umbral.umbral_composition",
        "umbral.connection_coefficients",
        "umbral.ShefferPair.__init__",
        "umbral.ShefferPair._key",
        "umbral.ShefferPair.__repr__",
        "umbral.ShefferPair.identity",
        "umbral.ShefferPair.compose",
        "umbral.ShefferPair.inverse",
        "umbral.ShefferPair.agrees_with",
    ),
    "the paper's exclusion-statistics count, checked by acceptance test c11": (
        "statistics.haldane_wu_W",
    ),
    "the Hermite polynomials as a Sheffer sequence, checked by acceptance test c13": (
        "umbral.sheffer_sequence",
    ),
    "to be checked by a verify suite or deleted, with the next group of "
    "unreached defs (ROADMAP: every library function reached)": (
        "deformed_entropy.chi",
        "statistics.from_occupation",
    ),
    "the power table as a public kernel: the digests pin it, and it is the "
    "oracle of the content-reduced power rows (ROADMAP)": (
        "series.powers",
    ),
    "reads a series record back; a test and a mutant pin its field checks": (
        "series.series_from_json",
    ),
}


class Def(NamedTuple):
    name: str  # module.qualname, e.g. "series._Value.__copy__"
    module: str  # file name, e.g. "series.py"
    first: int  # first line: its first decorator's, else its def's
    lines: int


def defs(path: Path) -> list[Def]:
    """Every function and method defined in the module at ``path``."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append(Def(name, path.name, first, child.end_lineno - first + 1))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), path.stem + ".")
    return found


def reached_code() -> set[tuple[str, int, str]]:
    """(file name, first line, name) of every function of the package called
    while the entry points run."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        for entry in ENTRY_POINTS:
            entry()
    finally:
        sys.setprofile(None)
    return {
        (Path(code.co_filename).name, code.co_firstlineno, code.co_name)
        for code in called
        if Path(code.co_filename).parent == PACKAGE
    }


def main() -> int:
    import umbral_stats

    if Path(umbral_stats.__file__).parent != PACKAGE:
        sys.exit(f"imported umbral_stats from {umbral_stats.__file__}, not from {PACKAGE}")
    start = time.perf_counter()
    reached = reached_code()
    seconds = time.perf_counter() - start
    every = [d for path in sorted(PACKAGE.glob("*.py")) for d in defs(path)]
    unreached = [
        d for d in every if (d.module, d.first, d.name.rpartition(".")[2]) not in reached
    ]
    reason_of = {name: reason for reason, names in UNREACHED.items() for name in names}
    print(f"{len(unreached)} of {len(every)} defs in src/umbral_stats unreached, "
          f"{sum(d.lines for d in unreached)} lines (entry points ran in {seconds:.1f} s)")
    for reason in [*UNREACHED, None]:
        group = [d for d in unreached if reason_of.get(d.name) == reason]
        if group:
            print(f"\n{reason or 'NO REASON: delete the def, reach it, or give a reason'}:")
            for d in group:
                print(f"  {d.name:48} {f'{d.module}:{d.first}':24} {d.lines:3} lines")
    stale = sorted(set(reason_of) - {d.name for d in unreached})
    for name in stale:
        print(f"\nSTALE: {name} is named in UNREACHED but is reached or no longer a def")
    return 1 if stale or any(d.name not in reason_of for d in unreached) else 0


if __name__ == "__main__":
    sys.exit(main())
