"""Golden outputs: every in-space catalog entry and one call per CLI command.

``golden_o16.json`` holds the values that ``golden()`` below computed when
the file was written; the tests recompute them and require exact equality,
so a refactor that changes any coefficient, string or exit code fails here.
CLI records drop ``elapsed_seconds``, the only field that varies from run
to run.
"""

import io
import json
from pathlib import Path

import pytest

from umbral_stats import catalog as cat
from umbral_stats import cli
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats.series import LogSeries, TruncatedSeries
from umbral_stats.umbral import (
    DeltaSeries,
    PolynomialSequence,
    conjugate_sequence,
    poly_to_json,
)

GOLDEN = Path(__file__).with_name("golden_o16.json")
ORDER = 16
N_POLY = 8
PARTNER = "lah"  # the second statistics of every group_compose_m pair

CLI_CALLS = {
    "expand": ["expand", "--stat", "mott", "--quantity", "phi_entropy"],
    "dual": ["dual", "--stat", "acharya-swamy", "--param", "eps=1/3"],
    "compose": ["compose", "--stat", "bose-einstein", "--stat2", "lah", "--m", "1"],
    "polyseq-associated": ["polyseq", "--stat", "bessel", "--kind", "associated",
                           "--n", "6"],
    "polyseq-sheffer": ["polyseq", "--stat", "exponential", "--kind", "sheffer",
                        "--n", "6", "--g-coeffs", "1,0,1/2" + ",0" * 14],
    "spectral": ["spectral", "--stat", "gentile", "--param", "p=3",
                 "--points", "1/3,1/2", "--format", "csv"],
    "maxent": ["maxent", "--stat", "bose-einstein", "--energies", "0,1,2",
               "--energy-target", "1/2"],
    "verify-occupation": ["verify", "--suite", "occupation", "--seed", "3"],
    "verify-inversion": ["verify", "--suite", "inversion", "--order", "8"],
    "verify-all": ["verify", "--suite", "all", "--seed", "0"],
    "oeis-check": ["oeis-check", "--entry", "lah", "--quantity", "X_of_w",
                   "--sequence", "A000108"],
}


def to_json(value):
    if isinstance(value, TruncatedSeries):
        return fps.series_to_json(value)
    if isinstance(value, LogSeries):
        return fps.logseries_to_json(value)
    if isinstance(value, PolynomialSequence):
        return [poly_to_json(p) for p in value]
    raise TypeError(f"no golden encoding for {type(value).__name__}")


def entry_record(name: str) -> dict:
    entry = cat.get(name)
    stat = entry.build(ORDER)
    partner = cat.build(PARTNER, ORDER)
    return {
        "statistics": st.statistics_to_json(stat),
        "quantities": {
            q: to_json(entry.quantity(q, ORDER)) for q in cat.DERIVED_QUANTITIES
        },
        "conjugate": to_json(conjugate_sequence(DeltaSeries(stat.F), N_POLY)),
        "W": [poly_to_json(st.occupation_polynomial(stat, k)) for k in range(N_POLY + 1)],
        "dual": st.statistics_to_json(st.dual(stat)),
        "group_compose_m": [
            st.statistics_to_json(st.group_compose_m(stat, partner, m)) for m in range(3)
        ],
    }


def _strip_elapsed(value):
    if isinstance(value, dict):
        return {k: _strip_elapsed(v) for k, v in value.items() if k != "elapsed_seconds"}
    if isinstance(value, list):
        return [_strip_elapsed(v) for v in value]
    return value


def cli_record(argv: list[str]) -> dict:
    stream = io.StringIO()
    code = cli.main(argv, stream=stream)
    text = stream.getvalue()
    try:
        output = _strip_elapsed(json.loads(text))
    except json.JSONDecodeError:
        output = text
    return {"argv": argv, "exit": code, "output": output}


def golden() -> dict:
    return {
        "order": ORDER,
        "entries": {name: entry_record(name) for name in cat.entries_in_space()},
        "cli": {key: cli_record(argv) for key, argv in CLI_CALLS.items()},
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def default_env(monkeypatch):
    monkeypatch.delenv("UMBRAL_ORDER", raising=False)


def test_golden_covers_every_entry_and_command(expected):
    assert expected["order"] == ORDER
    assert sorted(expected["entries"]) == cat.entries_in_space()
    assert sorted(expected["cli"]) == sorted(CLI_CALLS)


@pytest.mark.parametrize("name", cat.entries_in_space())
def test_entry_matches_golden(name, expected):
    assert entry_record(name) == expected["entries"][name]


@pytest.mark.parametrize("key", sorted(CLI_CALLS))
def test_cli_matches_golden(key, expected, default_env):
    assert cli_record(CLI_CALLS[key]) == expected["cli"][key]
