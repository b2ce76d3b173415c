"""Golden outputs: every in-space catalog entry and one call per CLI command.

``golden_o16.json`` holds the values that ``golden()`` below computed when
the file was written; the tests recompute them and require exact equality,
so a refactor that changes any coefficient, string or exit code fails here.
CLI records drop ``elapsed_seconds``, the only field that varies from run
to run.

At higher orders, where the integers inside the kernels are large, the
tests compare SHA-256 digests instead of whole values: one per in-space
entry of all its derived quantities at order 48, and one of the
``verify --suite all --order 32 --seed 0`` payload.
"""

import hashlib
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
HIGH_ORDER = 48
VERIFY_ARGV = ["verify", "--suite", "all", "--order", "32", "--seed", "0"]

# digest(high_order_record(name)) and digest(verify_payload()), as computed
# when they were written
HIGH_ORDER_DIGESTS = {
    "abel": "df4aeb1451d59687eb08e6caaff38e105e892728cc084a6e56411b1ee217fcca",
    "acharya-swamy": "a7a7c502193b4f9be41df48a388845508fbf027c287aedd77971fea8060f7ffd",
    "averaged-as-1": "dd6d954838002a18b8e2eda151934e6eb7308c0c64c16471db85e5af7ddcfaf5",
    "averaged-as-2": "9c23bf8273d0f15509225d4c99f6ab5a49de5d0c384b82feab8aa51db4a67098",
    "bell-universal": "1d4915084a10c885f2fc0884be057e8e90b77e3b8b06061f96a1060a7489104c",
    "bessel": "df6f75eb25dbf8bf70b8106f7be397ed0219954a446caa2822b698d125a45bb6",
    "boltzmann-gibbs": "28c7d77b0f084a45fa75f98f1be766100bd36dfd7c7ff7a8b8715cc37ae0a868",
    "bose-einstein": "7d46c3a2c51c72dd717d5bc2cf97ea9dcefa8dcb9ca6051ac6138a220085863c",
    "dilogarithm": "50182dfb5ea58fddf729f80701b944dd6fe01d3c228c5767a491277f00cc8fe2",
    "exponential": "1d4915084a10c885f2fc0884be057e8e90b77e3b8b06061f96a1060a7489104c",
    "fermi-dirac": "91c9e056fa82487cd982ba2b7ead4e37f6f84219b5acc6a3fbbd04c90a7bfbf8",
    "gentile": "63395a089c07b989421166a571f446a28c3ec838e042a4c5fe00233086d2cc9a",
    "gould": "6c75c026b415c1a4767188c8bf6eb1f483f2514bcb1c743a5af0ee493f1ac5b8",
    "gould-acharya-swamy": "a7a7c502193b4f9be41df48a388845508fbf027c287aedd77971fea8060f7ffd",
    "gould-catalan-curve": "5c869d034fe7c4485c7c06144daec2dfa0215704ef0654b257a181667b95bf93",
    "gould-framed-vertex": "6c75c026b415c1a4767188c8bf6eb1f483f2514bcb1c743a5af0ee493f1ac5b8",
    "gould-lambert": "df4aeb1451d59687eb08e6caaff38e105e892728cc084a6e56411b1ee217fcca",
    "lah": "74d145047397167f765d4d56d5cd75dea6ea28bea09c6ce5bb550cbe44a7338f",
    "mittag-leffler": "25228649ed848c052dc573bb4be9679395c6e1ff578d7e8f52b627fa97f1187a",
    "mott": "7e210377d056bf9dfd4edbf1112f4608240eec07ff8a1612982d36ff01c5f003",
}
VERIFY_DIGEST = "ddc5ad4e3907b80ec261dc4b7a732896ad77cba65489a0157dfc1f6578e21806"

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


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def high_order_record(name: str) -> dict:
    entry = cat.get(name)
    return {q: to_json(entry.quantity(q, HIGH_ORDER)) for q in cat.DERIVED_QUANTITIES}


def verify_payload():
    record = cli_record(VERIFY_ARGV)
    assert record["exit"] == 0
    return record["output"]


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


def test_high_order_digests_cover_every_entry():
    assert sorted(HIGH_ORDER_DIGESTS) == cat.entries_in_space()


@pytest.mark.parametrize("name", cat.entries_in_space())
def test_entry_matches_high_order_digest(name):
    assert digest(high_order_record(name)) == HIGH_ORDER_DIGESTS[name]


def test_verify_payload_matches_digest(default_env):
    assert digest(verify_payload()) == VERIFY_DIGEST
