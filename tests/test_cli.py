"""Command-line interface: output schemas, exit codes, determinism."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import umbral_stats
from umbral_stats import catalog as cat
from umbral_stats import cli
from umbral_stats import deformed_entropy as de
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats import umbral as um
from umbral_stats import verify


def run(argv):
    stream = io.StringIO()
    code = cli.main(argv, stream=stream)
    return code, stream.getvalue()


def run_json(argv):
    code, out = run(argv)
    return code, json.loads(out)


class TestExpand:
    def test_weight_function(self):
        code, data = run_json(
            ["expand", "--stat", "bose-einstein", "--quantity", "w", "--order", "5"]
        )
        assert code == 0
        assert data["payload"]["coeffs"] == ["0", "1", "1", "1", "1", "1"]
        assert data["command"] == "expand"

    def test_entropy_is_logseries(self):
        code, data = run_json(
            ["expand", "--stat", "boltzmann-gibbs", "--quantity", "entropy",
             "--order", "4"]
        )
        assert code == 0
        assert data["payload"]["plain"]["coeffs"] == ["0", "1", "0", "0", "0"]
        assert data["payload"]["log"]["coeffs"] == ["0", "-1", "0", "0", "0"]

    def test_phi_entropy_reports_normalization(self):
        code, data = run_json(
            ["expand", "--stat", "boltzmann-gibbs", "--quantity", "phi_entropy",
             "--order", "4"]
        )
        assert code == 0
        assert "registered as 1" in data["payload"]["normalization"]

    def test_parameter_passing(self):
        code, data = run_json(
            ["expand", "--stat", "acharya-swamy", "--quantity", "X_of_w",
             "--order", "4", "--param", "eps=1/3"]
        )
        assert code == 0
        assert data["payload"]["coeffs"] == ["0", "1", "1/3", "1/9", "1/27"]

    def test_csv_format(self):
        code, out = run(
            ["expand", "--stat", "mott", "--quantity", "phi_in_X", "--order", "5",
             "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == "index,coefficient"
        assert out.splitlines()[4] == "3,9"

    def test_unknown_entry_fails(self):
        code, _ = run(["expand", "--stat", "nope", "--quantity", "w"])
        assert code == 1

    def test_unknown_quantity_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["expand", "--stat", "mott", "--quantity", "nope"])
        assert exc.value.code == 2

    def test_series_json_roundtrips_schema(self):
        code, data = run_json(
            ["expand", "--stat", "fermi-dirac", "--quantity", "F", "--order", "6"]
        )
        series = fps.series_from_json(
            {"order": data["payload"]["order"], "coeffs": data["payload"]["coeffs"]}
        )
        assert series.order == 6


class TestStatisticsCommands:
    def test_dual_swaps(self):
        code, data = run_json(["dual", "--stat", "bose-einstein", "--order", "6"])
        assert code == 0
        assert data["payload"]["w"]["coeffs"][:4] == ["0", "1", "-1", "1"]

    def test_compose_inverse_weights(self):
        code, data = run_json(
            ["compose", "--stat", "bose-einstein", "--stat2", "fermi-dirac",
             "--order", "6"]
        )
        assert code == 0
        assert data["payload"]["w"]["coeffs"] == ["0", "1", "0", "0", "0", "0", "0"]

    def test_polyseq_conjugate(self):
        code, data = run_json(
            ["polyseq", "--stat", "exponential", "--kind", "conjugate", "--n", "4"]
        )
        assert code == 0
        rows = [p["coeffs"] for p in data["payload"]["polynomials"]]
        assert rows[4] == ["0", "1", "7", "6", "1"]

    def test_polyseq_associated_agrees_with_conjugate(self):
        _, conj = run_json(
            ["polyseq", "--stat", "lah", "--kind", "conjugate", "--n", "4"]
        )
        _, asso = run_json(
            ["polyseq", "--stat", "lah", "--kind", "associated", "--n", "4"]
        )
        assert conj["payload"]["polynomials"] == asso["payload"]["polynomials"]

    def test_polyseq_sheffer_with_prefactor(self):
        code, data = run_json(
            ["polyseq", "--stat", "boltzmann-gibbs", "--kind", "sheffer",
             "--n", "3", "--g-coeffs", "1,0,1/2,0,0,0,0,0,0,0,0"]
        )
        assert code == 0
        # g ~ 1 + t^2/2 with f = t: s_3 = x^3 - 3x
        assert data["payload"]["polynomials"][3]["coeffs"] == ["0", "-3", "0", "1"]

    def test_spectral_samples(self):
        code, data = run_json(
            ["spectral", "--stat", "fermi-dirac", "--points", "0,1/3",
             "--order", "8"]
        )
        assert code == 0
        assert data["payload"]["samples"][0] == {"X": "0", "z": "1", "Y": "0"}
        assert data["payload"]["samples"][1]["z"] == "4/3"

    def test_spectral_csv(self):
        code, out = run(
            ["spectral", "--stat", "fermi-dirac", "--points", "1/3",
             "--order", "8", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == "X,z,Y"


class TestMaxent:
    def test_two_level_solution(self):
        code, data = run_json(
            ["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,1",
             "--energy-target", "1/4", "--order", "8"]
        )
        assert code == 0
        assert data["payload"]["converged"] is True
        assert abs(data["payload"]["b"] - math.log(3)) < 1e-9

    def test_nonconvergent_target_reports_failure(self):
        # two levels cannot average to energy 5: Newton must not pretend
        code, data = run_json(
            ["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,1",
             "--energy-target", "5", "--order", "8"]
        )
        assert code == 1
        assert data["payload"]["converged"] is False


    def test_exp_overflow_in_line_search_is_nonconvergence(self):
        code, data = run_json(
            ["maxent", "--stat", "fermi-dirac", "--energies", "0,1,2",
             "--energy-target", "1/2"]
        )
        assert code == 1
        assert data["payload"]["converged"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--stat", "fermi-dirac", "--points", "1/0"],
        ["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,1/0",
         "--energy-target", "1/4"],
        ["expand", "--stat", "acharya-swamy", "--param", "eps=1/0",
         "--quantity", "w"],
    ],
)
def test_zero_denominator_is_an_error(argv, capsys):
    code, out = run(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--stat", "averaged-as-2", "--param", "eps=0", "--quantity", "w"],
        ["expand", "--stat", "averaged-as-3", "--param", "eps=0",
         "--quantity", "X_of_w"],
        ["expand", "--stat", "averaged-as-3", "--param", "eps=0", "--quantity", "phi"],
    ],
)
def test_zero_eps_is_an_error(argv, capsys):
    code, out = run(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: parameter eps must be nonzero\n"


@pytest.mark.parametrize(
    "energies, energy_target, number_target",
    [("0,1e400", "1/4", "1"), ("0,1", "1e400", "1"), ("0,1", "1/4", "1e400")],
)
def test_maxent_float_overflow_is_an_error(energies, energy_target, number_target,
                                           capsys):
    code, out = run(["maxent", "--stat", "boltzmann-gibbs", "--energies", energies,
                     "--energy-target", energy_target,
                     "--number-target", number_target])
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "text",
    ["1e1000", "1e-1000", "0.5e-999", "1e99999999999", "1e2000000",
     pytest.param("1" * 1001, id="1001-digit-numerator"),
     pytest.param("1/" + "3" * 1001, id="1001-digit-denominator")],
)
def test_rational_beyond_digit_bound_is_an_error(text, monkeypatch, capsys):
    monkeypatch.setattr(cli, "Fraction", lambda text: pytest.fail("converted"))
    monkeypatch.setattr(cli.cat, "get", lambda name: pytest.fail("series work done"))
    code, out = run(["expand", "--stat", "acharya-swamy", "--param", f"eps={text}",
                     "--quantity", "w"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"more than {cli.MAX_DIGITS} digits" in err


def test_rational_at_digit_bound_prints_at_order_16():
    assert cli.parse_rational("1e999") == 10**999
    assert cli.parse_rational("0.5e-998") == F(1, 2 * 10**998)
    limit = sys.get_int_max_str_digits()
    code, data = run_json(["expand", "--stat", "acharya-swamy", "--param", "eps=1e999",
                           "--quantity", "w", "--order", "16"])
    assert code == 0
    # w_k = (-eps)^(k-1): w_16 has 14986 digits, beyond the default str limit
    assert data["payload"]["coeffs"][16] == "-1" + "0" * (999 * 15)
    assert sys.get_int_max_str_digits() == limit


def test_gentile_occupancy_must_be_an_integer(capsys):
    code, out = run(["expand", "--stat", "gentile", "--param", "p=5/2",
                     "--quantity", "w"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: --param p expects an integer, got '5/2'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--stat", "acharya-swamy", "--param", "eps=1,2", "--quantity", "w"],
        ["expand", "--stat", "gentile", "--param", "p=1,2", "--quantity", "w"],
    ],
)
def test_comma_list_outside_t_is_an_error(argv, capsys):
    code, out = run(argv)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: not a rational number: '1,2'\n"


@pytest.mark.parametrize(
    "pair, expected",
    [("t=1", [F(1)]), ("t=1,1/2", [F(1), F(1, 2)]), ("t=,", [])],
)
def test_t_takes_a_comma_list(pair, expected):
    assert cli.parse_params([pair]) == {"t": expected}


def test_empty_t_is_an_error():
    with pytest.raises(ValueError, match="not a rational number"):
        cli.parse_params(["t="])


def test_closed_stdout_exits_1_without_traceback():
    src = str(Path(umbral_stats.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so every write fails
    try:
        result = subprocess.run(
            [sys.executable, "-m", "umbral_stats.cli", "expand", "--stat",
             "bose-einstein", "--quantity", "w", "--order", "5"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


def count_inversions(monkeypatch) -> list:
    """Record every lagrange_invert call made through any umbral_stats module."""
    calls = []
    real = fps.lagrange_invert

    def counted(a):
        calls.append(a)
        return real(a)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("umbral_stats") and (
            getattr(module, "lagrange_invert", None) is real
        ):
            monkeypatch.setattr(module, "lagrange_invert", counted)
    return calls


def test_polyseq_associated_inverts_nothing(monkeypatch):
    calls = count_inversions(monkeypatch)
    code, _ = run(["polyseq", "--stat", "lah", "--kind", "associated", "--n", "4",
                   "--order", "40"])
    assert code == 0 and calls == []


def test_polyseq_sheffer_inverts_nothing(monkeypatch):
    calls = count_inversions(monkeypatch)
    code, _ = run(["polyseq", "--stat", "lah", "--kind", "sheffer", "--n", "4",
                   "--order", "40", "--g-coeffs", "1,1/2,-1,0,1"])
    assert code == 0 and calls == []


def test_map_g_inverts_once(monkeypatch):
    phi = de.PhiSeries.from_t([F(1, 2), F(-1, 3), F(2)], order=10)
    calls = count_inversions(monkeypatch)
    de.map_g(phi).X_of_w
    assert len(calls) == 1


def test_tau_inverts_once(monkeypatch):
    phi = de.PhiSeries.from_t([F(1, 2), F(-1, 3), F(2)], order=10)
    calls = count_inversions(monkeypatch)
    de.tau(phi)
    assert len(calls) == 1


def test_dual_reuses_known_inverses(monkeypatch):
    stat = cli.cat.build("bose-einstein", 10)
    stat.X_of_w
    calls = count_inversions(monkeypatch)
    assert st.dual(st.dual(stat)).X_of_w == stat.X_of_w
    assert st.dual(stat).X_of_w == stat.w
    assert calls == []


def test_sheffer_inverse_inverts_once(monkeypatch):
    f = um.DeltaSeries(fps.TruncatedSeries([0, 1, F(1, 2), F(-1, 3), 2, 0, 1]))
    g = um.InvertibleSeries(fps.TruncatedSeries([1, F(1, 2), -1, 0, 1, 3, F(2, 5)]))
    calls = count_inversions(monkeypatch)
    um.ShefferPair(g, f).inverse()
    assert calls == [f.series]


def test_connection_coefficients_invert_once(monkeypatch):
    f = um.DeltaSeries(fps.TruncatedSeries([0, 2, F(1, 2), F(-1, 3), 2, 0, 1]))
    g = um.DeltaSeries(fps.TruncatedSeries([0, 1, 1, F(1, 6), 0, -1, F(3, 7)]))
    calls = count_inversions(monkeypatch)
    um.connection_coefficients(f, g, 6)
    assert calls == [f.series]


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--stat", "lah", "--quantity", "w", "--order", "0"],
        ["expand", "--stat", "lah", "--quantity", "w", "--order", "129"],
        ["dual", "--stat", "lah", "--order", "-3"],
        ["polyseq", "--stat", "lah", "--kind", "conjugate", "--n", "0"],
        ["polyseq", "--stat", "lah", "--kind", "conjugate", "--n", "129"],
        ["verify", "--suite", "binomial", "--order", "100000"],
    ],
)
def test_order_outside_ceiling_is_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli.cat, "get", lambda name: pytest.fail("series work done"))
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"is outside 1..{cli.MAX_ORDER}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "129", "10000"])
def test_env_order_outside_ceiling_is_an_error(value, monkeypatch, capsys):
    monkeypatch.setenv("UMBRAL_ORDER", value)
    monkeypatch.setattr(cli.cat, "get", lambda name: pytest.fail("series work done"))
    code, out = run(["expand", "--stat", "lah", "--quantity", "w"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == (
        f"error: UMBRAL_ORDER={value!r} is outside 1..{cli.MAX_ORDER}\n"
    )


def test_order_ceiling_is_accepted(monkeypatch):
    monkeypatch.setenv("UMBRAL_ORDER", str(cli.MAX_ORDER))
    code, data = run_json(["expand", "--stat", "boltzmann-gibbs", "--quantity", "F"])
    assert code == 0 and data["payload"]["order"] == cli.MAX_ORDER
    code, data = run_json(["polyseq", "--stat", "boltzmann-gibbs", "--kind",
                           "conjugate", "--n", str(cli.MAX_ORDER)])
    assert code == 0 and len(data["payload"]["polynomials"]) == cli.MAX_ORDER + 1


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, data = run_json(
            ["verify", "--suite", "fixtures", "--order", "10", "--seed", "0"]
        )
        assert code == 0 and capsys.readouterr().err == ""
        assert data["payload"]["passed"] is True
        assert data["payload"]["checks"]

    def test_seed_determinism(self):
        _, first = run_json(
            ["verify", "--suite", "duality", "--order", "8", "--seed", "5"]
        )
        _, second = run_json(
            ["verify", "--suite", "duality", "--order", "8", "--seed", "5"]
        )
        a = [c["name"] for c in first["payload"]["checks"]]
        b = [c["name"] for c in second["payload"]["checks"]]
        assert a == b
        assert first["payload"]["passed"] and second["payload"]["passed"]

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_failure_lines_carry_the_flags_that_rerun_them(self, monkeypatch, capsys):
        def failing(order, seed):
            return [
                verify.PropertyResult("duality", "held", True),
                verify.PropertyResult("duality", "broke", False, "instance 7"),
                verify.PropertyResult("duality", "bare", False),
            ]

        monkeypatch.setitem(verify._SUITE_FUNCTIONS, "duality", failing)
        code, data = run_json(["verify", "--suite", "duality", "--order", "9",
                               "--seed", "4"])
        assert code == 1 and data["payload"]["passed"] is False
        assert capsys.readouterr().err.splitlines() == [
            "FAIL duality:broke instance 7 (--order 9 --seed 4)",
            "FAIL duality:bare (--order 9 --seed 4)",
        ]


class TestOeisCheck:
    def test_offline_pass(self):
        code, data = run_json(
            ["oeis-check", "--entry", "lah", "--quantity", "X_of_w",
             "--sequence", "A000108"]
        )
        assert code == 0
        assert data["payload"]["matching_prefix"] >= 8
        assert data["payload"]["source"] == "offline"

    def test_mott_y_sequence(self):
        code, data = run_json(
            ["oeis-check", "--entry", "mott", "--quantity", "Y"]
        )
        assert code == 0
        assert data["payload"]["matching_prefix"] >= 6

    def test_wrong_sequence_id_fails(self):
        code, _ = run(
            ["oeis-check", "--entry", "lah", "--quantity", "X_of_w",
             "--sequence", "A000002"]
        )
        assert code == 1

    def test_quantity_without_fixture_fails(self):
        code, _ = run(["oeis-check", "--entry", "lah", "--quantity", "entropy"])
        assert code == 1


class TestEnvironment:
    def test_default_order_env(self, monkeypatch):
        monkeypatch.setenv("UMBRAL_ORDER", "6")
        code, data = run_json(
            ["expand", "--stat", "bose-einstein", "--quantity", "w"]
        )
        assert code == 0
        assert data["payload"]["order"] == 6

    def test_invalid_env_falls_back(self, monkeypatch, capsys):
        monkeypatch.setenv("UMBRAL_ORDER", "bogus")
        assert cli.default_order() == 16

    def test_invalid_env_warns_once(self, monkeypatch, capsys):
        monkeypatch.setenv("UMBRAL_ORDER", "abc")
        code, data = run_json(["expand", "--stat", "bose-einstein", "--quantity", "w"])
        assert code == 0 and data["payload"]["order"] == 16
        assert capsys.readouterr().err.count("warning: ignoring invalid") == 1


def test_import_does_not_load_http_client():
    src = str(Path(umbral_stats.__file__).resolve().parents[1])
    probe = "import sys, umbral_stats.cli; print('urllib.request' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


# -- fuzzing: argument vectors from a bounded grammar ----------------------------

_digits = hs.from_regex(r"[0-9]{1,3}", fullmatch=True)
# rationals of at most 3 digits, with the edge cases written out
_rational = hs.one_of(
    hs.sampled_from(["0", "1/0", "", "-0", "1/2", " 1 "]),
    hs.builds(
        lambda sign, num, den: f"{sign}{num}{den}",
        hs.sampled_from(["", "-", "+"]),
        _digits,
        hs.one_of(hs.just(""), _digits.map("/{}".format), _digits.map(".{}".format)),
    ),
)
# comma lists, where an empty item is a stray comma
_rationals = hs.lists(_rational, max_size=4).map(",".join)
_stat = hs.sampled_from(cat.list_entries() + ["no-such-entry"])
_param = hs.one_of(
    hs.builds(
        "{}={}".format,
        hs.sampled_from(["eps", "a", "b", "t", "p", "q"]),
        hs.one_of(_rational, _rationals),
    ),
    hs.sampled_from(["eps", "=1", ""]),
)


def _flag(name, values):
    return values.map(lambda v: [name, v])


def _optional(name, values):
    return hs.one_of(hs.just([]), _flag(name, values))


def _params(name):
    return hs.lists(_flag(name, _param), max_size=2).map(lambda fs: sum(fs, []))


_common = [
    _optional("--order", hs.one_of(hs.integers(-1, 12).map(str), hs.just("x"))),
    _optional("--format", hs.sampled_from(["json", "csv", "pretty", "xml"])),
]
_with_stat = [_flag("--stat", _stat), _params("--param")] + _common
_small_int = hs.integers(-1, 5).map(str)
_floats = hs.sampled_from(["0", "1", "-1", "nan", "inf"])

_COMMANDS = {
    "expand": _with_stat + [
        _flag("--quantity", hs.sampled_from(cli.EXPAND_QUANTITIES + ("gamma",))),
    ],
    "dual": _with_stat,
    "compose": _with_stat + [
        _flag("--stat2", _stat), _params("--param2"), _optional("--m", _small_int),
    ],
    "polyseq": _with_stat + [
        _flag("--kind", hs.sampled_from(["conjugate", "associated", "sheffer"])),
        _flag("--n", hs.integers(-1, 12).map(str)),
        _optional("--g-coeffs", _rationals),
    ],
    "spectral": _with_stat + [_flag("--points", _rationals)],
    "maxent": _with_stat + [
        _flag("--energies", _rationals),
        _flag("--energy-target", _rational),
        _optional("--number-target", _rational),
        _optional("--a0", _floats),
        _optional("--b0", _floats),
    ],
    "verify": _common + [
        _optional("--suite", hs.sampled_from(("all", "bogus") + verify.SUITES)),
        _optional("--seed", _small_int),
    ],
    # offline only: --fetch would reach the network
    "oeis-check": _common + [
        _flag("--entry", _stat),
        _flag("--quantity", hs.sampled_from(["X_of_w", "w", "phi", "z", "gamma", "nope"])),
        _optional("--sequence", hs.sampled_from(["A000108", "A000000", "x"])),
    ],
}
_argv = hs.sampled_from(sorted(_COMMANDS)).flatmap(
    lambda command: hs.tuples(*_COMMANDS[command]).map(
        lambda parts: [command] + sum(parts, [])
    )
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv)
def test_fuzzed_argv_ends_without_traceback(argv):
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        try:
            code = cli.main(argv, stream=io.StringIO())
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr.getvalue(), argv
