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
from umbral_stats import oeis
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats import umbral as um
from umbral_stats import verify


def run(argv):
    stream = io.StringIO()
    code = cli.main(argv, stream=stream)
    return code, stream.getvalue()


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    return json.loads(text, parse_constant=lambda c: pytest.fail(f"not JSON: {c}"))


def run_json(argv):
    code, out = run(argv)
    return code, strict_json(out)


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

    def test_polyseq_help_names_the_series_of_each_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["polyseq", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("associated: the associated sequence of F's compositional inverse, "
                "which is the same conjugate sequence of F") in text

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



class TestRenderings:
    """The exact text of the csv and pretty renderings."""

    def test_logseries_csv(self):
        code, out = run(["expand", "--stat", "bose-einstein", "--quantity", "entropy",
                         "--order", "3", "--format", "csv"])
        assert code == 0
        assert out == "index,plain,log\n0,0,0\n1,1,-1\n2,1/2,-1\n3,1/3,-1\n"

    def test_polynomial_csv(self):
        code, out = run(["polyseq", "--stat", "bose-einstein", "--kind", "conjugate",
                         "--n", "3", "--format", "csv"])
        assert code == 0
        assert out == (
            "n,k,coefficient\n0,0,1\n1,0,0\n1,1,1\n2,0,0\n2,1,1\n2,2,1\n"
            "3,0,0\n3,1,2\n3,2,3\n3,3,1\n"
        )

    def test_pretty_field(self):
        code, out = run(["polyseq", "--stat", "bose-einstein", "--kind", "conjugate",
                         "--n", "3", "--format", "pretty"])
        assert code == 0
        assert out == "p_0 = 1\np_1 = x\np_2 = x^2 + x\np_3 = x^3 + 3*x^2 + 2*x\n"


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

    def test_an_early_stop_reports_the_steps_taken(self):
        # equal energies make the Jacobian singular at the start point
        code, data = run_json(
            ["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,0",
             "--energy-target", "0", "--number-target", "3"]
        )
        assert code == 1
        assert data["payload"]["iterations"] == 0
        assert data["payload"]["converged"] is False

    def test_payload_is_the_solution_record(self):
        code, data = run_json(
            ["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,1",
             "--energy-target", "1/4"]
        )
        assert code == 0
        assert tuple(data["payload"]) == de.MaxentSolution._fields

    def test_exp_overflow_in_line_search_is_nonconvergence(self):
        code, data = run_json(
            ["maxent", "--stat", "fermi-dirac", "--energies", "0,1,2",
             "--energy-target", "1/2"]
        )
        assert code == 1
        assert data["payload"]["converged"] is False

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--a0", "-1000"], "start point (a0, b0) = (-1000.0, 0.0) overflows exp"),
            (["--energies", "0,1e300", "--b0", "-1"],
             "start point (a0, b0) = (0.0, -1.0) overflows exp"),
            (["--a0", "nan"], "not a rational number: 'nan'"),
            (["--a0", "inf"], "not a rational number: 'inf'"),
            (["--b0", "1e400"], "'1e400' is too large for a float"),
            (["--stat", "bose-einstein", "--a0=-50"],
             "maxent did not converge: the last iterate is not finite"),
            (["--energies="], "not a rational number: ''"),
            (["--energies=,"], "not a rational number: ''"),
        ],
    )
    def test_bad_start_or_infinite_iterate_is_an_error(self, args, message, capsys):
        argv = ["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,1",
                "--energy-target", "1/4"] + args
        code, out = run(argv)
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_start_point_is_a_rational(self):
        code, data = run_json(
            ["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,1",
             "--energy-target", "1/4", "--order", "8", "--a0", "1/3", "--b0=-1/2"]
        )
        assert code == 0
        assert abs(data["payload"]["b"] - math.log(3)) < 1e-9


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
    """The catalog alone decides what p may be, and only gentile takes it."""
    for stat, message in [
        ("gentile", "maximum occupancy p must be a positive integer"),
        ("abel", "entry 'abel' takes no parameter 'p'; valid: ['a']"),
    ]:
        code, out = run(["expand", "--stat", stat, "--param", "p=5/2", "--quantity", "w"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"


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
    [("t=1", [F(1)]), ("t=1,1/2", [F(1), F(1, 2)])],
)
def test_t_takes_a_comma_list(pair, expected):
    assert cli.parse_params([pair]) == {"t": expected}


def test_empty_t_is_an_error():
    with pytest.raises(ValueError, match="not a rational number"):
        cli.parse_params(["t="])


@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--stat", "fermi-dirac", "--points", "0,,1/3"],
        ["spectral", "--stat", "fermi-dirac", "--points", "0,1/3,"],
        ["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,,1",
         "--energy-target", "1/4"],
        ["maxent", "--stat", "boltzmann-gibbs", "--energies", ",0,1",
         "--energy-target", "1/4"],
        ["polyseq", "--stat", "lah", "--kind", "sheffer", "--n", "3",
         "--g-coeffs", "1,,1/2"],
        ["expand", "--stat", "bell-universal", "--param", "t=1,,1/2",
         "--quantity", "F"],
        ["expand", "--stat", "bell-universal", "--param", "t=,", "--quantity", "F"],
    ],
    ids=["points-inner", "points-trailing", "energies-inner", "energies-leading",
         "g-coeffs-inner", "t-inner", "t-comma-only"],
)
def test_empty_field_in_a_comma_list_is_an_error(argv, capsys):
    code, out = run(argv)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: not a rational number: ''\n"


@pytest.mark.parametrize(
    "t, echo", [("1,1/2", "1,1/2"), ("1,0.5,-2/4", "1,1/2,-1/2"), ("1", "1")]
)
def test_expand_echoes_t_as_a_comma_list(t, echo):
    code, data = run_json(["expand", "--stat", "bell-universal", "--param", f"t={t}",
                           "--quantity", "F", "--order", "4"])
    assert code == 0 and data["parameters"]["params"] == {"t": echo}


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


# -- negative rationals as separate words ---------------------------------------

NEGATIVE_VALUES = [
    ["maxent", "--stat", "boltzmann-gibbs", "--energies", "-1/2,1",
     "--energy-target", "-1/4", "--order", "8"],
    ["maxent", "--stat", "bose-einstein", "--energies", "0,1/2,1",
     "--energy-target", "1/4", "--a0", "-1/2", "--b0", "-1/3", "--order", "8"],
    ["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,1",
     "--energy-target", "1/4", "--number-target", "-1", "--order", "8"],
    ["spectral", "--stat", "fermi-dirac", "--points", "-1/3,0", "--order", "8"],
    ["spectral", "--stat", "fermi-dirac", "--points", "-.5e-1", "--order", "8"],
]


def _joined(argv):
    """argv with every option and the negative word after it as one --opt=value."""
    out, words = [], iter(argv)
    for word in words:
        out.append(word)
        if word.startswith("--"):
            value = next(words)
            if value.startswith("-"):
                out[-1] = f"{word}={value}"
            else:
                out.append(value)
    return out


def _without_time(record):
    return {k: v for k, v in record.items() if k != "elapsed_seconds"}


@pytest.mark.parametrize("argv", NEGATIVE_VALUES, ids=lambda a: " ".join(a[:1] + a[3:]))
def test_negative_rational_as_separate_word(argv):
    """A negative rational after an option is its value, as with --opt=value."""
    assert _joined(argv) != argv
    code, data = run_json(argv)
    joined_code, joined = run_json(_joined(argv))
    assert (code, _without_time(data)) == (joined_code, _without_time(joined))


def test_negative_energy_target_converges():
    code, data = run_json(NEGATIVE_VALUES[0])
    assert code == 0 and data["payload"]["converged"] is True
    assert data["parameters"]["energy_target"] == "-1/4"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectral", "--stat", "fermi-dirac", "--points", "-x"],
         "argument --points: expected one argument"),
        (["spectral", "--stat", "fermi-dirac", "--points", "0", "-x"],
         "unrecognized arguments: -x"),
        (["maxent", "--stat", "boltzmann-gibbs", "--energies", "0,1",
          "--energy-target", "-x"], "argument --energy-target: expected one argument"),
    ],
)
def test_word_that_is_not_a_number_is_still_an_option(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_negative_g_coeffs_reach_the_sequence_check(capsys):
    # g(0) = -1 gives s_0 = -1: the value is read, and the library rejects it
    code, out = run(["polyseq", "--stat", "exponential", "--kind", "sheffer",
                     "--n", "2", "--g-coeffs", "-1,0,1/2"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: sequence must start with p_0 = 1\n"


@pytest.mark.parametrize("n, g", [("3", "1,0,1/2"), ("6", "1,1/2,-1,0,1")])
def test_g_coeffs_name_a_polynomial_padded_with_zeros(n, g):
    # the coefficients not given are 0, as if written out to the order, 16
    argv = ["polyseq", "--stat", "lah", "--kind", "sheffer", "--n", n, "--g-coeffs"]
    code, data = run_json(argv + [g])
    _, padded = run_json(argv + [g + ",0" * (16 - g.count(","))])
    assert code == 0 and data["payload"] == padded["payload"]


def test_g_coeffs_one_is_the_default_g():
    argv = ["polyseq", "--stat", "lah", "--kind", "sheffer", "--n", "4"]
    code, data = run_json(argv + ["--g-coeffs", "1"])
    assert code == 0 and data["payload"] == run_json(argv)[1]["payload"]


@pytest.mark.parametrize("kind", ["conjugate", "associated"])
def test_g_coeffs_outside_sheffer_is_an_error(kind, capsys):
    code, out = run(["polyseq", "--stat", "lah", "--kind", kind, "--n", "3",
                     "--g-coeffs", "1,0,1/2"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: --g-coeffs applies to --kind sheffer only\n"


def test_malformed_negative_rational_is_an_error_line(capsys):
    code, out = run(["spectral", "--stat", "fermi-dirac", "--points", "-1/x"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err.startswith("error: not a rational number: '-1/x'")


@pytest.mark.parametrize("m", ["-1", "129"])
def test_twist_outside_ceiling_is_usage_error(m, monkeypatch, capsys):
    monkeypatch.setattr(cli.cat, "get", lambda name: pytest.fail("series work done"))
    with pytest.raises(SystemExit) as exc:
        run(["compose", "--stat", "bose-einstein", "--stat2", "fermi-dirac", "--m", m])
    assert exc.value.code == 2
    assert f"{m} is outside 0..{cli.MAX_ORDER}" in capsys.readouterr().err


def test_twist_at_ceiling_is_accepted():
    code, data = run_json(["compose", "--stat", "bose-einstein", "--stat2", "fermi-dirac",
                           "--m", str(cli.MAX_ORDER), "--order", "4"])
    assert code == 0 and data["parameters"]["m"] == cli.MAX_ORDER


@pytest.mark.parametrize("value", ["0", "-1", "129", "10000"])
def test_env_order_outside_ceiling_is_an_error(value, monkeypatch, capsys):
    # UMBRAL_ORDER is --order's default, so it gets --order's usage error
    monkeypatch.setenv("UMBRAL_ORDER", value)
    monkeypatch.setattr(cli.cat, "get", lambda name: pytest.fail("series work done"))
    with pytest.raises(SystemExit) as exc:
        run(["expand", "--stat", "lah", "--quantity", "w"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --order: {value} is outside 1..{cli.MAX_ORDER}\n"
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
            yield "held", True, ""
            yield "broke", False, "instance 7"
            yield "bare", False, ""

        monkeypatch.setitem(verify._SUITE_FUNCTIONS, "duality", failing)
        code, data = run_json(["verify", "--suite", "duality", "--order", "9",
                               "--seed", "4"])
        assert code == 1 and data["payload"]["passed"] is False
        assert capsys.readouterr().err.splitlines() == [
            "FAIL duality:broke instance 7 (--order 9 --seed 4)",
            "FAIL duality:bare (--order 9 --seed 4)",
        ]

    def test_failure_lines_precede_the_record(self, monkeypatch):
        class Stdout(io.StringIO):
            def write(self, text):
                assert sys.stderr.getvalue().startswith("FAIL duality:broke")
                return super().write(text)

        monkeypatch.setitem(verify._SUITE_FUNCTIONS, "duality", lambda order, seed: [
            ("broke", False, "instance 7")])
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        stdout = Stdout()
        assert cli.main(["verify", "--suite", "duality"], stream=stdout) == 1
        assert json.loads(stdout.getvalue())["payload"]["passed"] is False


class TestOeisCheck:
    def test_offline_pass(self):
        code, data = run_json(
            ["oeis-check", "--entry", "lah", "--quantity", "X_of_w",
             "--sequence", "A000108"]
        )
        assert code == 0
        assert data["payload"]["matching_prefix"] >= 8
        assert data["payload"]["source"] == "offline"

    def test_payload_is_the_check_record(self):
        code, data = run_json(
            ["oeis-check", "--entry", "mott", "--quantity", "phi_in_X"]
        )
        assert code == 0
        assert tuple(data["payload"]) == oeis.SequenceCheck._fields

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

    @pytest.mark.parametrize("order", ["3", "16", "128"])
    def test_order_is_a_usage_error(self, order, capsys):
        # a fixture's length fixes the order of its check
        with pytest.raises(SystemExit) as exc:
            run(["oeis-check", "--entry", "lah", "--quantity", "X_of_w",
                 "--order", order])
        assert exc.value.code == 2
        assert "unrecognized arguments: --order" in capsys.readouterr().err


class TestEnvironment:
    def test_default_order_env(self, monkeypatch):
        monkeypatch.setenv("UMBRAL_ORDER", "6")
        code, data = run_json(
            ["expand", "--stat", "bose-einstein", "--quantity", "w"]
        )
        assert code == 0
        assert data["payload"]["order"] == 6

    def test_invalid_env_falls_back(self, monkeypatch, capsys):
        # an invalid UMBRAL_ORDER is not read where --order is given, nor by
        # a command that takes no --order
        monkeypatch.setenv("UMBRAL_ORDER", "bogus")
        code, data = run_json(["expand", "--stat", "bose-einstein", "--quantity", "w",
                               "--order", "5"])
        assert code == 0 and data["payload"]["order"] == 5
        code, _ = run(["oeis-check", "--entry", "lah", "--quantity", "X_of_w"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_invalid_env_warns_once(self, monkeypatch, capsys):
        # text that is not an integer is --order's usage error, stated once
        monkeypatch.setenv("UMBRAL_ORDER", "abc")
        monkeypatch.setattr(cli.cat, "get", lambda name: pytest.fail("series work done"))
        with pytest.raises(SystemExit) as exc:
            run(["expand", "--stat", "bose-einstein", "--quantity", "w"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error: argument --order: not an integer: 'abc'") == 1
        assert "warning" not in err

    def test_command_without_order_ignores_the_env(self, monkeypatch, capsys):
        monkeypatch.setenv("UMBRAL_ORDER", "0")
        code, data = run_json(["oeis-check", "--entry", "lah", "--quantity", "X_of_w",
                               "--sequence", "A000108"])
        assert code == 0 and data["payload"]["passed"]
        assert capsys.readouterr().err == ""

    def test_help_ignores_the_env(self, monkeypatch, capsys):
        monkeypatch.setenv("UMBRAL_ORDER", "0")
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "usage: umbral-stats" in capsys.readouterr().out

    def test_explicit_order_wins_over_the_env(self, monkeypatch):
        monkeypatch.setenv("UMBRAL_ORDER", "0")
        code, data = run_json(["dual", "--stat", "lah", "--order", "3"])
        assert code == 0 and data["parameters"]["order"] == 3

    def test_empty_env_counts_as_unset(self, monkeypatch, capsys):
        monkeypatch.setenv("UMBRAL_ORDER", "")
        code, data = run_json(["expand", "--stat", "bose-einstein", "--quantity", "w"])
        assert code == 0 and data["payload"]["order"] == 16
        assert capsys.readouterr().err == ""


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
_floats = hs.sampled_from(["0", "1", "-1", "-1000", "nan", "inf", "1e400"])

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
    stderr, stdout = io.StringIO(), io.StringIO()
    with redirect_stderr(stderr):
        try:
            code = cli.main(argv, stream=stdout)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr.getvalue(), argv
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if stdout.getvalue() and fmt == "json":
        strict_json(stdout.getvalue())
