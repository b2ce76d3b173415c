"""Verification harness: suite selection, report shape, failure surfacing."""

from functools import lru_cache

import pytest

from umbral_stats import catalog as cat
from umbral_stats import verify
from umbral_stats.catalog import Fixture
from umbral_stats.deformed_entropy import EntropyDensity
from umbral_stats.series import TruncatedSeries
from umbral_stats.statistics import Statistics, _twist, group_compose
from umbral_stats.umbral import Polynomial, PolynomialSequence
from umbral_stats.verify import PropertyResult, VerifyReport


@pytest.fixture
def cold_catalog(monkeypatch):
    """Catalog caches of the test's own, so that no statistics built or
    memoized under a swapped function outlives the test."""
    monkeypatch.setattr(
        verify.cat, "_cached_build", lru_cache(256)(verify.cat._cached_build.__wrapped__)
    )
    monkeypatch.setattr(
        verify.cat, "_cached_quantity",
        lru_cache(256)(verify.cat._cached_quantity.__wrapped__),
    )


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run("bogus")


def test_single_suite_report_shape():
    report = verify.run("duality", order=8, seed=1)
    assert report.passed
    data = report.to_json()
    assert data["passed"] is True
    assert all(c["suite"] == "duality" for c in data["checks"])


@pytest.mark.parametrize("order", [4, 6])
def test_every_suite_passes_at_small_orders(order):
    assert verify.run("all", order, 0).passed


def test_orders_a_suite_cannot_be_stated_at_are_rejected():
    with pytest.raises(ValueError, match="main-theorem suite needs order 2"):
        verify.run("all", 1, 0)
    with pytest.raises(ValueError, match="xi suite needs order 3"):
        verify.run("xi", 2, 0)
    for suite in verify.SUITES:
        if suite not in ("main-theorem", "xi"):
            assert verify.run(suite, 1, 0).passed, suite
    assert verify.run("main-theorem", 2, 0).passed


def test_failures_are_listed():
    report = VerifyReport(
        [
            PropertyResult("x", "good", True),
            PropertyResult("x", "bad", False, "counterexample"),
        ],
        0.0,
    )
    assert not report.passed
    assert [r.name for r in report.failures()] == ["bad"]


def test_a_wrong_xi_fails_the_dual_path_checks(monkeypatch):
    real = verify.xi

    def wrong(arg):
        coeffs = list(real(arg).coeffs)
        coeffs[3] += 1
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(verify, "xi", wrong)
    results = verify.run("xi", 16, 0).results
    dual = [r for r in results if r.name.startswith("dual-path:")]
    assert len(dual) == len(cat.entries_in_space())
    assert all(r.detail == "integral and F(X(u)) differ at u^3" for r in dual)
    assert not any(r.passed for r in dual)
    assert [r.passed for r in results if r not in dual] == [True]


def test_doctored_fixture_fails_check():
    record = {
        "entry": "bose-einstein",
        "quantity": "w",
        "coeffs": ["0", "1", "1", "2"],  # wrong tail
        "provenance": "DERIVED",
    }
    assert Fixture.from_record(record).check() is False


def test_random_statistics_is_seed_deterministic():
    import random

    a = verify.random_statistics(random.Random(4), 10)
    b = verify.random_statistics(random.Random(4), 10)
    assert a == b


@pytest.mark.parametrize("suite", ["binomial", "occupation"])
def test_exact_suites_draw_no_random_numbers(monkeypatch, suite):
    monkeypatch.setattr(verify.random, "Random", lambda *a: pytest.fail("drew"))
    checks = list(verify._SUITE_FUNCTIONS[suite](8, 0))
    count = {"binomial": 20, "occupation": 40}[suite]  # 20 catalog entries
    assert len(checks) == count and all(passed for _, passed, _ in checks)


def test_binomial_suite_reports_first_failing_degree(monkeypatch, cold_catalog):
    shifted = [Polynomial([1])]  # (x+1)^n fails at n = 1
    for _ in range(8):
        shifted.append(shifted[-1] * Polynomial([1, 1]))
    # cold caches: no statistics memoized its conjugate sequence before the plant
    monkeypatch.setattr(
        verify.st, "conjugate_sequence", lambda F, n: PolynomialSequence(shifted[: n + 1])
    )
    checks = list(verify.suite_binomial(8, 0))
    assert checks and all(check[1:] == (False, "n=1") for check in checks)


def test_occupation_recursion_reports_first_failing_triple(monkeypatch):
    # The suite checks the polynomials exactly, so the plant is a wrong W_k:
    # one more N^2 in W_k breaks the identity first at degree k.
    real = verify.st.occupation_polynomials
    for k in (2, 5, 8):
        def planted(stat, k_max, k=k):
            W = real(stat, k_max)
            bumped = list(W[k].coeffs)
            bumped[2] += 1
            W[k] = Polynomial(bumped)
            return W

        monkeypatch.setattr(verify.st, "occupation_polynomials", planted)
        checks = list(verify.suite_occupation(8, 0))
        assert len(checks) == 40
        assert all(check[1:] == (False, f"k={k}") for check in checks), k


def test_result_stops_at_first_failure():
    seen = []

    def details():
        for d in ("", "first", "second"):
            seen.append(d)
            yield d

    assert verify._first("n", details()) == ("n", False, "first")
    assert seen == ["", "first"]
    assert verify._first("n", iter(["", ""])) == ("n", True, "")


def test_a_wrong_inversion_fails_the_duality_check(monkeypatch, cold_catalog):
    # X(w) returned as w itself: dual(dual(s)) rebuilds F from s.w and would
    # still equal s, so the check must invert the dual's weight function anew.
    monkeypatch.setattr(verify.st, "lagrange_invert", lambda w: w)
    checks = {name: (passed, detail) for name, passed, detail in verify.suite_duality(16, 0)}
    passed, detail = checks["involution-100-random"]
    assert not passed and detail.startswith("instance 0:")


def test_suites_are_named_in_report_order():
    # The CLI's --suite choices and the benchmark's per-suite timings follow this order.
    assert verify.SUITES == (
        "inversion", "binomial", "occupation", "duality",
        "main-theorem", "gradient", "xi", "fixtures",
    )


def test_doctored_gamma_fixture_fails_check():
    (real,) = [f for f in cat.fixtures("lah") if f.quantity == "gamma"]
    rows = [list(row) for row in real.coeffs]
    rows[3][2] += 1
    record = {"entry": "lah", "quantity": "gamma", "coeffs": rows,
              "provenance": real.provenance}
    assert real.check() is True
    assert Fixture.from_record(record).check() is False


# -- failure branches: each swaps one function that verify calls -----------------


def failed_check(suite: str, name: str, order: int) -> PropertyResult:
    (result,) = [r for r in verify.run(suite, order, 0).results if r.name == name]
    assert not result.passed
    return result


def bumped(value, k: int):
    """The kernel or density ``value`` with 1 added to its u^k coefficient."""
    coeffs = list(value.series.coeffs)
    coeffs[k] += 1
    return type(value)(TruncatedSeries(coeffs))


def test_a_wrong_inversion_fails_the_roundtrip_check(monkeypatch, cold_catalog):
    monkeypatch.setattr(verify.fps, "lagrange_invert", lambda s: s)
    result = failed_check("inversion", "compose-roundtrip-50-random", 3)
    assert result.detail == (
        "roundtrip failed for instance 0: "
        "TruncatedSeries(['0', '1/2', '3/2', '-3/2'])"
    )


@pytest.mark.parametrize("swap, detail", [
    # a left projection is associative, and BG o a = BG
    (("group_compose", lambda v, w: v), "identity instance 0"),
    (("group_compose", lambda v, w: group_compose(v, group_compose(w, w))),
     "associativity instance 0"),
    (("group_compose_m", lambda v, w, m: w), "m=0 reduction instance 0"),
    # m = 0 goes through the twist like every other m
    (("_twist", lambda w, m: _twist(w, m or 1)), "m=0 reduction instance 0"),
])
def test_a_wrong_group_law_fails_the_group_law_check(monkeypatch, cold_catalog, swap, detail):
    monkeypatch.setattr(verify.st, *swap)
    assert failed_check("duality", "group-law-random-triples", 8).detail == detail


REAL = {name: getattr(verify, name) for name in ("map_g_inverse", "map_f_inverse")}


@pytest.mark.parametrize("swap, detail", [
    (("map_g_inverse", lambda stat: bumped(REAL["map_g_inverse"](stat), 2)),
     "kernel-statistics roundtrip, instance 0"),
    (("map_f_inverse", lambda h: bumped(REAL["map_f_inverse"](h), 2)),
     "kernel-density roundtrip, instance 0"),
    # applied twice, the shift adds 2 to a coefficient at or below u^4
    (("tau", lambda phi: bumped(phi, 2)), "tau involution, instance 0"),
    (("rho", lambda h: bumped(h, 1)), "rho involution, instance 0"),
])
def test_a_wrong_bijection_fails_the_roundtrip_check(monkeypatch, cold_catalog, swap, detail):
    monkeypatch.setattr(verify, *swap)
    assert failed_check("xi", "bijection-roundtrips-20-random", 8).detail == detail


def test_the_triangle_reads_the_density_off_the_statistics(monkeypatch, cold_catalog):
    # map_f wrong only for a statistics: the density of phi itself is right
    real = verify.map_f
    monkeypatch.setattr(verify, "map_f", lambda arg: (
        bumped(real(arg), 1) if isinstance(arg, Statistics) else real(arg)
    ))
    result = failed_check("xi", "bijection-roundtrips-20-random", 8)
    assert result.detail == "commuting triangle, instance 0"


def test_rho_is_compared_through_all_but_two_coefficients(monkeypatch, cold_catalog):
    # rho(rho(h)) keeps s_1..s_(h.order - 2); this rho drops s_5 and above
    real = verify.rho

    def rho_through_u4(h):
        coeffs = real(h).series.coeffs
        return EntropyDensity(TruncatedSeries([*coeffs[:5], *[0] * (len(coeffs) - 5)]))

    monkeypatch.setattr(verify, "rho", rho_through_u4)
    result = failed_check("xi", "bijection-roundtrips-20-random", 8)
    assert result.detail == "rho involution, instance 0"
