"""Verification harness: suite selection, report shape, failure surfacing."""

from functools import lru_cache

import pytest

from umbral_stats import verify
from umbral_stats.catalog import Fixture
from umbral_stats.umbral import Polynomial, PolynomialSequence
from umbral_stats.verify import PropertyResult, VerifyReport


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


def test_doctored_fixture_fails_check():
    record = {
        "entry": "bose-einstein",
        "quantity": "w",
        "coeffs": ["0", "1", "1", "2"],  # wrong tail
        "provenance": "DERIVED",
    }
    assert Fixture(record).check() is False


def test_random_statistics_is_seed_deterministic():
    import random

    a = verify.random_statistics(random.Random(4), 10)
    b = verify.random_statistics(random.Random(4), 10)
    assert a == b


@pytest.mark.parametrize("suite", ["binomial", "occupation"])
def test_exact_suites_draw_no_random_numbers(monkeypatch, suite):
    monkeypatch.setattr(verify.random, "Random", lambda *a: pytest.fail("drew"))
    results = verify._SUITE_FUNCTIONS[suite](8, 0)
    checks = {"binomial": 20, "occupation": 40}[suite]  # 20 catalog entries
    assert len(results) == checks and all(r.passed for r in results)


def test_binomial_suite_reports_first_failing_degree(monkeypatch):
    shifted = [Polynomial([1])]  # (x+1)^n fails at n = 1
    for _ in range(8):
        shifted.append(shifted[-1] * Polynomial([1, 1]))
    # Cold catalog caches of its own, so that no statistics memoized its
    # conjugate sequence before the plant; the shared caches are left as they are.
    monkeypatch.setattr(
        verify.cat, "_cached_build", lru_cache(256)(verify.cat._cached_build.__wrapped__)
    )
    monkeypatch.setattr(
        verify.cat, "_cached_quantity",
        lru_cache(256)(verify.cat._cached_quantity.__wrapped__),
    )
    monkeypatch.setattr(
        verify.st, "conjugate_sequence", lambda F, n: PolynomialSequence(shifted[: n + 1])
    )
    results = verify.suite_binomial(8, 0)
    assert results and all(not r.passed and r.detail == "n=1" for r in results)


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
        results = verify.suite_occupation(8, 0)
        assert len(results) == 40
        assert all(not r.passed and r.detail == f"k={k}" for r in results), k


def test_result_stops_at_first_failure():
    seen = []

    def details():
        for d in ("", "first", "second"):
            seen.append(d)
            yield d

    assert verify._result("s", "n", details()) == PropertyResult("s", "n", False, "first")
    assert seen == ["", "first"]
    assert verify._result("s", "n", iter(["", ""])) == PropertyResult("s", "n", True, "")


def test_a_wrong_inversion_fails_the_duality_check(monkeypatch):
    # X(w) returned as w itself: dual(dual(s)) rebuilds F from s.w and would
    # still equal s, so the check must invert the dual's weight function anew.
    # Cold catalog caches of its own, so that no cached statistics keeps the
    # wrong X(w) in its memo after the test.
    monkeypatch.setattr(
        verify.cat, "_cached_build", lru_cache(256)(verify.cat._cached_build.__wrapped__)
    )
    monkeypatch.setattr(verify.st, "lagrange_invert", lambda w: w)
    results = {r.name: r for r in verify.suite_duality(16, 0)}
    assert not results["involution-100-random"].passed
    assert results["involution-100-random"].detail.startswith("instance 0:")
