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


def test_binomial_suite_draws_no_random_numbers(monkeypatch):
    monkeypatch.setattr(verify.random, "Random", lambda *a: pytest.fail("drew"))
    results = verify.suite_binomial(8, 0)
    assert len(results) == 20 and all(r.passed for r in results)


def test_binomial_suite_reports_first_failing_degree(monkeypatch):
    shifted = [Polynomial([1])]  # (x+1)^n fails at n = 1
    for _ in range(8):
        shifted.append(shifted[-1] * Polynomial([1, 1]))
    # A cold catalog cache of its own, so that no statistics memoized its
    # conjugate sequence before the plant; the shared cache is left as it is.
    monkeypatch.setattr(
        verify.cat, "_cached_build", lru_cache(256)(verify.cat._cached_build.__wrapped__)
    )
    monkeypatch.setattr(
        verify.st, "conjugate_sequence", lambda F, n: PolynomialSequence(shifted[: n + 1])
    )
    results = verify.suite_binomial(8, 0)
    assert results and all(not r.passed and r.detail == "n=1" for r in results)


def test_occupation_recursion_reports_first_failing_triple(monkeypatch):
    real = verify.st.convolution_holds
    planted = {(0, 1, 2), (3, 4, 5)}

    def holds(W, n1, n2, k):
        if type(n1) is int and (n1, n2, k) in planted:
            return False
        return real(W, n1, n2, k)

    monkeypatch.setattr(verify.st, "convolution_holds", holds)
    results = [r for r in verify.suite_occupation(8, 0) if r.name.startswith("recursion:")]
    assert len(results) == 20
    assert all(not r.passed and r.detail == "(N1,N2,k)=(0,1,2)" for r in results)


def test_result_stops_at_first_failure():
    seen = []

    def details():
        for d in ("", "first", "second"):
            seen.append(d)
            yield d

    assert verify._result("s", "n", details()) == PropertyResult("s", "n", False, "first")
    assert seen == ["", "first"]
    assert verify._result("s", "n", iter(["", ""])) == PropertyResult("s", "n", True, "")
