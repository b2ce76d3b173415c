"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or plain pytest: the
assertions are what matter, the printed lines are a human-readable
summary).  Every tolerance is pinned here; the exact checks allow no
tolerance at all.
"""

import math
import random
import time
from fractions import Fraction as F
from math import comb, factorial

from oracles import bernoulli_numbers, catalan_numbers, hermite_he, stirling2
from umbral_stats import catalog as cat
from umbral_stats import deformed_entropy as de
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats import verify
from umbral_stats.series import TruncatedSeries
from umbral_stats.umbral import (
    DeltaSeries,
    InvertibleSeries,
    binomial_identity_holds,
    conjugate_sequence,
    sheffer_sequence,
)


def report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_c01_closed_form_occupation_numbers():
    t0 = time.perf_counter()
    be = cat.build("bose-einstein", 16)
    fd = cat.build("fermi-dirac", 16)
    bg = cat.build("boltzmann-gibbs", 16)
    assert be.occupation_numbers() == [F(1)] * 16
    assert fd.occupation_numbers() == [F(1)] + [F(0)] * 15
    assert bg.occupation_numbers() == [F(1, factorial(n)) for n in range(1, 17)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    report(1, "closed-form occupation numbers (BE, FD, BG), exact, <1s")


def test_c02_lah_polynomial_table():
    seq = conjugate_sequence(DeltaSeries(cat.build("lah", 8).F), 4)
    assert seq[1].coeffs == (F(0), F(1))
    assert seq[2].coeffs == (F(0), F(2), F(1))
    assert seq[3].coeffs == (F(0), F(6), F(6), F(1))
    assert seq[4].coeffs == (F(0), F(24), F(36), F(12), F(1))
    report(2, "Lah-triangle polynomials through degree 4, exact")


def test_c03_stirling_triangle_against_recurrence_oracle():
    seq = conjugate_sequence(DeltaSeries(cat.build("exponential", 8).F), 8)
    for n in range(9):
        for k in range(n + 1):
            assert seq[n].coefficient(k) == stirling2(n, k), (n, k)
    report(3, "exponential-family polynomials match the Stirling recurrence, n<=8")


def test_c04_catalan_inversions():
    lah = cat.build("lah", 9)
    expected = [F(1), F(-2), F(5), F(-14), F(42), F(-132), F(429), F(-1430)]
    assert list(lah.X_of_w.coeffs[1:9]) == expected
    # scaled-Catalan form for the two-sided-log entry: X(w) = 2(sqrt(1+w^2)-1)/w
    ml = cat.build("mittag-leffler", 18)
    n = 18
    w = fps.identity(n)
    closed = 2 * fps.shift_down(
        fps.pow_rational(fps.one(n) + fps.mul(w, w), F(1, 2)) - fps.one(n)
    )
    assert ml.X_of_w.agrees_with(closed, 17)
    C = catalan_numbers(8)
    for k in range(1, 9):
        assert ml.X_of_w[2 * k - 1] == F((-1) ** (k - 1) * C[k - 1], 4 ** (k - 1))
    report(4, "Catalan inversion coefficients (lah alternating, scaled two-sided log)")


def test_c05_mott_fixtures():
    mott = cat.build("mott", 13)
    assert [int(c) for c in mott.w.coeffs[1:13:2]] == [
        comb(2 * n - 1, n) for n in range(1, 7)
    ]
    phi_in_x = cat.get("mott").quantity("phi_in_X", 11)
    assert [int(phi_in_x[2 * n + 1]) for n in range(6)] == [1, 9, 50, 245, 1134, 5082]
    Y = cat.get("mott").quantity("Y", 11)
    assert [int(Y[2 * n]) for n in range(6)] == [1, -2, 10, -66, 498, -4066]
    report(5, "Mott kernel/weight/Y expansions (A001818, central binomial, A027307)")


def test_c06_dilogarithm_bernoulli_expansion():
    xi = cat.get("dilogarithm").quantity("xi", 14)
    B = bernoulli_numbers(14)
    for n in range(14):
        assert xi[n + 1] == B[n] / factorial(n + 1), n
    report(6, "dilogarithm xi equals Bernoulli expansion through order 14, exact")


def test_c07_main_theorem_catalog_and_random():
    t0 = time.perf_counter()
    for name in cat.entries_in_space():
        stat = cat.build(name, 12)
        constant = cat.get(name).registered_constant
        assert de.main_theorem_holds(stat, constant), name
    rng = random.Random(2024)
    for i in range(100):
        stat = verify.random_statistics(rng, 12, f"random-{i}")
        assert de.main_theorem_holds(stat), i
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    report(7, "entropy/Legendre main identity, catalog + 100 random, exact, <30s")


def test_c08_gradient_identity():
    for name in cat.entries_in_space():
        assert de.entropy_gradient_holds(cat.build(name, 12)), name
    rng = random.Random(777)
    for i in range(50):
        assert de.entropy_gradient_holds(verify.random_phi(rng, 12)), i
    report(8, "entropy gradient identity, catalog + 50 random kernels, exact")


def test_c09_duality_involution():
    rng = random.Random(99)
    for i in range(100):
        stat = verify.random_statistics(rng, 12, f"random-{i}")
        assert st.dual(st.dual(stat)) == stat, i
    assert st.dual(cat.build("bose-einstein", 12)) == cat.build("fermi-dirac", 12)
    report(9, "weight-function duality: involution on 100 random, swaps BE/FD")


def test_c10_binomial_type_property():
    rng = random.Random(555)
    for name in cat.entries_in_space():
        seq = conjugate_sequence(DeltaSeries(cat.build(name, 8).F), 8)
        for n in range(1, 9):
            for _ in range(5):
                a = F(rng.randint(-6, 6), rng.randint(1, 4))
                b = F(rng.randint(-6, 6), rng.randint(1, 4))
                assert binomial_identity_holds(seq, a, b, n), (name, n)
    report(10, "binomial-type identity for all catalog families, n<=8, exact")


def test_c11_exclusion_state_counting():
    for g in range(1, 11):
        for n in range(11):
            assert st.haldane_wu_W(g, n, 0) == comb(g + n - 1, n)
            assert st.haldane_wu_W(g, n, 1) == comb(g, n)
    assert st.haldane_wu_W(3, 2, F(1, 2)) == F(35, 8)
    report(11, "exclusion state counting: bosonic/fermionic limits + 35/8 spot value")


def test_c12_wu_closed_form_inversion():
    rng = random.Random(321)
    n = 12
    w = fps.identity(n)
    for _ in range(5):
        a = F(rng.randint(-4, 4), rng.randint(1, 4))
        b = F(0)
        while b == 0:
            b = F(rng.randint(-4, 4), rng.randint(1, 4))
        stat = cat.build("gould", n, a=a, b=b)
        num = fps.pow_rational(fps.one(n) - a * w, a / b)
        den = fps.pow_rational(fps.one(n) - (a + b) * w, (a + b) / b)
        closed = fps.shift_up(fps.mul(num, fps.reciprocal(den)))
        assert stat.X_of_w.agrees_with(closed, n), (a, b)
    report(12, "two-parameter closed-form inversion at 5 random (a,b), order 12")


def test_c13_hermite_as_sheffer_sequence():
    # variance-kernel prefactor paired with the identity delta series;
    # the generating function is e^{xt - t^2/2}
    order = 10
    g = InvertibleSeries(
        fps.exp_series(TruncatedSeries([0, 0, F(1, 2)] + [0] * (order - 2)))
    )
    f = DeltaSeries(fps.identity(order))
    seq = sheffer_sequence(g, f, 8)
    for n in range(9):
        assert list(seq[n].coeffs) == hermite_he(n), n
    report(13, "Hermite polynomials as a Sheffer sequence match the recurrence, n<=8")


def test_c14_maximum_entropy_solver():
    sol = de.maxent_solve(cat.build("boltzmann-gibbs", 8), [0.0, 1.0], 0.25)
    assert sol.converged
    assert abs(sol.b - math.log(3)) < 1e-9
    assert abs(sol.residuals[0]) < 1e-9 and abs(sol.residuals[1]) < 1e-9
    fd = cat.build("fermi-dirac", 56)
    a, b = 0.5, 1.0
    energies = [0.0, 1.0, 2.0]
    ev = de.max_entropy_distribution(fd, energies, a, b)
    for p, e in zip(ev.p, energies):
        assert abs(p - 1.0 / (math.exp(a + b * e) + 1.0)) < 1e-9
    report(14, "max-entropy stationarity: two-level multiplier log 3, logistic <1e-9")


def test_c15_performance_envelope():
    t0 = time.perf_counter()
    result = verify.run("all", order=16, seed=0)
    elapsed = time.perf_counter() - t0
    assert result.passed, [r.name for r in result.failures()]
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    report(15, f"full verification suite at order 16 in {elapsed:.1f}s (<60s)")
