"""Differential tests: the integer series kernels against schoolbook Fractions.

The kernels clear denominators once per call and loop over ``int``
numerators; the references in ``oracles`` do one ``Fraction`` operation per
step.  Inputs cover orders 1-20 (0-20 for ``mul``, ``reciprocal`` and
``divide``), runs of zero coefficients, coprime and very large denominators,
several linear and constant coefficients and awkward rational points.
The same inputs check the storage contract: every series and polynomial
output is int numerators over one positive denominator with no common
factor.
"""

import random
from fractions import Fraction as F
from math import comb, factorial, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from oracles import (
    X_OF_W_CLOSED_FORMS,
    binomial_root_series,
    divide_series,
    full_convolution_failure,
    schoolbook_binomial_defect,
    schoolbook_compose,
    schoolbook_eval,
    schoolbook_exp,
    schoolbook_log,
    schoolbook_mul,
    schoolbook_reversion,
    x_from_phi_recurrence,
)
from umbral_stats import catalog
from umbral_stats import deformed_entropy as de
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats import umbral
from umbral_stats.series import TruncatedSeries, _numerators
from umbral_stats.umbral import (
    DeltaSeries,
    InvertibleSeries,
    Polynomial,
    PolynomialSequence,
    _first_convolution_failure,
    binomial_identity_holds,
    conjugate_sequence,
    first_binomial_failure,
)

MERSENNE_61 = 2**61 - 1
LARGE_DENOMINATORS = (MERSENNE_61, 2**31 - 1, 10**9 + 7, 2**64)
SLOPES = (F(1), F(-1), F(1, 2), F(7, 3))
CONSTANTS = SLOPES + (F(-5, 3), F(3, 2**64), F(-MERSENNE_61, 8))

coefficient = hs.one_of(
    hs.just(F(0)),
    hs.builds(F, hs.integers(-9, 9), hs.sampled_from((1, 2, 3, 5, 7, 11, 13))),
    hs.builds(F, hs.integers(-(2**64), 2**64), hs.sampled_from(LARGE_DENOMINATORS)),
    hs.just(F(1, MERSENNE_61)),
)
point = hs.one_of(
    hs.just(F(0)),
    hs.builds(F, hs.integers(-50, -1), hs.integers(1, 7)),
    hs.builds(F, hs.integers(-(2**40), 2**40), hs.sampled_from(LARGE_DENOMINATORS)),
    coefficient,
)
kernel_settings = settings(max_examples=60, deadline=None, derandomize=True)


@hs.composite
def coefficient_lists(draw, order, zero_constant=False):
    """order + 1 coefficients with a run of zeros somewhere in the middle."""
    cs = draw(hs.lists(coefficient, min_size=order + 1, max_size=order + 1))
    start = draw(hs.integers(0, order))
    gap = draw(hs.integers(0, order + 1 - start))
    cs[start : start + gap] = [F(0)] * gap
    if zero_constant:
        cs[0] = F(0)
    return cs


@hs.composite
def low_degree_lists(draw, order):
    """order + 1 coefficients, zero above a degree e <= order: 0, 1, any
    e < order, or -1 (all zero)."""
    e = min(draw(hs.sampled_from((-1, 0, 1)) | hs.integers(-1, order - 1)), order)
    return draw(hs.lists(coefficient, min_size=e + 1, max_size=e + 1)) + [F(0)] * (order - e)


def integral_lists(order):
    """order + 1 integer coefficients with zero constant term: a common denominator of 1."""
    tail = hs.lists(hs.builds(F, hs.integers(-9, 9)), min_size=order, max_size=order)
    return tail.map(lambda cs: [F(0)] + cs)


orders = hs.integers(1, 20)
orders_from_0 = hs.integers(0, 20)


@kernel_settings
@given(hs.data(), orders_from_0)
def test_mul_matches_schoolbook(data, n):
    a = data.draw(coefficient_lists(n))
    b = data.draw(coefficient_lists(data.draw(hs.integers(n, 20))))
    product = fps.mul(TruncatedSeries(a), TruncatedSeries(b))
    assert list(product.coeffs) == schoolbook_mul(a, b, n)


@kernel_settings
@given(hs.data(), orders)
def test_compose_matches_schoolbook(data, n):
    # also outer series that end early and inner series over denominator 1
    outer = data.draw(coefficient_lists(n) | low_degree_lists(n))
    inner = data.draw(coefficient_lists(n, zero_constant=True) | integral_lists(n))
    result = fps.compose(TruncatedSeries(outer), TruncatedSeries(inner))
    assert list(result.coeffs) == schoolbook_compose(outer, inner, n)


def count_products(monkeypatch) -> list:
    """Record the truncation order of every integer Cauchy product."""
    calls = []
    real = fps._int_mul

    def counted(x, y, n):
        calls.append(n)
        return real(x, y, n)

    monkeypatch.setattr(fps, "_int_mul", counted)
    return calls


@pytest.mark.parametrize("degree", range(9))
def test_compose_builds_power_rows_through_the_last_outer_term(monkeypatch, degree):
    """One product per power of the inner series up to the outer series'
    last nonzero coefficient, whatever the order."""
    inner = catalog.build("bose-einstein", 12).w
    outer = [F(0)] * 13
    outer[: degree + 1] = [F(k - 3, k + 1) for k in range(degree)] + [F(-7, 2)]
    calls = count_products(monkeypatch)
    result = fps.compose(TruncatedSeries(outer), inner)
    assert len(calls) == degree
    assert list(result.coeffs) == schoolbook_compose(outer, list(inner.coeffs), 12)


def test_compose_with_minus_x_is_one_product(monkeypatch):
    w = catalog.build("abel", 16).w
    calls = count_products(monkeypatch)
    assert fps.compose(-fps.identity(16), w) == -w
    assert len(calls) == 1


def count_prefactors(monkeypatch) -> list:
    """Record the prefactor handed to every power table the umbral
    sequences read, and every reciprocal or composition they compute."""
    calls = []
    real_powers, real_reciprocal, real_compose = (
        umbral._int_powers, umbral.reciprocal, umbral.compose)

    def powers(base, n, start=None, last=None):
        calls.append(("start", start))
        return real_powers(base, n, start, last)

    def reciprocal(a):
        calls.append(("reciprocal", a))
        return real_reciprocal(a)

    def compose(outer, inner):
        calls.append(("compose", outer))
        return real_compose(outer, inner)

    monkeypatch.setattr(umbral, "_int_powers", powers)
    monkeypatch.setattr(umbral, "reciprocal", reciprocal)
    monkeypatch.setattr(umbral, "compose", compose)
    return calls


@pytest.mark.parametrize("g, built", [
    ([1], False), ([1, 0, 0, 0], False),
    ([1, 0, 0, 3], True), ([1, 1], True), ([1, 0, F(1, 2)], True),
])
def test_sheffer_sequence_of_g_one_builds_no_prefactor(monkeypatch, g, built):
    F_ = DeltaSeries(catalog.build("abel", 8).F)
    G = InvertibleSeries(TruncatedSeries(g + [0] * (8 - len(g) + 1)))
    calls = count_prefactors(monkeypatch)
    seq = umbral.conjugate_sheffer_sequence(G, F_, 8)
    kinds = [kind for kind, _ in calls]
    if built:
        assert kinds == ["compose", "reciprocal", "start"] and calls[-1][1] is not None
    else:
        assert calls == [("start", None)]
        assert seq == conjugate_sequence(F_, 8)


def test_sheffer_sequence_of_g_one_is_the_conjugate_sequence_on_every_entry():
    assert len(catalog.entries_in_space()) == 20
    for name in catalog.entries_in_space():
        F_ = DeltaSeries(catalog.build(name, 16).F)
        one = InvertibleSeries(fps.one(16))
        assert umbral.conjugate_sheffer_sequence(one, F_, 8) == conjugate_sequence(F_, 8), name


@kernel_settings
@given(hs.data(), orders)
def test_powers_match_repeated_schoolbook_products(data, n):
    base = data.draw(coefficient_lists(n))
    start = data.draw(hs.none() | coefficient_lists(n))
    table = fps.powers(
        TruncatedSeries(base), n, None if start is None else TruncatedSeries(start)
    )
    expected = [F(1)] + [F(0)] * n if start is None else start
    for row in table:
        assert list(row.coeffs) == expected
        expected = schoolbook_mul(expected, base, n)


@kernel_settings
@given(hs.data(), orders, hs.sampled_from(SLOPES))
def test_reversion_matches_lagrange_formula(data, n, slope):
    a = data.draw(coefficient_lists(n, zero_constant=True))
    a[1] = slope
    result = fps.lagrange_invert(TruncatedSeries(a))
    assert list(result.coeffs) == schoolbook_reversion(a, n)


@hs.composite
def kernel_lists(draw, order):
    """The order + 1 coefficients of a kernel p + c_2 p^2 + ...: phi = p
    (degree 1), dense (every c_j nonzero) or with a run of zero interior
    coefficients."""
    shape = draw(hs.sampled_from(("identity", "dense", "gapped")))
    if shape == "identity":
        tail = [F(0)] * (order - 1)
    elif shape == "dense":
        tail = draw(hs.lists(coefficient.filter(bool), min_size=order - 1, max_size=order - 1))
    else:
        tail = draw(coefficient_lists(order))[2:]
    return [F(0), F(1)] + tail


@kernel_settings
@given(hs.data(), hs.integers(1, 64))
def test_x_from_phi_matches_fraction_recurrence(data, n):
    phi = data.draw(kernel_lists(n))
    X = de.x_from_phi(de.PhiSeries(TruncatedSeries(phi)))
    assert list(X.coeffs) == x_from_phi_recurrence(phi, n)


@pytest.mark.parametrize("name", catalog.entries_in_space())
def test_reversion_of_catalog_weights_at_order_32(name):
    """Operands whose power-table integers reach thousands of bits (abel: 3606)."""
    w = catalog.build(name, 32).w
    expected = schoolbook_reversion(list(w.coeffs), 32)
    assert list(fps.lagrange_invert(w).coeffs) == expected


@kernel_settings
@given(hs.data(), hs.integers(0, 20), point)
def test_evaluation_matches_termwise_sum(data, degree, x):
    cs = data.draw(coefficient_lists(degree))
    assert fps.evaluate(TruncatedSeries(cs), x) == schoolbook_eval(cs, x)
    assert Polynomial(cs)(x) == schoolbook_eval(cs, x)


@kernel_settings
@given(hs.data(), orders)
def test_exp_matches_power_sum(data, n):
    a = data.draw(coefficient_lists(n, zero_constant=True))
    assert list(fps.exp_series(TruncatedSeries(a)).coeffs) == schoolbook_exp(a, n)


@kernel_settings
@given(hs.data(), orders)
def test_log_matches_power_sum(data, n):
    a = data.draw(coefficient_lists(n))
    a[0] = F(1)
    assert list(fps.log_series(TruncatedSeries(a)).coeffs) == schoolbook_log(a, n)


@kernel_settings
@given(hs.data(), orders_from_0, hs.sampled_from(CONSTANTS))
def test_reciprocal_matches_long_division(data, n, c0):
    a = data.draw(coefficient_lists(n))
    a[0] = c0
    assert list(fps.reciprocal(TruncatedSeries(a)).coeffs) == divide_series(
        [F(1)], a, n
    )


@kernel_settings
@given(hs.data(), orders_from_0, orders_from_0, hs.sampled_from(CONSTANTS))
def test_divide_matches_long_division(data, na, nb, c0):
    a = data.draw(coefficient_lists(na) | low_degree_lists(na))
    b = data.draw(coefficient_lists(nb) | low_degree_lists(nb))
    b[0] = c0
    n = min(na, nb)
    quotient = fps.divide(TruncatedSeries(a), TruncatedSeries(b))
    assert list(quotient.coeffs) == divide_series(a, b, n)


def test_divide_rejects_zero_constant_divisor():
    with pytest.raises(ValueError, match="nonzero constant term"):
        fps.divide(fps.one(3), fps.identity(3))


# Order-128 closed forms of the quotient and logarithm maps: each expected
# value is built from integers alone, with no call into the series module.
CLOSED_FORM_EPSILONS = (F(2, 3), F(-5, 2), F(7))


@pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
def test_log_of_linear_series_at_order_128(eps):
    # log(1 + eps X) = sum_{n>=1} (-1)^(n-1) eps^n X^n / n
    expected = [F(0)] + [(-1) ** (n - 1) * eps**n / n for n in range(1, 129)]
    got = fps.log_series(TruncatedSeries([1, eps] + [0] * 127))
    assert list(got.coeffs) == expected


@pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
def test_reciprocal_of_linear_series_at_order_128(eps):
    # 1 / (1 - eps X) = sum_{n>=0} eps^n X^n
    expected = [eps**n for n in range(129)]
    got = fps.reciprocal(TruncatedSeries([1, -eps] + [0] * 127))
    assert list(got.coeffs) == expected


@pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
def test_ln_phi_of_quadratic_kernel_at_order_128(eps):
    # phi = u - eps u^2 has G = u/phi = 1/(1 - eps u), so a_n = eps^n and
    # the plain part of ln_phi is sum_{n>=1} eps^n u^n / n, through u^127
    plain = de.ln_phi(de.PhiSeries.from_t([eps], order=128)).plain
    assert list(plain.coeffs) == [F(0)] + [eps**n / n for n in range(1, 128)]


# Order-128 closed forms of the kernel maps for phi = u - eps u^k:
# X = u (1 - eps u^(k-1))^(-1/(k-1)), its inverse w = v (1 + eps v^(k-1))^(-1/(k-1)),
# and tau(phi) = w / w' = u + eps u^k, which negates eps.
POWER_KERNEL_DEGREES = (2, 3, 5)


def power_kernel(eps, k):
    return de.PhiSeries.from_t([0] * (k - 2) + [eps], order=128)


@pytest.mark.parametrize("k", POWER_KERNEL_DEGREES)
@pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
def test_x_from_phi_of_power_kernel_at_order_128(eps, k):
    got = de.x_from_phi(power_kernel(eps, k))
    assert list(got.coeffs) == binomial_root_series(-eps, k, 128)


@pytest.mark.parametrize("k", POWER_KERNEL_DEGREES)
@pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
def test_weight_of_power_kernel_at_order_128(eps, k):
    got = de.map_g(power_kernel(eps, k)).w
    assert list(got.coeffs) == binomial_root_series(eps, k, 128)


@pytest.mark.parametrize("k", POWER_KERNEL_DEGREES)
@pytest.mark.parametrize("eps", CLOSED_FORM_EPSILONS)
def test_tau_of_power_kernel_at_order_128(eps, k):
    expected = [F(0), F(1)] + [F(0)] * 126
    expected[k] = eps
    assert list(de.tau(power_kernel(eps, k)).series.coeffs) == expected


@pytest.mark.parametrize("name", sorted(X_OF_W_CLOSED_FORMS))
def test_compose_with_closed_form_x_of_w_at_high_order(name):
    """Compositions whose power-table integers are large: X = X(w) from the
    family's closed form, with no call to lagrange_invert, at order 96 (64
    for exponential, whose factorial denominators grow fastest).  Then
    w(X(u)) = u, and F(X(u)) = integral of X' / (X/u), since F' = w / X."""
    n = 64 if name == "exponential" else 96
    coefficient = X_OF_W_CLOSED_FORMS[name]
    X = TruncatedSeries([F(0)] + [coefficient(k) for k in range(1, n + 1)])
    stat = catalog.build(name, n)
    assert fps.compose(stat.w, X) == fps.identity(n)
    expected = fps.integrate_extend(fps.divide(fps.derivative(X), fps.shift_down(X)))
    assert fps.compose(stat.F, X) == expected


@kernel_settings
@given(hs.data(), hs.integers(1, 8), point, point, hs.booleans())
def test_binomial_check_matches_termwise_evaluation(data, n, a, b, perturb):
    """The integer check against Fraction sums, on conjugate sequences of
    random delta series (binomial type) and on perturbed copies (mostly not)."""
    cs = data.draw(coefficient_lists(n, zero_constant=True))
    cs[1] = data.draw(hs.sampled_from(SLOPES))
    seq = conjugate_sequence(DeltaSeries(TruncatedSeries(cs)), n)
    if perturb:
        polys = list(seq)
        k = data.draw(hs.integers(1, n))
        j = data.draw(hs.integers(0, k - 1))
        bumped = list(polys[k].coeffs)
        bumped[j] += data.draw(coefficient)
        polys[k] = Polynomial(bumped)
        seq = PolynomialSequence(polys)

    def at(k, x):
        return schoolbook_eval(list(seq[k].coeffs), x)

    expected = at(n, a + b) == sum(
        (comb(n, k) * at(k, a) * at(n - k, b) for k in range(n + 1)), F(0)
    )
    assert binomial_identity_holds(seq, a, b, n) == expected


@kernel_settings
@given(hs.data(), hs.integers(1, 8), point, point, hs.booleans())
def test_exact_binomial_check_matches_coefficient_defect(data, n, a, b, perturb):
    """first_binomial_failure is the least degree whose schoolbook defect
    is nonzero, on conjugate sequences of random delta series and on copies
    with one coefficient (the leading one included) perturbed; and it is
    never later than a degree where a point evaluation fails."""
    cs = data.draw(coefficient_lists(n, zero_constant=True))
    cs[1] = data.draw(hs.sampled_from(SLOPES))
    seq = conjugate_sequence(DeltaSeries(TruncatedSeries(cs)), n)
    if perturb:
        polys = list(seq)
        k = data.draw(hs.integers(1, n))
        j = data.draw(hs.integers(0, k))
        bumped = list(polys[k].coeffs)
        bumped[j] += data.draw(coefficient)
        assume(bumped[k] != 0)
        polys[k] = Polynomial(bumped)
        seq = PolynomialSequence(polys)
    defective = [
        m for m in range(n + 1)
        if any(any(row) for row in schoolbook_binomial_defect(seq, m))
    ]
    first = first_binomial_failure(seq)
    assert first == min(defective, default=None)
    for m in range(n + 1):
        if not binomial_identity_holds(seq, a, b, m):
            assert first is not None and first <= m


def _tables(seq):
    """The binomial-type table of p_0..p_n with weights n!, and the
    convolution table of W_k = p_k / k! with weights 1."""
    n = len(seq) - 1
    factorials = [factorial(k) for k in range(n + 1)]
    W = [[c / factorials[k] for c in p.coeffs] for k, p in enumerate(seq)]
    return [
        ([list(p.coeffs) for p in seq], factorials),
        (W, [1] * (n + 1)),
    ]


def _perturbed(polys, positions, bump):
    out = [list(p) for p in polys]
    for k, j in positions:
        out[k] += [F(0)] * (j + 1 - len(out[k]))
        out[k][j] += bump
    return [_numerators(p) for p in out]


DEGREE = 5
# every coefficient of W_0..W_DEGREE, and the one above each degree
POSITIONS = [(k, j) for k in range(DEGREE + 1) for j in range(k + 2)]


@pytest.mark.parametrize("name", ["bose-einstein", "abel", "random"])
def test_triangle_check_matches_full_columns(name):
    """The least failing degree equals that of the full-column check, with
    weights n! and weights 1, for one or two coefficients perturbed at every
    position, the degree-raising ones included."""
    if name == "random":
        rng = random.Random(7)
        tail = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(DEGREE - 1)]
        F_series = TruncatedSeries([F(0), F(-2, 3)] + tail)
    else:
        F_series = catalog.build(name, DEGREE).F
    seq = conjugate_sequence(DeltaSeries(F_series), DEGREE)
    for polys, weights in _tables(seq):
        table = [_numerators(p) for p in polys]
        assert _first_convolution_failure(table, weights) is None
        assert full_convolution_failure(table, weights) is None
        for i, first in enumerate(POSITIONS):
            pairs = [(first, second) for second in POSITIONS[i + 1:]]
            for positions in [(first,)] + pairs:
                table = _perturbed(polys, positions, F(1, 3))
                assert _first_convolution_failure(table, weights) == (
                    full_convolution_failure(table, weights)
                ), positions


def test_zero_polynomial_evaluates_to_zero():
    assert Polynomial()(F(-3, MERSENNE_61)) == 0


# -- sympy's ring_series as a second, independent oracle ---------------------


@pytest.fixture(scope="module")
def rs():
    pytest.importorskip("sympy")
    from sympy.polys import ring_series
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    R, x, y = ring("x, y", QQ)

    def to_ring(coeffs, gen):
        terms = (QQ(c.numerator, c.denominator) * gen**k for k, c in enumerate(coeffs))
        return sum(terms, R(0))

    def from_ring(p, order, var):
        out = []
        for k in range(order + 1):
            c = p.coeff(var**k) if k else p.coeff(1)
            out.append(F(int(c.numerator), int(c.denominator)))
        return out

    return ring_series, x, y, to_ring, from_ring


@settings(max_examples=25, deadline=None, derandomize=True)
@given(hs.data(), orders)
def test_kernels_match_sympy_ring_series(rs, data, n):
    ring_series, x, y, to_ring, from_ring = rs
    a = data.draw(coefficient_lists(n))
    b = data.draw(coefficient_lists(n))
    product = ring_series.rs_mul(to_ring(a, x), to_ring(b, x), x, n + 1)
    assert list(fps.mul(TruncatedSeries(a), TruncatedSeries(b)).coeffs) == from_ring(
        product, n, x
    )

    delta = data.draw(coefficient_lists(n, zero_constant=True))
    delta[1] = data.draw(hs.sampled_from(SLOPES))
    inverse = ring_series.rs_series_reversion(to_ring(delta, x), x, n + 1, y)
    assert list(fps.lagrange_invert(TruncatedSeries(delta)).coeffs) == from_ring(
        inverse, n, y
    )

    exp = ring_series.rs_exp(to_ring(delta, x), x, n + 1)
    assert list(fps.exp_series(TruncatedSeries(delta)).coeffs) == from_ring(exp, n, x)

    unit = [F(1)] + delta[1:]
    log = ring_series.rs_log(to_ring(unit, x), x, n + 1)
    assert list(fps.log_series(TruncatedSeries(unit)).coeffs) == from_ring(log, n, x)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(hs.data(), orders)
def test_divide_matches_sympy_ring_series(rs, data, n):
    ring_series, x, y, to_ring, from_ring = rs
    a = data.draw(coefficient_lists(n))
    b = data.draw(coefficient_lists(n))
    b[0] = data.draw(hs.sampled_from(CONSTANTS))
    inverse = ring_series.rs_series_inversion(to_ring(b, x), x, n + 1)
    quotient = ring_series.rs_mul(to_ring(a, x), inverse, x, n + 1)
    assert list(fps.divide(TruncatedSeries(a), TruncatedSeries(b)).coeffs) == from_ring(
        quotient, n, x
    )


# -- the canonical storage contract -------------------------------------------


def assert_canonical(s: TruncatedSeries) -> None:
    """s is stored as int numerators over a positive int denominator with no
    common factor, reads back as the reduced Fractions (the same tuple on a
    second read), and equals and hashes as the same value built by the
    public constructor and from an unreduced pair."""
    nums, den = s._nums, s._den
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in nums)
    assert gcd(den, *nums) == 1
    cs = s.coeffs
    assert cs == tuple(F(c, den) for c in nums) and all(type(c) is F for c in cs)
    assert s.coeffs is cs
    unreduced = fps._canonical([-6 * c for c in nums], -6 * den)
    for twin in (TruncatedSeries(cs), fps._series(nums, den), unreduced):
        assert twin == s and hash(twin) == hash(s)
    longer = TruncatedSeries(cs + (F(0),))
    assert longer != s and longer.truncate(s.order) == s
    if s.order:
        assert s.truncate(s.order - 1) != s


def kernel_outputs(a, b, delta, unit, c0, x) -> list[TruncatedSeries]:
    """Every series kernel and helper applied to coefficient lists: a and b
    of any orders, a delta series, a unit series and a nonzero constant."""
    A, B, D, U = (TruncatedSeries(cs) for cs in (a, b, delta, unit))
    XU = fps.shift_up(U).truncate(U.order)  # X + O(X^2)
    n = A.order
    out = [
        fps.mul(A, B), fps.add(A, B), fps.sub(A, B), fps.scale(A, x), -A,
        fps.shift_up(A), fps.integrate_extend(A), fps.integrate(A),
        fps.reciprocal(TruncatedSeries([c0] + a[1:])),
        fps.divide(A, TruncatedSeries([c0] + b[1:])),
        fps.log_series(U), fps.pow_rational(U, x if x else F(1, 2)),
        fps.constant(x, n), fps.zero(n), fps.one(n), fps.from_function(lambda k: a[k], n),
        fps.shift_down(D), fps.compose(A, D), fps.compose(B, D), fps.exp_series(D),
        fps.lagrange_invert(D), fps.identity(D.order), fps.derivative(D),
        st.Statistics(XU).w, st.from_weight(XU).F, st._twist(D, 2),
        de.x_from_phi(de.PhiSeries(XU)), de._ln_phi(U).plain, de._h0_plain(U),
    ]
    out += [A.truncate(k) for k in range(n + 1)]
    out += fps.powers(A, n, B.truncate(n) if B.order >= n else None)
    out += fps.powers(D, D.order)
    return out


@kernel_settings
@given(hs.data(), orders_from_0, orders_from_0, orders, hs.sampled_from(CONSTANTS), point)
def test_every_output_is_canonical(data, na, nb, nd, c0, x):
    lists = [coefficient_lists, low_degree_lists, integral_lists]
    a = data.draw(hs.one_of(*(f(na) for f in lists)))
    b = data.draw(hs.one_of(*(f(nb) for f in lists)))
    delta = data.draw(coefficient_lists(nd, zero_constant=True) | integral_lists(nd))
    delta[1] = data.draw(hs.sampled_from(SLOPES))
    unit = data.draw(coefficient_lists(nd))
    unit[0] = F(1)
    for s in kernel_outputs(a, b, delta, unit, c0, x):
        assert_canonical(s)


@kernel_settings
@given(hs.data(), orders_from_0)
def test_public_constructor_is_canonical(data, n):
    cs = data.draw(coefficient_lists(n) | low_degree_lists(n) | integral_lists(n))
    s = TruncatedSeries([str(c) for c in cs])
    assert (list(s._nums), s._den) == _numerators(cs)
    assert_canonical(s)


def test_equal_values_store_equal_pairs():
    a = TruncatedSeries([F(2, 4), 3, "4/6", 0])
    assert (a._nums, a._den) == ((3, 18, 4, 0), 6)
    assert a == TruncatedSeries(["1/2", F(6, 2), F(2, 3), F(0, 5)])
    assert fps.zero(3)._nums == (0, 0, 0, 0) and fps.zero(3)._den == 1
    assert fps.mul(a, fps.zero(3)) == fps.zero(3)
    assert fps.reciprocal(TruncatedSeries([F(-2, 3)]))._nums == (-3,)
    assert fps.zero(2) != fps.zero(3)


def assert_polynomial_canonical(p: Polynomial) -> None:
    """p is stored as int numerators with no trailing zero over a positive
    int denominator with no common factor, reads back as the reduced
    Fractions (the same tuple on a second read), takes the value
    sum(nums) / den at 1, and equals and hashes as the same value built by
    the public constructor and from an unreduced pair."""
    nums, den = p._nums, p._den
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in nums)
    assert not nums or nums[-1]
    assert gcd(den, *nums) == 1
    cs = p.coeffs
    assert cs == tuple(F(c, den) for c in nums) and all(type(c) is F for c in cs)
    assert p.coeffs is cs
    assert p(1) == F(sum(nums), den)
    unreduced = umbral._polynomial([-6 * c for c in nums] + [0, 0], -6 * den)
    for twin in (Polynomial(cs), Polynomial(cs + (F(0),)), umbral._poly(nums, den), unreduced):
        assert twin == p and hash(twin) == hash(p)
    assert p != TruncatedSeries(cs or (F(0),))


def polynomial_outputs(a, b, delta, unit, x) -> list[Polynomial]:
    """Every function that returns a Polynomial, applied to coefficient
    lists: polynomials a and b, a delta series, a unit series and a scalar."""
    P, Q = Polynomial(a), Polynomial(b)
    D, U = TruncatedSeries(delta), TruncatedSeries(unit)
    f, g = DeltaSeries(D), InvertibleSeries(U.truncate(D.order))
    n = min(D.order, 8)
    seqs = [
        umbral.conjugate_sequence(f, n), umbral.associated_sequence(f, n),
        umbral.sheffer_sequence(g, f, n), umbral.conjugate_sheffer_sequence(g, f, n),
    ]
    seqs.append(umbral.umbral_composition(seqs[0], seqs[1]))
    stat = st.Statistics(TruncatedSeries([0, 1] + delta[2:]))
    out = [
        P, P + Q, P - Q, -P, P * Q, P.scale(x), x * P, P * x, P.shift_x(), P.diff(),
        P.integral(), umbral.poly_x(len(a)), umbral.apply_operator(U, P),
        umbral.apply_operator(D, seqs[0][n]), umbral.umbral_shift_next(f, P),
        umbral.sheffer_shift_next(g, f, P), st.occupation_polynomial(stat, n),
    ]
    out += st.occupation_polynomials(stat, n) + list(st.conjugate_polynomials(stat, n))
    return out + [p for seq in seqs for p in seq]


@kernel_settings
@given(hs.data(), hs.integers(0, 12), hs.integers(0, 12), orders, point)
def test_every_polynomial_output_is_canonical(data, na, nb, nd, x):
    lists = [coefficient_lists, low_degree_lists, integral_lists]
    a = data.draw(hs.one_of(*(f(na) for f in lists)))
    b = data.draw(hs.one_of(*(f(nb) for f in lists)))
    delta = data.draw(coefficient_lists(nd, zero_constant=True) | integral_lists(nd))
    delta[1] = data.draw(hs.sampled_from(SLOPES))
    unit = data.draw(coefficient_lists(nd))
    unit[0] = F(1)
    for p in polynomial_outputs(a, b, delta, unit, x):
        assert_polynomial_canonical(p)


def test_equal_polynomials_store_equal_pairs():
    p = Polynomial([F(2, 4), 3, "4/6", 0, F(0, 5)])
    assert (p._nums, p._den) == ((3, 18, 4), 6)
    assert p == Polynomial(["1/2", F(6, 2), F(2, 3)])
    assert (Polynomial()._nums, Polynomial()._den) == ((), 1)
    assert Polynomial([0, 0]) == Polynomial() == p - p == p * Polynomial()
    assert Polynomial([1]) != TruncatedSeries([1])
