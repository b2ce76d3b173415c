"""Series kernel: arithmetic, composition, inversion, log-augmented series."""

import copy
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from oracles import binomial_fraction, divide_series, geometric_coefficients
from umbral_stats import catalog
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats.deformed_entropy import EntropyDensity, PhiSeries, map_g_inverse, xi
from umbral_stats.series import LogSeries, TruncatedSeries
from umbral_stats.statistics import Statistics
from umbral_stats.umbral import (
    DeltaSeries,
    InvertibleSeries,
    Polynomial,
    PolynomialSequence,
    ShefferPair,
)


def S(*coeffs):
    return TruncatedSeries([F(c) for c in coeffs])


small_fraction = hs.fractions(min_value=-10, max_value=10, max_denominator=10)


def series_strategy(order, zero_constant=False, unit_constant=False):
    head = hs.just(F(0)) if zero_constant else (
        hs.just(F(1)) if unit_constant else small_fraction
    )
    return hs.tuples(head, *[small_fraction] * order).map(TruncatedSeries)


class TestArithmetic:
    def test_add_cancellation(self):
        assert S(1, 1) + S(1, -1) == S(2, 0)

    def test_add_identity(self):
        s = S(3, -2, F(1, 7))
        assert s + fps.constant(0, 2) == s

    def test_add_direct(self):
        assert S(0, 1, 1) + S(0, 0, 1) == S(0, 1, 2)

    def test_add_truncates_to_min_order(self):
        assert (S(1, 2, 3) + S(1, 1)).order == 1

    def test_mul_difference_of_squares(self):
        assert fps.mul(S(1, 1, 0), S(1, -1, 0)) == S(1, 0, -1)

    def test_mul_identity(self):
        s = S(2, -1, F(3, 5), 4)
        assert fps.mul(s, fps.one(3)) == s

    def test_mul_geometric_times_complement(self):
        geo = TruncatedSeries(geometric_coefficients(8))
        complement = S(1, -1, 0, 0, 0, 0, 0, 0, 0)
        assert fps.mul(geo, complement) == fps.one(8)

    def test_scale_and_neg(self):
        s = S(1, 2)
        assert 3 * s == S(3, 6)
        assert -s == S(-1, -2)

    @pytest.mark.parametrize("order", [-1, -5])
    def test_negative_truncation_order_is_refused(self, order):
        """A negative order is not read as a slice from the end."""
        with pytest.raises(ValueError, match="negative"):
            TruncatedSeries(range(17)).truncate(order)

    @pytest.mark.parametrize("make", [
        lambda n: fps.constant(F(2, 3), n),
        pytest.param(lambda n: fps.constant(0, n), id="zero"),
        fps.one,
    ])
    def test_negative_constant_order_is_refused(self, make):
        with pytest.raises(ValueError, match="negative"):
            make(-3)
        assert make(0).order == 0

    def test_negative_comparison_order_is_refused(self):
        a, b = S(1, 2, 3), S(0, 2, 4)
        for x, y in [(a, b), (LogSeries(a, a), LogSeries(b, b)),
                     (DeltaSeries(S(0, 2, 3)), DeltaSeries(b))]:
            with pytest.raises(ValueError, match="negative"):
                x.agrees_with(y, -1)

    def test_series_times_series_is_mul(self):
        a, b = S(1, 2, 3, F(-1, 4)), S(F(1, 2), 0, 3)
        assert a * b == fps.mul(a, b) == S(F(1, 2), 1, F(9, 2))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TruncatedSeries([]), ValueError,
         "a truncated series needs at least the constant term"),
        (lambda: S(1, 2, 3)[3], IndexError, "coefficient 3 beyond truncation order 2"),
        (lambda: S(1, 2, 3)[-1], IndexError, "coefficient -1 beyond truncation order 2"),
        (lambda: S(1, 2, 3).truncate(3), ValueError, "cannot extend order 2 to 3"),
        (lambda: S(1, 2, 3).agrees_with(S(1, 2, 3, 4), 3), ValueError,
         "comparison order exceeds a truncation order"),
        (lambda: fps.identity(0), ValueError, "identity series needs order >= 1"),
        (lambda: fps.shift_down(S(1, 2)), ValueError,
         "cannot divide by X: nonzero constant term"),
        (lambda: fps.shift_down(S(0)), ValueError, "cannot divide by X at order 0"),
        (lambda: fps.derivative(S(5)), ValueError, "cannot differentiate an order-0 series"),
        (lambda: fps.as_rational("1/0"), ValueError, "zero denominator in '1/0'"),
        (lambda: TruncatedSeries([1, "0/0"]), ValueError, "zero denominator in '0/0'"),
        (lambda: fps.evaluate(S(1, 2), "-3/0"), ValueError, "zero denominator in '-3/0'"),
        (lambda: fps.series_from_json({}), ValueError, "series record has no 'coeffs' field"),
        (lambda: fps.series_from_json({"coeffs": ["1"]}), ValueError,
         "series record has no 'order' field"),
    ],
    ids=["empty", "index-beyond-order", "negative-index", "truncate-up", "agrees-beyond",
         "identity-0", "shift-down-constant", "shift-down-order-0", "derivative-order-0",
         "zero-denominator", "zero-denominator-coefficient", "zero-denominator-point",
         "json-no-coeffs", "json-no-order"],
)
def test_calls_outside_the_domain_are_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestCompose:
    def test_identity_inner(self):
        s = S(5, 1, -2, 7)
        assert fps.compose(s, fps.identity(3)) == s

    def test_exp_after_log(self):
        n = 10
        exp = fps.from_function(lambda k: F(1, _fact(k)), n)
        log1p = fps.from_function(lambda k: 0 if k == 0 else F((-1) ** (k - 1), k), n)
        composed = fps.compose(exp, log1p)
        assert composed == S(1, 1, *[0] * (n - 1))

    def test_mutually_inverse_weight_functions(self):
        n = 10
        be = fps.from_function(lambda k: 0 if k == 0 else 1, n)  # X/(1-X)
        fd = fps.from_function(lambda k: 0 if k == 0 else (-1) ** (k - 1), n)  # X/(1+X)
        assert fps.compose(be, fd) == fps.identity(n)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError, match="constant"):
            fps.compose(S(1, 1), S(1, 1))


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


class TestExpLog:
    def test_exp_zero(self):
        assert fps.exp_series(fps.constant(0, 4)) == fps.one(4)

    def test_exp_of_cluster_sum_is_geometric(self):
        n = 10
        f = fps.from_function(lambda k: 0 if k == 0 else F(1, k), n)
        assert fps.exp_series(f) == TruncatedSeries(geometric_coefficients(n))

    def test_exp_coefficients_are_inverse_factorials(self):
        assert fps.exp_series(fps.identity(6)) == fps.from_function(
            lambda k: F(1, _fact(k)), 6
        )

    def test_exp_rejects_constant(self):
        with pytest.raises(ValueError):
            fps.exp_series(S(1, 0))

    def test_log_one(self):
        assert fps.log_series(fps.one(5)) == fps.constant(0, 5)

    def test_log_and_powers_of_an_order_0_one(self):
        """An order-0 series has no derivative: its log is read off its
        constant term alone, and so are its rational powers."""
        assert fps.log_series(fps.one(0)) == fps.constant(0, 0)
        for r in (2, -1, F(1, 2), F(-3, 7)):
            assert fps.pow_rational(fps.one(0), r) == fps.one(0)

    def test_log_of_one_plus_x(self):
        assert fps.log_series(S(1, 1, 0, 0, 0, 0)) == fps.from_function(
            lambda k: 0 if k == 0 else F((-1) ** (k - 1), k), 5
        )

    def test_log_exp_roundtrip(self):
        s = S(0, 1, 0, 1, 0, 0, 0, 0, 0)
        assert fps.log_series(fps.exp_series(s)) == s

    def test_log_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            fps.log_series(S(2, 1))


class TestPowRational:
    def test_square(self):
        assert fps.pow_rational(S(1, 1, 0), 2) == S(1, 2, 1)

    def test_geometric(self):
        n = 7
        assert fps.pow_rational(S(1, -1, *[0] * (n - 1)), -1) == TruncatedSeries(
            geometric_coefficients(n)
        )

    def test_square_root_binomial_coefficients(self):
        got = fps.pow_rational(S(1, 1, 0, 0, 0), F(1, 2))
        for n in range(5):
            assert got[n] == binomial_fraction(F(1, 2), n)

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            fps.pow_rational(S(0, 1), F(1, 2))


class TestCalculus:
    def test_derivative(self):
        assert fps.derivative(S(0, 0, 1)) == S(0, 2)

    def test_integrate_after_derivative(self):
        s = S(4, 1, F(1, 2), -3)
        assert fps.integrate_extend(fps.derivative(s)) == s - fps.constant(4, 3)

    def test_derivative_of_cluster_sum(self):
        n = 8
        f = fps.from_function(lambda k: 0 if k == 0 else F(1, k), n)
        assert fps.derivative(f) == TruncatedSeries(geometric_coefficients(n - 1))

    def test_integrate_extend_keeps_every_determined_coefficient(self):
        assert fps.integrate_extend(S(1, 2)).order == 2
        assert fps.integrate_extend(S(1, 2)) == S(0, 1, 1)
        assert fps.integrate_extend(S(1, 2)).truncate(1) == S(0, 1)


class TestReciprocal:
    def test_geometric(self):
        assert fps.reciprocal(S(1, -1, 0, 0)) == TruncatedSeries(
            geometric_coefficients(3)
        )

    def test_involution(self):
        s = S(2, 5, -1, F(1, 3))
        assert fps.reciprocal(fps.reciprocal(s)) == s

    def test_reciprocal_of_exponential(self):
        n = 8
        e = fps.exp_series(fps.identity(n))
        assert fps.reciprocal(e) == fps.exp_series(-fps.identity(n))

    def test_rejects_zero_constant(self):
        with pytest.raises(ValueError):
            fps.reciprocal(S(0, 1))


class TestLagrangeInvert:
    def test_identity(self):
        assert fps.lagrange_invert(fps.identity(6)) == fps.identity(6)

    def test_catalan_numbers(self):
        t = fps.lagrange_invert(S(0, 1, -1, 0, 0, 0, 0, 0, 0))
        assert list(t.coeffs[1:6]) == [F(1), F(1), F(2), F(5), F(14)]

    def test_weight_function_pair(self):
        n = 10
        be = fps.from_function(lambda k: 0 if k == 0 else 1, n)
        fd = fps.from_function(lambda k: 0 if k == 0 else (-1) ** (k - 1), n)
        assert fps.lagrange_invert(be) == fd

    def test_rejects_no_inverse(self):
        with pytest.raises(ValueError):
            fps.lagrange_invert(S(0, 0, 1))
        with pytest.raises(ValueError):
            fps.lagrange_invert(S(1, 1))


class TestEvaluate:
    def test_finite_geometric_sum(self):
        assert fps.evaluate(TruncatedSeries(geometric_coefficients(4)), F(1, 2)) == F(31, 16)

    def test_constant_term(self):
        assert fps.evaluate(S(7, 1, 1), 0) == 7

    def test_direct(self):
        assert fps.evaluate(S(0, 1, 1), F(1, 3)) == F(4, 9)


class TestLogSeries:
    def test_substitute_identity(self):
        log_p = LogSeries(fps.constant(0, 5), fps.one(5))
        got = fps.logseries_compose(log_p, fps.identity(5))
        assert got.plain.is_zero() and got.logpart == fps.one(4)

    def test_substitute_into_entropy_term(self):
        # -p log p at p = X + X^2: plain -(X+X^2) log(1+X), log part -(X+X^2)
        n = 3
        neg_p = TruncatedSeries([0, -1, 0, 0])
        ls = LogSeries(fps.constant(0, n), neg_p)
        u = S(0, 1, 1, 0)
        got = fps.logseries_compose(ls, u)
        # by hand: (X+X^2)(X - X^2/2 + X^3/3) = X^2 + X^3/2 + O(X^4)
        assert got.plain == S(0, 0, -1, F(-1, 2)).truncate(2)
        assert got.logpart == S(0, -1, -1, 0).truncate(2)

    def test_substitution_requires_unit_slope(self):
        ls = LogSeries(fps.constant(0, 4), fps.one(4))
        with pytest.raises(ValueError, match="unit linear"):
            fps.logseries_compose(ls, 2 * fps.identity(4))
        with pytest.raises(ValueError, match="constant"):
            fps.logseries_compose(ls, S(1, 1, 0, 0, 0))

    def test_derivative_of_p_log_p(self):
        # d/dp (-p log p) = -log p - 1
        ls = LogSeries(fps.constant(0, 4), TruncatedSeries([0, -1, 0, 0, 0]))
        got = fps.logseries_derivative(ls)
        assert got.plain == fps.constant(-1, 3)
        assert got.logpart == fps.constant(-1, 3)

    def test_derivative_plain_only(self):
        ls = LogSeries(S(0, 0, 1, 0), fps.constant(0, 3))
        got = fps.logseries_derivative(ls)
        assert got.plain == S(0, 2, 0)

    def test_derivative_rejects_constant_log_coefficient(self):
        with pytest.raises(ValueError):
            fps.logseries_derivative(LogSeries(fps.constant(0, 3), fps.one(3)))

    def test_equality_is_coefficientwise(self):
        a = LogSeries(S(0, 1), S(1, 0))
        b = LogSeries(S(0, 1), S(1, 0))
        assert a == b and hash(a) == hash(b)


class TestJson:
    def test_series_roundtrip(self):
        s = S(F(1, 3), -2, 0, F(7, 2))
        data = fps.series_to_json(s)
        assert data == {"order": 3, "coeffs": ["1/3", "-2", "0", "7/2"]}
        assert fps.series_from_json(data) == s

    def test_logseries_roundtrip(self):
        ls = LogSeries(S(0, 1), S(1, -1))
        data = fps.logseries_to_json(ls)
        assert LogSeries(*map(fps.series_from_json, (data["plain"], data["log"]))) == ls

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fps.series_from_json({"order": 5, "coeffs": ["1"]})


# -- randomized algebraic laws --------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(series_strategy(12), series_strategy(12), series_strategy(12))
def test_ring_axioms(a, b, c):
    assert fps.mul(a, b) == fps.mul(b, a)
    assert fps.mul(fps.mul(a, b), c) == fps.mul(a, fps.mul(b, c))
    assert fps.mul(a, b + c) == fps.mul(a, b) + fps.mul(a, c)
    assert (a + b) + c == a + (b + c)


@settings(max_examples=50, deadline=None)
@given(series_strategy(16, zero_constant=True))
def test_log_of_exp_is_identity(s):
    assert fps.log_series(fps.exp_series(s)) == s


@settings(max_examples=50, deadline=None)
@given(series_strategy(16, unit_constant=True))
def test_exp_of_log_is_identity(s):
    assert fps.exp_series(fps.log_series(s)) == s


@settings(max_examples=50, deadline=None)
@given(
    hs.sampled_from([F(1), F(-1), F(2), F(1, 2)]),
    hs.lists(small_fraction, min_size=11, max_size=11),
)
def test_inversion_roundtrips(slope, tail):
    s = TruncatedSeries([F(0), slope] + tail)
    t = fps.lagrange_invert(s)
    assert fps.compose(s, t) == fps.identity(12)
    assert fps.compose(t, s) == fps.identity(12)


@settings(max_examples=50, deadline=None)
@given(series_strategy(10), series_strategy(10))
def test_leibniz_rule(a, b):
    lhs = fps.derivative(fps.mul(a, b))
    rhs = fps.mul(fps.derivative(a), b.truncate(9)) + fps.mul(
        a.truncate(9), fps.derivative(b)
    )
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(
    series_strategy(10, unit_constant=True),
    hs.integers(min_value=-6, max_value=6),
    hs.integers(min_value=1, max_value=4),
)
def test_rational_power_consistency(s, p, q):
    r = F(p, q)
    powered = fps.pow_rational(s, r)
    lhs = fps.one(10)
    for _ in range(q):
        lhs = fps.mul(lhs, powered)
    rhs = fps.pow_rational(s, p)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(series_strategy(10, unit_constant=True))
def test_reciprocal_by_long_division(s):
    expected = divide_series([F(1)], list(s.coeffs), 10)
    assert list(fps.reciprocal(s).coeffs) == expected



VALUE_OBJECTS = [
    (S(0, 1, 2), "_nums"),
    (Polynomial([1, 2]), "_nums"),
    (LogSeries(S(0, 1), S(0, -1)), "plain"),
    (DeltaSeries(S(0, 1, 2)), "series"),
    (InvertibleSeries(S(1, 1)), "series"),
    (PolynomialSequence([Polynomial([1]), Polynomial([0, 1])]), "polys"),
    (ShefferPair(InvertibleSeries(S(1, 1)), DeltaSeries(S(0, 1))), "g"),
    (Statistics(S(0, 1, 1)), "F"),
    (PhiSeries.from_t([1, 2]), "series"),
    (EntropyDensity(S(1, 1, 2)), "series"),
]


@pytest.mark.parametrize(
    "value, slot", [pytest.param(v, s, id=type(v).__name__) for v, s in VALUE_OBJECTS]
)
def test_value_types_are_immutable(value, slot):
    """The catalog caches hand out shared objects, so none may change."""
    before = repr(value), getattr(value, slot)
    with pytest.raises(AttributeError):
        setattr(value, slot, getattr(value, slot))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, slot)
    assert (repr(value), getattr(value, slot)) == before
    assert not hasattr(value, "extra")


def cached_statistics_with_a_filled_memo() -> Statistics:
    stat = catalog.build("lah", 6)
    stat.z, stat.X_of_w, map_g_inverse(stat), xi(stat)
    st.occupation_polynomials(stat, 4)
    assert set(stat._memo) == {"z", "X_of_w", "phi", "G", "conjugate"}
    return stat


@pytest.mark.parametrize(
    "value, slot",
    [pytest.param(v, s, id=type(v).__name__) for v, s in VALUE_OBJECTS]
    + [pytest.param(cached_statistics_with_a_filled_memo(), "F", id="cached-Statistics")],
)
@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_value_types_copy_and_pickle(value, slot, how):
    """A copy is equal and hash equal, and as immutable as the original;
    a pickle round trip is, at every protocol."""
    twins = {
        "copy": lambda: [copy.copy(value)],
        "deepcopy": lambda: [copy.deepcopy(value)],
        "pickle": lambda: [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
    }[how]()
    for twin in twins:
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
        with pytest.raises(AttributeError):
            setattr(twin, slot, getattr(twin, slot))
        with pytest.raises(AttributeError):
            delattr(twin, slot)
        if isinstance(value, Statistics):
            assert twin._memo == value._memo


EQUAL_VALUE_BUILDERS = [
    lambda: DeltaSeries(S(0, 1, 2)),
    lambda: InvertibleSeries(S(1, 1)),
    lambda: PhiSeries.from_t([1, 2]),
    lambda: EntropyDensity(S(1, 1, 2)),
    lambda: PolynomialSequence([Polynomial([1]), Polynomial([0, 1])]),
    lambda: ShefferPair(InvertibleSeries(S(1, 1)), DeltaSeries(S(0, 1))),
    lambda: Statistics(S(0, 1, 1)),
]


@pytest.mark.parametrize(
    "build", [pytest.param(b, id=type(b()).__name__) for b in EQUAL_VALUE_BUILDERS]
)
def test_equal_values_hash_equal(build):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
