"""Polynomial sequences, operators, umbral/Sheffer machinery."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from oracles import (
    abel_polynomial,
    falling_factorial,
    hermite_he,
    rising_factorial,
)
from umbral_stats import series as fps
from umbral_stats.series import TruncatedSeries
from umbral_stats.umbral import (
    DeltaSeries,
    InvertibleSeries,
    Polynomial,
    PolynomialSequence,
    ShefferPair,
    apply_operator,
    associated_sequence,
    binomial_identity_holds,
    conjugate_sequence,
    conjugate_sheffer_sequence,
    connection_coefficients,
    first_binomial_failure,
    first_convolution_failure,
    functional,
    poly_to_json,
    poly_x,
    sheffer_sequence,
    sheffer_shift_next,
    umbral_composition,
    umbral_shift_next,
)

ORDER = 10


def delta(fn):
    return DeltaSeries(fps.from_function(fn, ORDER))


F_LOG1P = lambda k: 0 if k == 0 else F((-1) ** (k - 1), k)  # noqa: E731
F_GEOM_SUM = lambda k: 0 if k == 0 else F(1)  # noqa: E731  X/(1-X)
F_EXPM1 = lambda k: 0 if k == 0 else F(1, factorial(k))  # noqa: E731


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DeltaSeries(TruncatedSeries([1, 1, 0])),
         "delta series must have zero constant term"),
        (lambda: DeltaSeries(TruncatedSeries([0, 0, 1])),
         "delta series must have nonzero linear coefficient"),
        (lambda: InvertibleSeries(TruncatedSeries([0, 1])),
         "invertible series must have nonzero constant term"),
        (lambda: conjugate_sheffer_sequence(
            InvertibleSeries(TruncatedSeries([1, 1])),
            DeltaSeries(TruncatedSeries([0, 1, 1, 0])), 2),
         "requested degree exceeds a series order"),
        (lambda: conjugate_sheffer_sequence(
            InvertibleSeries(TruncatedSeries([1, 1, 0, 0])),
            DeltaSeries(TruncatedSeries([0, 1, 1])), 3),
         "requested degree exceeds a series order"),
        (lambda: connection_coefficients(
            DeltaSeries(TruncatedSeries([0, 1, 1])),
            DeltaSeries(TruncatedSeries([0, 1, 0, 0])), 3),
         "requested degree exceeds a series order"),
        (lambda: binomial_identity_holds(
            conjugate_sequence(DeltaSeries(TruncatedSeries([0, 1, 1, 0])), 3), 1, 2, 4),
         "degree 4 outside the sequence of 4 polynomials"),
        (lambda: binomial_identity_holds(
            conjugate_sequence(DeltaSeries(TruncatedSeries([0, 1, 1, 0])), 3), 1, 2, -1),
         "degree -1 outside the sequence of 4 polynomials"),
    ],
    ids=["delta-constant", "delta-zero-linear", "invertible-zero-constant",
         "sheffer-beyond-g", "sheffer-beyond-F", "connection-beyond-F",
         "binomial-beyond-sequence", "binomial-negative-degree"],
)
def test_malformed_series_and_degrees_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


class TestPolynomial:
    def test_normalization_strips_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Polynomial([0, 0]).is_zero()
        assert Polynomial().degree == -1

    def test_arithmetic(self):
        p = Polynomial([1, 1])
        assert p * p == Polynomial([1, 2, 1])
        assert p - p == Polynomial()
        assert p.shift_x() == Polynomial([0, 1, 1])

    def test_calculus_and_evaluation(self):
        p = Polynomial([0, 0, 3])
        assert p.diff() == Polynomial([0, 6])
        assert p.integral() == Polynomial([0, 0, 0, 1])
        assert p(F(1, 3)) == F(1, 3)

    def test_json_roundtrip(self):
        p = Polynomial([F(1, 2), -3])
        data = poly_to_json(p)
        assert data == {"coeffs": ["1/2", "-3"]}
        assert Polynomial(data["coeffs"]) == p

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            PolynomialSequence([Polynomial([2])])
        with pytest.raises(ValueError):
            PolynomialSequence([Polynomial([1]), Polynomial([1, 0, 1])])


class TestConjugateSequence:
    def test_identity_gives_monomials(self):
        seq = conjugate_sequence(delta(lambda k: 1 if k == 1 else 0), 5)
        for n in range(6):
            assert seq[n] == poly_x(n)

    def test_log1p_gives_falling_factorials(self):
        seq = conjugate_sequence(delta(F_LOG1P), 6)
        for n in range(7):
            assert list(seq[n].coeffs) == falling_factorial(n)
        assert seq[3] == Polynomial([0, 2, -3, 1])  # x(x-1)(x-2)

    def test_geometric_sum_gives_lah_polynomials(self):
        seq = conjugate_sequence(delta(F_GEOM_SUM), 4)
        assert seq[4] == Polynomial([0, 24, 36, 12, 1])

    def test_order_bound_enforced(self):
        with pytest.raises(ValueError):
            conjugate_sequence(delta(F_LOG1P), ORDER + 1)


class TestAssociatedSequence:
    def test_identity(self):
        seq = associated_sequence(delta(lambda k: 1 if k == 1 else 0), 4)
        assert seq[4] == poly_x(4)

    def test_exponential_delta_gives_falling_factorials(self):
        seq = associated_sequence(delta(F_EXPM1), 6)
        for n in range(7):
            assert list(seq[n].coeffs) == falling_factorial(n)

    def test_abel_polynomials(self):
        # f = Y e^{aY} at a = 1
        f = delta(lambda k: 0 if k == 0 else F(k ** (k - 1), factorial(k - 1) * k))
        f = DeltaSeries(
            fps.from_function(
                lambda k: 0 if k == 0 else F(1, factorial(k - 1)), ORDER
            )
        )
        seq = associated_sequence(f, 6)
        for n in range(7):
            assert list(seq[n].coeffs) == abel_polynomial(n, F(1))


class TestApplyOperator:
    def test_plain_derivative(self):
        assert apply_operator(fps.identity(3), poly_x(3)) == Polynomial([0, 0, 3])

    def test_annihilates_falling_factorial(self):
        expm1 = fps.from_function(F_EXPM1, ORDER)
        got = apply_operator(expm1, Polynomial(falling_factorial(3)))
        assert list(got.coeffs) == [3 * c for c in falling_factorial(2)]

    def test_counit(self):
        p = Polynomial([1, -2, 5])
        assert apply_operator(fps.one(4), p) == p

    def test_functional_is_evaluation_at_zero(self):
        assert functional(fps.one(2), Polynomial([7, 1])) == 7


class TestUmbralComposition:
    def test_monomials_are_neutral(self):
        p = conjugate_sequence(delta(F_LOG1P), 5)
        monos = PolynomialSequence([poly_x(n) for n in range(6)])
        assert umbral_composition(p, monos) == p
        assert umbral_composition(monos, p) == p

    def test_composes_generating_series(self):
        n = 6
        Fs = fps.from_function(F_GEOM_SUM, ORDER)
        Gs = fps.from_function(F_EXPM1, ORDER)
        p = conjugate_sequence(DeltaSeries(Fs), n)
        q = conjugate_sequence(DeltaSeries(Gs), n)
        got = umbral_composition(p, q)
        expected = conjugate_sequence(DeltaSeries(fps.compose(Gs, Fs)), n)
        assert got == expected

    def test_length_mismatch_rejected(self):
        p = conjugate_sequence(delta(F_LOG1P), 3)
        q = conjugate_sequence(delta(F_LOG1P), 4)
        with pytest.raises(ValueError):
            umbral_composition(p, q)


class TestConnectionCoefficients:
    def test_equal_series_give_identity(self):
        Fd = delta(F_LOG1P)
        c = connection_coefficients(Fd, Fd, 5)
        for n in range(6):
            for k in range(n + 1):
                assert c[n][k] == (1 if n == k else 0)

    def test_monomial_base_reduces_to_coefficients(self):
        ident = delta(lambda k: 1 if k == 1 else 0)
        G = delta(F_EXPM1)
        c = connection_coefficients(ident, G, 5)
        assert c == conjugate_sequence(G, 5).coefficient_matrix()

    def test_rising_in_falling_factorials_by_direct_solve(self):
        # q_n (rising) = sum c_{n,k} p_k (falling): solve the triangular
        # system from the explicit polynomials and compare
        n_max = 5
        Fd = delta(F_LOG1P)  # conjugate: falling factorials
        Gd = delta(lambda k: 0 if k == 0 else F(1, k))  # -log(1-X): rising
        c = connection_coefficients(Fd, Gd, n_max)
        for n in range(n_max + 1):
            target = rising_factorial(n)
            solved = [F(0)] * (n + 1)
            for k in range(n, -1, -1):
                falling = falling_factorial(k)
                coeff = target[k] / falling[k]
                solved[k] = coeff
                for j in range(k + 1):
                    target[j] -= coeff * falling[j]
            assert not any(target)
            assert c[n][: n + 1] == solved


class TestShefferSequences:
    def test_trivial_prefactor_gives_associated(self):
        f = delta(F_EXPM1)
        assert sheffer_sequence(
            InvertibleSeries(fps.one(ORDER)), f, 6
        ) == associated_sequence(f, 6)

    def test_hermite(self):
        # variance prefactor g = e^{t^2/2} with f = t: EGF e^{xt - t^2/2}
        g = InvertibleSeries(
            fps.exp_series(
                TruncatedSeries([0, 0, F(1, 2)] + [0] * (ORDER - 2))
            )
        )
        f = delta(lambda k: 1 if k == 1 else 0)
        seq = sheffer_sequence(g, f, 8)
        for n in range(9):
            assert list(seq[n].coeffs) == hermite_he(n)
        assert seq[3] == Polynomial([0, -3, 0, 1])  # x^3 - 3x

    def test_conjugate_form_matches_inverse_form(self):
        g = InvertibleSeries(TruncatedSeries([1, F(-1, 2), 0, F(2, 3)] + [0] * 7))
        F_ = delta(F_LOG1P)
        assert conjugate_sheffer_sequence(g, F_, 8) == sheffer_sequence(
            g, F_.inverse(), 8
        )
        one = InvertibleSeries(fps.one(ORDER))
        assert conjugate_sheffer_sequence(one, F_, 8) == conjugate_sequence(F_, 8)

    def test_characterization_lowering(self):
        # f(D) s_n = n s_{n-1}
        g = InvertibleSeries(fps.from_function(lambda k: F(1, factorial(k)), ORDER))
        f = delta(F_GEOM_SUM)
        seq = sheffer_sequence(g, f, 6)
        for n in range(1, 7):
            assert apply_operator(f.series, seq[n]) == seq[n - 1].scale(n)


class TestShifts:
    def test_monomial_shift(self):
        f = delta(lambda k: 1 if k == 1 else 0)
        assert umbral_shift_next(f, poly_x(2)) == poly_x(3)

    def test_falling_factorial_shift(self):
        f = delta(F_EXPM1)
        assert umbral_shift_next(f, poly_x()) == Polynomial([0, -1, 1])

    def test_shift_matches_associated_sequence(self):
        # f = t - t^2/2
        f = DeltaSeries(TruncatedSeries([0, 1, F(-1, 2)] + [0] * (ORDER - 2)))
        seq = associated_sequence(f, 6)
        p = Polynomial([1])
        for n in range(1, 7):
            p = umbral_shift_next(f, p)
            assert p == seq[n]

    def test_sheffer_shift_reduces_to_umbral_shift(self):
        f = delta(F_GEOM_SUM)
        g = InvertibleSeries(fps.one(ORDER))
        p = conjugate_sequence(DeltaSeries(fps.lagrange_invert(f.series)), 4)[3]
        assert sheffer_shift_next(g, f, p) == umbral_shift_next(f, p)

    def test_sheffer_shift_recovers_hermite_recurrence(self):
        g = InvertibleSeries(
            fps.exp_series(TruncatedSeries([0, 0, F(1, 2)] + [0] * (ORDER - 2)))
        )
        f = delta(lambda k: 1 if k == 1 else 0)
        cur = Polynomial([1])
        for n in range(8):
            cur = sheffer_shift_next(g, f, cur)
            assert list(cur.coeffs) == hermite_he(n + 1)

    def test_sheffer_shift_against_generating_route(self):
        g = InvertibleSeries(TruncatedSeries([1, 1] + [0] * (ORDER - 1)))
        f = delta(lambda k: 1 if k == 1 else 0)
        seq = sheffer_sequence(g, f, 6)
        for n in range(6):
            assert sheffer_shift_next(g, f, seq[n]) == seq[n + 1]


class TestShefferPairGroup:
    def test_identity_pair_is_neutral(self):
        pair = ShefferPair(
            InvertibleSeries(fps.exp_series(fps.identity(ORDER))),
            DeltaSeries(fps.from_function(F_GEOM_SUM, ORDER)),
        )
        ident = ShefferPair.identity(ORDER)
        assert pair.compose(ident).agrees_with(pair, ORDER)
        assert ident.compose(pair).agrees_with(pair, ORDER)

    def test_inverse_pair(self):
        pair = ShefferPair(
            InvertibleSeries(TruncatedSeries([1, F(1, 2)] + [0] * (ORDER - 1))),
            DeltaSeries(fps.from_function(F_LOG1P, ORDER)),
        )
        ident = ShefferPair.identity(ORDER)
        assert pair.compose(pair.inverse()).agrees_with(ident, ORDER)
        assert pair.inverse().compose(pair).agrees_with(ident, ORDER)

    def test_associativity_on_random_pairs(self):
        rng = random.Random(7)

        def rand_pair():
            g = TruncatedSeries(
                [F(rng.randint(1, 3))]
                + [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(ORDER)]
            )
            f = TruncatedSeries(
                [F(0), F(rng.choice([1, -1, 2]))]
                + [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(ORDER - 1)]
            )
            return ShefferPair(InvertibleSeries(g), DeltaSeries(f))

        for _ in range(3):
            a, b, c = rand_pair(), rand_pair(), rand_pair()
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            assert left.agrees_with(right, ORDER)

    def test_pairs_differing_in_one_series_disagree_from_that_degree(self):
        g = [F(1), F(1, 2)] + [F(0)] * (ORDER - 1)
        f = [F(0), F(1)] + [F(1, k) for k in range(2, ORDER + 1)]

        def bumped(cs):  # one more at u^3
            return TruncatedSeries([c + (k == 3) for k, c in enumerate(cs)])

        pair = ShefferPair(InvertibleSeries(TruncatedSeries(g)), DeltaSeries(TruncatedSeries(f)))
        others = (
            ShefferPair(InvertibleSeries(bumped(g)), pair.f),
            ShefferPair(pair.g, DeltaSeries(bumped(f))),
        )
        for other in others:
            assert pair.agrees_with(other, 2)
            assert not pair.agrees_with(other, 3)
            assert not other.agrees_with(pair, ORDER)


class TestUmbralInvariants:
    CATALOG_F = {
        "log1p": F_LOG1P,
        "geometric-sum": F_GEOM_SUM,
        "exp-minus-one": F_EXPM1,
        "cluster-log": lambda k: 0 if k == 0 else F(1, k),
    }

    def test_binomial_identity(self):
        rng = random.Random(11)
        for name, fn in self.CATALOG_F.items():
            seq = conjugate_sequence(delta(fn), 8)
            for n in range(1, 9):
                for _ in range(5):
                    a = F(rng.randint(-6, 6), rng.randint(1, 4))
                    b = F(rng.randint(-6, 6), rng.randint(1, 4))
                    assert binomial_identity_holds(seq, a, b, n), (name, n, a, b)

    def test_shifted_powers_are_not_binomial(self):
        # p_n = (x+1)^n: p_n(a+b) = (a+b+1)^n, the sum gives (a+b+2)^n
        polys = [Polynomial([1])]
        for _ in range(8):
            polys.append(polys[-1] * Polynomial([1, 1]))
        seq = PolynomialSequence(polys)
        for n in range(1, 9):
            for a, b in ((F(0), F(0)), (F(1, 2), F(-2, 3)), (F(-3), F(5, 7))):
                assert not binomial_identity_holds(seq, a, b, n), (n, a, b)

    def test_perturbed_lah_sequence_fails_at_its_degree(self):
        lah = conjugate_sequence(delta(F_GEOM_SUM), 8)
        polys = list(lah)
        bumped = list(polys[5].coeffs)
        bumped[3] += 1
        polys[5] = Polynomial(bumped)
        perturbed = PolynomialSequence(polys)
        for a, b in ((F(1), F(1)), (F(1, 2), F(-2, 3)), (F(-3), F(5, 7))):
            assert binomial_identity_holds(lah, a, b, 5)
            assert not binomial_identity_holds(perturbed, a, b, 5), (a, b)
            assert binomial_identity_holds(perturbed, a, b, 4)

    @staticmethod
    def first_failure(seq):
        """first_binomial_failure(seq), checked to equal the least failing
        degree of the convolution identity of W_n = p_n / n!."""
        n = first_binomial_failure(seq)
        W = [p.scale(F(1, factorial(k))) for k, p in enumerate(seq)]
        assert first_convolution_failure(W) == n
        return n

    def test_exact_check_passes_catalog_sequences(self):
        for name, fn in self.CATALOG_F.items():
            seq = conjugate_sequence(delta(fn), 8)
            assert self.first_failure(seq) is None, name

    def test_exact_check_fails_shifted_powers_at_one(self):
        polys = [Polynomial([1])]
        for _ in range(8):
            polys.append(polys[-1] * Polynomial([1, 1]))
        assert self.first_failure(PolynomialSequence(polys)) == 1

    @staticmethod
    def bumped_lah(m, j):
        """The Lah sequence p_0..p_8 with 1 added to the x^j coefficient of p_m."""
        polys = list(conjugate_sequence(delta(F_GEOM_SUM), 8))
        bumped = list(polys[m].coeffs)
        bumped[j] += 1
        polys[m] = Polynomial(bumped)
        return PolynomialSequence(polys)

    def test_exact_check_finds_perturbed_lah_degree(self):
        assert self.first_failure(self.bumped_lah(5, 3)) == 5

    @pytest.mark.parametrize("m", range(1, 8))
    def test_perturbed_linear_coefficient_fails_one_degree_later(self, m):
        # p_m + c x keeps the degree-m identity: both sides gain c (x + y)
        assert self.first_failure(self.bumped_lah(m, 1)) == m + 1

    @pytest.mark.parametrize("m", range(1, 9))
    def test_nonzero_constant_term_fails_at_its_degree(self, m):
        assert self.first_failure(self.bumped_lah(m, 0)) == m

    def test_perturbed_leading_coefficient_of_last_polynomial(self):
        assert self.first_failure(self.bumped_lah(8, 8)) == 8

    def test_convolution_check_needs_w0_equal_to_one(self):
        lah = conjugate_sequence(delta(F_GEOM_SUM), 8)
        W = [p.scale(F(1, factorial(k))) for k, p in enumerate(lah)]
        assert first_convolution_failure(W) is None
        for w0 in (Polynomial([2]), Polynomial([1, 1]), Polynomial()):
            assert first_convolution_failure([w0] + W[1:]) == 0, w0

    def test_convolution_check_fails_wrong_factorial_at_two(self):
        # p_k / (k+1)! in place of p_k / k!: degrees 0 and 1 (W_0 = 1,
        # W_1 = N/2) still hold
        lah = conjugate_sequence(delta(F_GEOM_SUM), 8)
        W = [p.scale(F(1, factorial(k + 1))) for k, p in enumerate(lah)]
        assert first_convolution_failure(W) == 2

    @pytest.mark.parametrize("k", range(1, 9))
    def test_convolution_check_fails_a_degree_above_k_at_k(self, k):
        # W_k + N^(k+1): the identity forces deg W_k <= k
        lah = conjugate_sequence(delta(F_GEOM_SUM), 8)
        W = [p.scale(F(1, factorial(j))) for j, p in enumerate(lah)]
        W[k] = W[k] + poly_x(k + 1)
        assert first_convolution_failure(W) == k

    def test_annihilation(self):
        for name, fn in self.CATALOG_F.items():
            Fs = fps.from_function(fn, ORDER)
            f = fps.lagrange_invert(Fs)
            seq = conjugate_sequence(DeltaSeries(Fs), 8)
            for n in range(1, 9):
                assert apply_operator(f, seq[n]) == seq[n - 1].scale(n), (name, n)

    def test_commutation_relation(self):
        # (f(D) shift - shift f(D)) p == p on explicit polynomials
        test_polys = [poly_x(d) for d in range(9)] + [
            Polynomial([1, -2, 0, F(1, 3), 0, 0, 1])
        ]
        for name, fn in self.CATALOG_F.items():
            f = DeltaSeries(fps.lagrange_invert(fps.from_function(fn, ORDER)))
            for p in test_polys:
                lhs = apply_operator(f.series, umbral_shift_next(f, p))
                rhs = umbral_shift_next(f, apply_operator(f.series, p))
                assert lhs - rhs == p, name

    def test_expansion_theorem(self):
        # h(D) x^n == sum_k <h(D)|p_k>/k! f(D)^k x^n
        h_series = [
            fps.from_function(lambda k: F(1, factorial(k)), ORDER),
            fps.from_function(F_GEOM_SUM, ORDER),
            fps.one(ORDER),
        ]
        for fn in (F_LOG1P, F_GEOM_SUM):
            Fs = fps.from_function(fn, ORDER)
            f = fps.lagrange_invert(Fs)
            seq = conjugate_sequence(DeltaSeries(Fs), 6)
            for h in h_series:
                for n in range(7):
                    lhs = apply_operator(h, poly_x(n))
                    rhs = Polynomial()
                    power = poly_x(n)
                    for k in range(n + 1):
                        weight = functional(h, seq[k]) / factorial(k)
                        if weight != 0:
                            rhs = rhs + power.scale(weight)
                        power = apply_operator(f, power)
                    assert lhs == rhs
