"""Interpolating statistics: conversions, duality, group laws, entropy."""

import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from oracles import cluster_to_occupation
from umbral_stats import catalog as cat
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats.series import TruncatedSeries
from umbral_stats.umbral import DeltaSeries, Polynomial, conjugate_sequence

N = 12


def bose(order=N):
    return st.from_cluster([1] * order, "bose-einstein")


def fermi(order=N):
    return st.from_cluster([(-1) ** k for k in range(order)], "fermi-dirac")


def boltzmann(order=N):
    return st.from_cluster([1] + [0] * (order - 1), "boltzmann-gibbs")


class TestConstruction:
    def test_free_energy_must_vanish_at_0(self):
        with pytest.raises(ValueError) as info:
            st.Statistics(TruncatedSeries([1, 1, 0]))
        assert type(info.value) is ValueError and str(info.value) == "free energy must vanish at 0"

    def test_bose_from_cluster(self):
        assert bose().occupation_numbers() == [F(1)] * N

    def test_fermi_from_cluster(self):
        assert fermi().occupation_numbers() == [F(1)] + [F(0)] * (N - 1)

    def test_boltzmann_from_cluster(self):
        assert boltzmann().occupation_numbers() == [
            F(1, factorial(n)) for n in range(1, N + 1)
        ]

    def test_from_occupation_bose(self):
        s = st.from_occupation([1] * N)
        assert s.cluster_coefficients() == [F(1)] * N

    def test_from_occupation_fermi(self):
        s = st.from_occupation([1] + [0] * (N - 1))
        assert s.cluster_coefficients() == [F((-1) ** k) for k in range(N)]

    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(10):
            W = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(15)]
            s = st.from_occupation(W)
            assert st.from_occupation(s.occupation_numbers()) == s
            assert st.from_cluster(s.cluster_coefficients()) == s

    def test_cluster_occupation_conversion_against_partition_sum(self):
        rng = random.Random(5)
        w = [F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
        s = st.from_cluster(w)
        for n in range(1, 8):
            assert s.occupation_numbers()[n - 1] == cluster_to_occupation(w, n)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            st.from_cluster([2, 1])
        with pytest.raises(ValueError):
            st.from_occupation([0, 1])
        with pytest.raises(ValueError):
            st.Statistics(TruncatedSeries([0, 2, 1]))

    @pytest.mark.parametrize("constant", [1, F(-1, 3), F(1, 2**64)])
    def test_weight_with_a_constant_term_is_rejected(self, constant):
        # a series with w(0) != 0 is not the weight function of any statistics
        with pytest.raises(ValueError, match="weight function must vanish at 0"):
            st.from_weight(TruncatedSeries([constant, 1, 2]))
        assert st.from_weight(TruncatedSeries([0, 1, 2])).F == TruncatedSeries([0, 1, 1])

    def test_weight_is_scaled_derivative(self):
        s = bose()
        assert s.w == fps.shift_up(fps.derivative(s.F))

    def test_json_roundtrip(self):
        s = fermi(6)
        data = st.statistics_to_json(s)
        assert data["W"][:3] == ["1", "0", "0"]
        assert st.Statistics(fps.series_from_json(data["F"]), name=data["name"]) == s


class TestLazyDerivedData:
    def test_only_reads_pay_for_exp_and_inversion(self, monkeypatch):
        calls = {"exp_series": 0, "lagrange_invert": 0, "compose": 0}

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        spy(st, "exp_series")
        spy(st, "lagrange_invert")
        spy(fps, "compose")
        a, b = bose(8), fermi(8)
        st.group_compose(a, b)
        assert calls["exp_series"] == calls["lagrange_invert"] == 0
        assert a.z == fps.exp_series(a.F) and a.z is a.z
        assert a.X_of_w == b.w and a.X_of_w is a.X_of_w
        assert calls["exp_series"] == calls["lagrange_invert"] == 1
        calls["compose"] = 0
        fps.lagrange_invert(a.w)  # computes only: it does not check itself
        assert calls["compose"] == 0


class TestConjugateMemo:
    """One conjugate sequence per statistics, kept at the largest degree read."""

    @staticmethod
    def spy(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("name", cat.entries_in_space())
    def test_every_prefix_equals_a_fresh_sequence(self, monkeypatch, name):
        s = st.Statistics(cat.build(name, 10).F, name)
        calls = self.spy(monkeypatch, st, "conjugate_sequence")
        for n in (4, 7, 0, 10, 3, 10):
            assert st.conjugate_polynomials(s, n) == conjugate_sequence(DeltaSeries(s.F), n)
        assert [n for _, n in calls] == [4, 7, 10]

    def test_second_read_computes_nothing(self, monkeypatch):
        s = bose(8)
        calls = self.spy(monkeypatch, st, "conjugate_sequence")
        seq = st.conjugate_polynomials(s, 8)
        assert st.conjugate_polynomials(s, 8) is seq
        st.occupation_polynomials(s, 5)
        st.occupation_polynomial(s, 8)
        assert st.occupation_recursion_holds(s, 2, 3, 6)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="requested degree 9 exceeds series order 8"):
            st.conjugate_polynomials(s, 9)

    def test_occupation_polynomials_returns_a_fresh_list(self):
        s = bose(8)
        W = st.occupation_polynomials(s, 6)
        W[0] = Polynomial([7])
        W.append(W[1])
        again = st.occupation_polynomials(s, 6)
        assert again is not W and len(again) == 7 and again[0] == Polynomial([1])

    def test_single_polynomial_scales_one_polynomial(self, monkeypatch):
        s = fermi(8)
        st.conjugate_polynomials(s, 8)
        calls = self.spy(monkeypatch, Polynomial, "scale")
        W6 = st.occupation_polynomial(s, 6)
        assert len(calls) == 1
        assert W6 == st.occupation_polynomials(s, 6)[6]


class TestOccupationPolynomials:
    def test_boltzmann_powers(self):
        s = boltzmann(8)
        for k in range(6):
            expected = Polynomial([0] * k + [F(1, factorial(k))]) if k else Polynomial([1])
            assert st.occupation_polynomial(s, k) == expected

    def test_fermi_binomials(self):
        s = fermi(8)
        for k in range(1, 7):
            poly = st.occupation_polynomial(s, k)
            for n in range(10):
                assert poly(n) == comb(n, k)

    def test_bose_multiset_count(self):
        assert st.occupation_polynomial(bose(6), 2)(3) == 6  # C(3+2-1, 2)

    def test_table_matches_single_polynomials(self):
        s = bose(8)
        W = st.occupation_polynomials(s, 6)
        assert W == [st.occupation_polynomial(s, k) for k in range(7)]
        assert st.convolution_holds(W, F(1, 3), F(-2, 5), 6)
        with pytest.raises(ValueError, match="requested degree 9 exceeds series order 8"):
            st.occupation_polynomials(s, 9)

    @pytest.mark.parametrize("k, size", [(7, 7), (9, 7), (-1, 7), (0, 0)])
    def test_degree_outside_the_table_is_refused(self, k, size):
        W = st.occupation_polynomials(bose(8), 6)[:size]
        with pytest.raises(ValueError) as info:
            st.convolution_holds(W, 1, 2, k)
        assert type(info.value) is ValueError
        assert str(info.value) == f"degree {k} outside the sequence of {size} polynomials"

    @pytest.mark.parametrize("x, y", [("1", "2"), ("1/2", "-1/3")])
    def test_string_points_agree_with_fractions(self, x, y):
        s = bose(8)
        W = st.occupation_polynomials(s, 6)
        for k in range(7):
            assert st.convolution_holds(W, F(x), F(y), k)
            assert st.convolution_holds(W, x, y, k)
            assert st.occupation_recursion_holds(s, x, y, k)

    def test_recursion_trivial_split(self):
        s = bose(8)
        assert st.occupation_recursion_holds(s, 4, 0, 5)

    def test_recursion_bose_example(self):
        polys = [st.occupation_polynomial(bose(6), i) for i in range(3)]
        assert polys[2](2) == sum(polys[i](1) * polys[2 - i](1) for i in range(3)) == 3

    def test_recursion_boltzmann_value(self):
        s = boltzmann(6)
        assert st.occupation_polynomial(s, 2)(5) == F(25, 2)
        assert st.occupation_recursion_holds(s, 2, 3, 2)

    def test_a_bumped_polynomial_fails_both_verdicts(self, monkeypatch):
        # one more N^2 in W_4 leaves 2 N1 N2 over on the left-hand side
        real = st.occupation_polynomials

        def bumped(stat, k):
            W = real(stat, k)
            coeffs = list(W[4].coeffs)
            coeffs[2] += 1
            W[4] = Polynomial(coeffs)
            return W

        s = bose(8)
        W = bumped(s, 6)
        assert st.convolution_holds(real(s, 6), 1, 2, 4)
        assert not st.convolution_holds(W, 1, 2, 4)
        assert not st.convolution_holds(W, F(1, 3), F(-2, 5), 4)
        monkeypatch.setattr(st, "occupation_polynomials", bumped)
        assert not st.occupation_recursion_holds(s, 1, 2, 4)

    def test_recursion_random(self):
        rng = random.Random(9)
        s = st.from_cluster(
            [F(1)] + [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(7)]
        )
        for n1 in range(5):
            for n2 in range(5):
                for k in range(9):
                    assert st.occupation_recursion_holds(s, n1, n2, k)


class TestDuality:
    def test_swaps_bose_and_fermi(self):
        assert st.dual(bose()) == fermi()
        assert st.dual(fermi()) == bose()

    def test_fixes_boltzmann(self):
        assert st.dual(boltzmann()) == boltzmann()

    def test_involution_on_random(self):
        rng = random.Random(1)
        for _ in range(20):
            w = [F(1)] + [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)]
            w += [F(0)] * 6
            s = st.from_cluster(w)
            assert st.dual(st.dual(s)) == s


class TestGroupLaw:
    def test_identity_element(self):
        s = fermi()
        assert st.group_compose(s, boltzmann()) == s
        assert st.group_compose(boltzmann(), s) == s

    def test_inverse_weights_compose_to_identity(self):
        assert st.group_compose(bose(), fermi()) == boltzmann()

    def test_twisted_law_reduces_at_zero(self):
        twisted = st.group_compose_m(bose(), fermi(), 0)
        plain = st.group_compose(bose(), fermi())
        assert twisted == plain and twisted.name == plain.name

    def test_twisted_law_differs_at_one(self):
        a, b = bose(8), fermi(8)
        assert st.group_compose_m(a, b, 1) != st.group_compose(a, b)

    def test_twist_rejects_negative(self):
        with pytest.raises(ValueError):
            st.group_compose_m(bose(4), fermi(4), -1)


class TestEntropy:
    def test_boltzmann(self):
        h = st.entropy(boltzmann(6))
        assert h.plain == fps.identity(6)  # X
        assert h.logpart == -fps.identity(6)  # -X log X

    def test_fermi(self):
        h = st.entropy(fermi(6))
        assert h.plain == fps.from_function(
            lambda k: 0 if k == 0 else F((-1) ** (k - 1), k), 6
        )
        assert h.logpart == fps.from_function(
            lambda k: 0 if k == 0 else F((-1) ** k), 6
        )

    def test_bose(self):
        h = st.entropy(bose(6))
        assert h.plain == fps.from_function(lambda k: 0 if k == 0 else F(1, k), 6)
        assert h.logpart == fps.from_function(lambda k: 0 if k == 0 else F(-1), 6)

    def test_log_part_is_negative_weight(self):
        rng = random.Random(2)
        w = [F(1)] + [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(9)]
        s = st.from_cluster(w)
        assert st.entropy(s).logpart == -s.w


class TestHaldaneWu:
    def test_bosonic_limit(self):
        for g in range(1, 11):
            for n in range(11):
                assert st.haldane_wu_W(g, n, 0) == comb(g + n - 1, n)

    def test_fermionic_limit(self):
        for g in range(1, 11):
            for n in range(11):
                assert st.haldane_wu_W(g, n, 1) == comb(g, n)

    def test_rational_exclusion_value(self):
        assert st.haldane_wu_W(3, 2, F(1, 2)) == F(35, 8)

    def test_zero_particles(self):
        assert st.haldane_wu_W(5, 0, F(1, 3)) == 1

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            st.haldane_wu_W(3, -1, 0)


class TestGentile:
    def test_single_occupancy_is_fermi(self):
        assert cat.build("gentile", N, p=1) == fermi()

    def test_high_occupancy_approaches_bose(self):
        assert cat.build("gentile", N, p=N + 3) == bose()

    def test_occupation_numbers(self):
        # z = 1 + X + X^2: coefficient list (1, 1, 1, 0, ...)
        s = cat.build("gentile", 6, p=2)
        assert s.z == TruncatedSeries([1, 1, 1, 0, 0, 0, 0])

    def test_weight_closed_form(self):
        # X/(1-X) - (p+1) X^{p+1}/(1-X^{p+1})
        p = 3
        s = cat.build("gentile", N, p=p)
        expected = [F(0)] + [
            F(1) - (p + 1) * (1 if k % (p + 1) == 0 else 0) for k in range(1, N + 1)
        ]
        assert s.w == TruncatedSeries(expected)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cat.build("gentile", 6, p=0)

    def test_is_the_catalog_entry(self):
        s = cat.build("gentile", 9, p=3)
        assert s is cat.build("gentile", 9, p=3) and s.name == "gentile"

    @pytest.mark.parametrize("p", [F(3, 2), F(5, 2), -1])
    def test_rejects_a_non_integer_or_negative_occupancy(self, p):
        with pytest.raises(cat.CatalogError) as info:
            cat.build("gentile", 4, p=p)
        assert str(info.value) == "maximum occupancy p must be a positive integer"

    @pytest.mark.parametrize("order", [0, -1])
    def test_rejects_an_order_below_1(self, order):
        with pytest.raises(ValueError) as info:
            cat.build("gentile", order, p=2)
        assert type(info.value) is ValueError
        assert str(info.value) == f"order must be at least 1, got {order}"


class TestEvaluationHelpers:
    def test_spectral_at_origin(self):
        (sample,) = st.spectral_samples(bose(8), [F(0)])
        assert sample == (F(0), F(1), F(0))

    def test_spectral_bose_partial_sum(self):
        (sample,) = st.spectral_samples(bose(20), [F(1, 2)])
        assert sample.z == sum(F(1, 2) ** n for n in range(21))

    def test_spectral_fermi_exact(self):
        (sample,) = st.spectral_samples(fermi(9), [F(1, 3)])
        assert sample.z == F(4, 3)

    def test_mean_occupation_boltzmann(self):
        for x in (F(0), F(2, 7), F(-1, 3)):
            assert fps.evaluate(boltzmann(9).w, x) == x

    def test_mean_occupation_at_zero(self):
        assert fps.evaluate(fermi(9).w, 0) == 0

    def test_mean_occupation_fermi_converges(self):
        # partial sums at X=1/2 approach the closed form X/(1+X) = 1/3
        closed = F(1, 3)
        errors = [
            abs(fps.evaluate(fermi(order).w, F(1, 2)) - closed)
            for order in (4, 8, 16)
        ]
        assert errors[0] > errors[1] > errors[2]
