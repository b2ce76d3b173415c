"""Deformation kernels, deformed logarithms/exponentials, entropy densities."""

import math
import random
from fractions import Fraction as F
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from oracles import (
    bernoulli_numbers,
    h0_plain_of_kernel_through_statistics,
    h0_plain_through_log,
    ln_phi_plain_through_log,
    tau_through_statistics,
    weighted_multinomial_sum,
    xi_through_kernel,
)
from umbral_stats import catalog as cat
from umbral_stats import deformed_entropy as de
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats import verify
from umbral_stats.deformed_entropy import (
    EntropyDensity,
    MaxentConvergenceError,
    PhiSeries,
)
from umbral_stats.series import TruncatedSeries

N = 12


def bose(order=N):
    return st.from_cluster([1] * order, "bose-einstein")


def fermi(order=N):
    return st.from_cluster([(-1) ** k for k in range(order)], "fermi-dirac")


def boltzmann(order=N):
    return st.from_cluster([1] + [0] * (order - 1), "boltzmann-gibbs")


def random_t(rng, count=5):
    return [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(count)]


class TestKernelCoefficients:
    def test_geometric_kernel(self):
        phi = PhiSeries.from_t([F(1, 3)], order=8)
        a = de.a_coefficients(phi)
        assert a[:4] == [F(1, 3), F(1, 9), F(1, 27), F(1, 81)]

    def test_a2_closed_form(self):
        t1, t2 = F(1, 2), F(1, 5)
        phi = PhiSeries.from_t([t1, t2], order=8)
        assert de.a_coefficients(phi)[1] == t2 + t1**2 == F(9, 20)

    def test_a_list_against_multinomial_oracle(self):
        rng = random.Random(17)
        for _ in range(5):
            T = random_t(rng)
            phi = PhiSeries.from_t(T, order=10)
            a = de.a_coefficients(phi)
            for n in range(1, 9):
                assert a[n - 1] == weighted_multinomial_sum(T, n)

    def test_a4_closed_form(self):
        rng = random.Random(23)
        for _ in range(5):
            t1, t2, t3, t4 = random_t(rng, 4)
            phi = PhiSeries.from_t([t1, t2, t3, t4], order=8)
            assert (
                de.a_coefficients(phi)[3]
                == t4 + 2 * t3 * t1 + t2**2 + 3 * t2 * t1**2 + t1**4
            )

    def test_t_roundtrip(self):
        T = [F(1, 2), F(-2), F(3, 4)]
        assert PhiSeries.from_t(T).t_coefficients() == T

    @pytest.mark.parametrize("n_max", [-3, -1, 6])
    def test_a_count_outside_the_kernel_is_refused(self, n_max):
        """A negative count is not read as a slice from the end."""
        phi = PhiSeries.from_t([1, 2, 3, 4, 5])
        assert len(de.a_coefficients(phi, 5)) == 5
        with pytest.raises(ValueError):
            de.a_coefficients(phi, n_max)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            PhiSeries(TruncatedSeries([1, 1]))
        with pytest.raises(ValueError):
            PhiSeries(TruncatedSeries([0, 2]))


class TestKernelToStatistics:
    def test_trivial_kernel_series(self):
        phi = PhiSeries.from_t([0, 0, 0], order=8)
        assert de.x_from_phi(phi) == fps.identity(8)
        assert de.map_g(phi) == boltzmann(8)

    def test_b_coefficients(self):
        rng = random.Random(31)
        for _ in range(5):
            t1, t2, t3 = random_t(rng, 3)
            phi = PhiSeries.from_t([t1, t2, t3], order=8)
            X = de.x_from_phi(phi)
            assert X[2] == t1  # b_1 = T_1
            assert X[3] == t2 / 2 + t1**2  # b_2
            assert X[4] == t3 / 3 + F(7, 6) * t2 * t1 + t1**3  # b_3

    def test_inversion_coefficients(self):
        rng = random.Random(37)
        for _ in range(5):
            t1, t2, t3 = random_t(rng, 3)
            stat = de.map_g(PhiSeries.from_t([t1, t2, t3], order=8))
            w = stat.w
            assert w[2] == -t1  # c_2
            assert w[3] == -t2 / 2 + t1**2  # c_3
            assert w[4] == -t3 / 3 + F(4, 3) * t2 * t1 - t1**3  # c_4

    def test_kernel_of_classical_statistics(self):
        assert de.map_g_inverse(boltzmann()).series == fps.identity(N - 1)
        fd_phi = de.map_g_inverse(fermi())
        assert fd_phi.series == TruncatedSeries([0, 1, -1] + [0] * (N - 3))
        be_phi = de.map_g_inverse(bose())
        assert be_phi.series == TruncatedSeries([0, 1, 1] + [0] * (N - 3))

    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(10):
            phi = PhiSeries.from_t(random_t(rng), order=10)
            back = de.map_g_inverse(de.map_g(phi))
            assert back.agrees_with(phi, 9)


class TestDeformedLogExp:
    def test_boltzmann_log(self):
        ls = de.ln_phi(boltzmann())
        assert ls.plain.is_zero()
        assert ls.logpart[0] == 1

    def test_fermi_log(self):
        # log(p/(1-p)) = log p + sum p^n/n
        ls = de.ln_phi(fermi())
        assert ls.plain == fps.from_function(
            lambda k: 0 if k == 0 else F(1, k), N - 1
        )

    def test_one_parameter_log(self):
        # log(p/(1 - eps p)) = log p + sum eps^n p^n / n at eps = 1/2
        eps = F(1, 2)
        stat = st.from_cluster([(-eps) ** k for k in range(N)], "one-parameter")
        ls = de.ln_phi(stat)
        assert ls.plain == fps.from_function(
            lambda k: 0 if k == 0 else eps**k / k, N - 1
        )

    def test_exp_is_weight_function(self):
        assert de.exp_phi(boltzmann()) == boltzmann().w
        assert de.exp_phi(fermi()) == fermi().w  # q/(1+q)
        assert de.exp_phi(bose()) == bose().w  # q/(1-q)

    def test_exp_from_kernel(self):
        phi = PhiSeries.from_t([F(1)], order=8)  # u(1-u): two-level kernel
        assert de.exp_phi(phi) == fermi(8).w


class TestXi:
    def test_boltzmann(self):
        # xi keeps every coefficient the build order determines
        assert de.xi(boltzmann()) == fps.identity(N)

    def test_fermi(self):
        # -log(1-u)
        assert de.xi(fermi()) == fps.from_function(
            lambda k: 0 if k == 0 else F(1, k), N
        )

    def test_order_1_statistics(self):
        # G = X'/(X/u) = 1 at order 0, so xi = u; there is no kernel at order 1
        stat = st.from_cluster([F(1)])
        assert de.xi(stat) == fps.identity(1)
        with pytest.raises(ValueError, match="unit linear coefficient"):
            de.map_g_inverse(stat)

    def test_abel_kernel(self):
        # phi = u(1-au)^2 -> xi = u/(1-au)
        a = F(2, 3)
        kernel = fps.mul(
            fps.identity(10),
            fps.pow_rational(fps.one(10) - a * fps.identity(10), 2),
        )
        phi = PhiSeries(kernel)
        assert de.xi(phi) == fps.from_function(
            lambda k: 0 if k == 0 else a ** (k - 1), 10
        )

    def test_dilogarithm_bernoulli_expansion(self):
        stat = st.from_cluster([F(1, k) for k in range(1, 17)], "dilogarithm")
        xi = de.xi(stat)
        B = bernoulli_numbers(15)
        for n in range(15):
            assert xi[n + 1] == B[n] / factorial(n + 1)

    def test_random_kernels_agree_with_free_energy_route(self):
        # xi computes only the integral; F(X(u)) is the independent route
        rng = random.Random(2021)
        for _ in range(20):
            phi = PhiSeries.from_t(random_t(rng), order=N)
            stat = de.map_g(phi)
            integral = de.xi(phi)
            assert integral.order == N
            assert integral == fps.compose(stat.F, stat.X_of_w).truncate(N)

    def test_chi_trivial_kernel(self):
        phi = PhiSeries.from_t([0, 0], order=6)
        for u in (F(2), F(1, 2), F(-3)):
            assert de.chi(phi, u) == u

    def test_chi_definitional(self):
        phi = PhiSeries.from_t([F(1)], order=8)
        xi = de.xi(phi)
        u = F(2)
        assert de.chi(phi, u) == 1 / fps.evaluate(xi, F(1, 2))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: PhiSeries.from_t([1, 2, 3], order=2),
             "order too small for the given deformation parameters"),
            # phi = u + 2u^2 gives xi = u - u^2 + O(u^3), whose sum vanishes at 1
            (lambda: de.chi(PhiSeries.from_t([-2], order=2), 1),
             "xi partial sum vanishes at 1/u; chi undefined here"),
        ],
        ids=["t-beyond-order", "xi-vanishes"],
    )
    def test_kernels_outside_the_domain_are_refused(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message

    def test_chi_rejects_zero(self):
        phi = PhiSeries.from_t([0], order=4)
        with pytest.raises(ValueError):
            de.chi(phi, 0)


class TestEntropyDensity:
    def test_boltzmann(self):
        h0, c0 = de.phi_entropy(boltzmann(), F(1))
        # H0 = p - p log p; with c0 = 1 the full density is -p log p
        assert h0.plain == fps.identity(N)
        assert h0.logpart == -fps.identity(N)
        assert c0 == 1

    def test_fermi(self):
        # -(1-p) log(1-p) = p - sum_{k>=2} p^k/(k(k-1))
        h0, _ = de.phi_entropy(fermi(), F(0))
        expected = fps.from_function(
            lambda k: 1 if k == 1 else (0 if k == 0 else F(-1, k * (k - 1))), N
        )
        assert h0.plain == expected
        assert h0.logpart == -fps.identity(N)

    def test_one_parameter_family(self):
        # -p log p - (1/eps)(1-eps p) log(1 - eps p) + (linear term)
        eps = F(1, 3)
        stat = st.from_cluster([(-eps) ** k for k in range(N)], "one-parameter")
        h0, _ = de.phi_entropy(stat)
        assert h0.plain[1] == 1
        for k in range(2, N + 1):
            assert h0.plain[k] == -(eps ** (k - 1)) / (k * (k - 1))

    def test_gradient_for_classical_statistics(self):
        for s in (boltzmann(), fermi(), bose()):
            assert de.entropy_gradient_holds(s)

    def test_gradient_random_kernels(self):
        rng = random.Random(43)
        for _ in range(20):
            assert de.entropy_gradient_holds(PhiSeries.from_t(random_t(rng), order=N))

    def test_main_theorem_catalog_and_random(self):
        assert de.main_theorem_holds(boltzmann(), F(1))
        assert de.main_theorem_holds(fermi(), F(0))
        assert de.main_theorem_holds(bose())
        rng = random.Random(47)
        for _ in range(20):
            w = [F(1)] + random_t(rng) + [F(0)] * 6
            assert de.main_theorem_holds(st.from_cluster(w))
        # substitution is linear: [H0 - c p](w) + c w is H0(w) for every c
        assert all(de.main_theorem_holds(bose(), c) for c in (F(1), F(-7, 3)))
        assert de.main_theorem_holds(st.from_cluster([F(1)]))  # order 1, through 0


class TestDerivedMemo:
    """The kernel and G = u X'/X of a statistics are computed on first read only."""

    @staticmethod
    def spy(monkeypatch, *names):
        calls = dict.fromkeys(names, 0)

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        for name in names:
            monkeypatch.setattr(de, name, counted(name, getattr(de, name)))
        return calls

    @staticmethod
    def reads(s):
        return (
            de.map_g_inverse(s),
            de.ln_phi(s).plain,
            de.xi(s),
            de.phi_entropy(s).series.plain,
            de.map_h(s),
        )

    def test_second_read_computes_nothing(self, monkeypatch):
        s = st.from_cluster([1, 2, F(-1, 3), 0, 5] + [0] * 7, "memo")
        X = s.X_of_w
        # the kernel is one division and G = X'/(X/u) the other
        calls = self.spy(monkeypatch, "phi_from_x", "divide", "reciprocal")
        first = self.reads(s)
        assert calls == {"phi_from_x": 1, "divide": 2, "reciprocal": 0}
        second = self.reads(s)
        assert de.main_theorem_holds(s) and de.entropy_gradient_holds(s)
        assert calls == {"phi_from_x": 1, "divide": 2, "reciprocal": 0}
        assert first[0] is second[0] and first[1:] == second[1:]
        # neither log X nor a composition: the module cannot call them
        assert not hasattr(de, "log_series") and not hasattr(de, "compose")
        assert first[0] == de.phi_from_x(X)
        assert first[1] == ln_phi_plain_through_log(X)
        assert first[3] == fps.compose(s.F, X) - fps.shift_up(first[1])

    def test_gradient_check_computes_G_once(self, monkeypatch):
        calls = self.spy(monkeypatch, "divide", "reciprocal")
        s = bose()
        assert de.entropy_gradient_holds(s) and de.entropy_gradient_holds(s)
        assert calls == {"divide": 1, "reciprocal": 0}
        # a kernel's G is one reciprocal per call, kept nowhere
        phi = PhiSeries.from_t([F(1, 2), F(-1)], order=N)
        assert de.entropy_gradient_holds(phi) and de.entropy_gradient_holds(phi)
        assert calls == {"divide": 1, "reciprocal": 2}

    def test_kernel_roundtrip_is_computed_not_stored(self, monkeypatch):
        # map_g must not store phi on the statistics it builds, or the
        # suite's map_g_inverse(map_g(phi)) roundtrip would check nothing
        phi = PhiSeries.from_t(random_t(random.Random(5)), order=N)
        calls = self.spy(monkeypatch, "phi_from_x")
        assert de.map_g_inverse(de.map_g(phi)).agrees_with(phi, N - 1)
        assert calls == {"phi_from_x": 1}
        de.tau(phi)
        assert calls == {"phi_from_x": 2}

    def test_kernel_argument_builds_no_statistics(self, monkeypatch):
        phi = PhiSeries.from_t([F(1, 2), F(-1)], order=N)
        calls = self.spy(monkeypatch, "map_g", "x_from_phi", "lagrange_invert")
        built = []
        real_init = st.Statistics.__init__

        def init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(st.Statistics, "__init__", init)
        de.ln_phi(phi), de.xi(phi), de.phi_entropy(phi), de.map_f(phi)
        assert de.entropy_gradient_holds(phi)
        assert built == []
        assert calls == {"map_g": 0, "x_from_phi": 0, "lagrange_invert": 0}
        de.exp_phi(phi)  # the weight function needs the statistics
        assert len(built) == 1
        assert calls == {"map_g": 1, "x_from_phi": 1, "lagrange_invert": 1}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_warm_memo_changes_no_verify_payload(self, monkeypatch, seed):
        # catalog caches of its own: the first run fills the memos, the second reads them
        monkeypatch.setattr(
            cat, "_cached_build", lru_cache(256)(cat._cached_build.__wrapped__)
        )
        monkeypatch.setattr(
            cat, "_cached_quantity", lru_cache(256)(cat._cached_quantity.__wrapped__)
        )

        def payload():
            data = verify.run("all", 16, seed).to_json()
            del data["elapsed_seconds"]
            return data

        cold = payload()
        assert cold["passed"]
        assert payload() == cold


def composed_h0(stat):
    """The plain part of H0 by its definition, F(X(u)) - u log(X(u)/u)."""
    X = stat.X_of_w
    return fps.compose(stat.F, X) - fps.shift_up(fps.log_series(fps.shift_down(X)))


class TestH0FromLogX:
    """phi_entropy reads the plain part of H0 off G = u X'/X, the logarithmic
    derivative of X, composing nothing."""

    @pytest.mark.parametrize("n", [3, 8, 16, 24])
    def test_equals_the_composition_on_the_catalog(self, n):
        for name in cat.entries_in_space():
            stat = st.Statistics(cat.build(name, n).F, name)  # an empty memo
            assert de.phi_entropy(stat).series.plain == composed_h0(stat), name

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(hs.lists(hs.builds(F, hs.integers(-9, 9), hs.integers(1, 9)), max_size=20))
    def test_equals_the_composition_on_random_statistics(self, cluster):
        stat = st.from_cluster([1] + cluster)
        assert de.phi_entropy(stat).series.plain == composed_h0(stat)

    @pytest.mark.parametrize("suite, plant", [
        ("main-theorem", lambda cs: [c * F(m, m + 1) for m, c in enumerate(cs)]),
        ("gradient", lambda cs: cs[:-1] + [F(0)]),
    ])
    def test_a_wrong_h0_fails_verify(self, monkeypatch, suite, plant):
        real = de._h0_plain
        monkeypatch.setattr(de, "_h0_plain", lambda G: TruncatedSeries(plant(list(real(G).coeffs))))
        # a catalog cache of its own, so that no memo holds the true H0
        monkeypatch.setattr(
            cat, "_cached_build", lru_cache(256)(cat._cached_build.__wrapped__)
        )
        results = verify.run(suite, 16, 0).results
        failed = [r.name for r in results if not r.passed]
        assert len(failed) > len(results) // 2, failed


class TestOneSeries:
    """ln_phi, xi, H0 and map_h read off G = u/phi against the routes they
    replaced: log(X/u) for ln_phi and H0, the kernel phi = X/X' for xi and
    map_h, and a kernel's statistics map_g(phi) for its H0.  xi and map_h
    keep one order more than the kernel route, whose values are a prefix."""

    @staticmethod
    def check_statistics(stat):
        X = stat.X_of_w
        assert de.ln_phi(stat).plain == ln_phi_plain_through_log(X)
        assert de.phi_entropy(stat).series.plain == h0_plain_through_log(X)
        xi = de.xi(stat)
        assert xi.order == stat.order
        if stat.order >= 2:  # an order-1 statistics has no kernel
            old = xi_through_kernel(X)
            assert old.order == stat.order - 1 and xi.truncate(old.order) == old
            s, old_s = de.map_h(stat).s_coeffs, de.map_f(de.map_g_inverse(stat)).s_coeffs
            assert len(s) == len(old_s) + 1 and s[:-1] == old_s

    @pytest.mark.parametrize("n", range(1, 25))
    def test_catalog_matches_earlier_routes(self, n):
        for name in cat.entries_in_space():
            self.check_statistics(st.Statistics(cat.build(name, n).F, name))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(hs.lists(hs.builds(F, hs.integers(-9, 9), hs.integers(1, 9)), max_size=20))
    def test_random_statistics_match_earlier_routes(self, cluster):
        self.check_statistics(st.from_cluster([1] + cluster))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(hs.lists(hs.builds(F, hs.integers(-9, 9), hs.integers(1, 9)), max_size=20))
    def test_random_kernels_match_earlier_routes(self, T):
        phi = PhiSeries.from_t(T)
        X = de.x_from_phi(phi)
        assert de.ln_phi(phi).plain == ln_phi_plain_through_log(X)
        assert de.phi_entropy(phi).series.plain == h0_plain_of_kernel_through_statistics(phi)
        if T:
            old = xi_through_kernel(X)
            assert de.xi(phi).truncate(old.order) == old


class TestDensityBijection:
    def test_zero_maps_to_zero(self):
        assert de.s_from_t([F(0), F(0)]) == [F(0), F(0)]

    def test_geometric(self):
        t = F(2, 5)
        s = de.s_from_t([t, 0, 0, 0])
        assert s == [t, t**2, t**3, t**4]

    def test_roundtrip(self):
        rng = random.Random(53)
        for _ in range(10):
            T = random_t(rng, 12)
            assert de.t_from_s(de.s_from_t(T)) == T

    def test_density_series_form(self):
        h = EntropyDensity.from_s([F(1), F(-2)])
        ls = h.to_logseries()
        assert ls.logpart == TruncatedSeries([0, -1, 0, 0])
        assert ls.plain == TruncatedSeries([0, 0, F(-1, 2), F(1, 3)])

    def test_map_f_equals_a_coefficients(self):
        rng = random.Random(59)
        phi = PhiSeries.from_t(random_t(rng), order=10)
        assert list(de.map_f(phi).s_coeffs) == de.a_coefficients(phi)

    def test_density_is_stored_as_its_unit_series(self):
        h = EntropyDensity.from_s([F(1, 2), 3])
        assert h.series == TruncatedSeries([1, F(1, 2), 3]) and h.order == 2
        assert h.s_coeffs == (F(1, 2), F(3))
        # 1/G = 1 - p/2 + (1/4 - 3) p^2, and phi = p/G
        assert de.map_f_inverse(h) == PhiSeries.from_t([F(1, 2), F(11, 4)])
        with pytest.raises(ValueError, match="constant term 1"):
            EntropyDensity(TruncatedSeries([2, 1]))

    def test_density_agreement_is_false_when_shorter(self):
        h = EntropyDensity.from_s([1, 2, 3])
        assert h.agrees_with(EntropyDensity.from_s([1, 2, 4]), 2)
        assert not h.agrees_with(EntropyDensity.from_s([1, 2, 4]), 3)
        assert not h.agrees_with(EntropyDensity.from_s([1, 2]), 3)
        assert not h.agrees_with(h, 4)


def kernels(order):
    """A sparse kernel (T_1, T_2 only), a dense one (every T_n) and one with
    large denominators, at one order."""
    rng = random.Random(order)
    dense = [F(rng.randint(-9, 9), rng.randint(1, 2**40)) for _ in range(order - 1)]
    return [
        PhiSeries.from_t(random_t(rng, min(2, order - 1)), order=order),
        PhiSeries.from_t(random_t(rng, order - 1), order=order),
        PhiSeries.from_t(dense, order=order),
    ]


class TestKernelMaps:
    """x_from_phi's recurrence, phi_from_x's division and tau's direct route
    against the routes they replaced."""

    @pytest.mark.parametrize("order", range(1, 33))
    def test_x_from_phi_matches_exp_of_ln_phi(self, order):
        for phi in kernels(order):
            expected = fps.shift_up(fps.exp_series(de.ln_phi(phi).plain))
            assert de.x_from_phi(phi) == expected

    def test_x_from_phi_of_catalog_kernels(self):
        for name in cat.entries_in_space():
            phi = de.map_g_inverse(cat.build(name, 24))
            expected = fps.shift_up(fps.exp_series(de.ln_phi(phi).plain))
            assert de.x_from_phi(phi) == expected, name

    @pytest.mark.parametrize("order", range(2, 21))
    def test_phi_from_x_matches_product_with_reciprocal(self, order):
        for phi in kernels(order):
            X = de.x_from_phi(phi)
            expected = fps.mul(X, fps.reciprocal(fps.derivative(X)))
            assert de.phi_from_x(X).series == expected

    @pytest.mark.parametrize("order", range(2, 21))
    def test_tau_matches_statistics_round_trip(self, order):
        for phi in kernels(order):
            assert de.tau(phi) == tau_through_statistics(phi)

    def test_tau_of_catalog_kernels_matches_statistics_round_trip(self):
        for name in cat.entries_in_space():
            phi = de.map_g_inverse(cat.build(name, 16))
            assert de.tau(phi) == tau_through_statistics(phi), name

    def test_tau_at_order_1_fails_as_the_round_trip_does(self):
        phi = PhiSeries.from_t([], order=1)
        with pytest.raises(ValueError) as direct:
            de.tau(phi)
        with pytest.raises(ValueError) as round_trip:
            tau_through_statistics(phi)
        assert str(direct.value) == str(round_trip.value)

    def test_tau_builds_no_statistics_and_inverts_once(self, monkeypatch):
        built, inverted = [], []
        real_init, real_invert = st.Statistics.__init__, de.lagrange_invert

        def init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        def invert(a):
            inverted.append(a)
            return real_invert(a)

        monkeypatch.setattr(st.Statistics, "__init__", init)
        monkeypatch.setattr(de, "lagrange_invert", invert)
        phi = PhiSeries.from_t([F(1, 2), F(-1, 3), F(2)], order=10)
        de.tau(phi)
        assert built == [] and len(inverted) == 1
        tau_through_statistics(phi)  # the spies see the old route's statistics
        assert len(built) == 2


class TestInvolutions:
    def test_tau_swaps_two_level_kernels(self):
        fd_phi = de.map_g_inverse(fermi())
        be_phi = de.map_g_inverse(bose())
        image = de.tau(fd_phi)
        assert image.agrees_with(be_phi, image.order)

    def test_tau_fixes_trivial_kernel(self):
        phi = PhiSeries.from_t([0] * 5, order=10)
        image = de.tau(phi)
        assert image.agrees_with(phi, image.order)

    def test_tau_is_involution(self):
        rng = random.Random(61)
        for _ in range(5):
            phi = PhiSeries.from_t(random_t(rng), order=12)
            back = de.tau(de.tau(phi))
            assert back.agrees_with(phi, 10)

    def test_rho_is_involution(self):
        rng = random.Random(67)
        for _ in range(5):
            h = de.map_f(PhiSeries.from_t(random_t(rng), order=12))
            back = de.rho(de.rho(h))
            assert back.agrees_with(h, 8)

    def test_commuting_triangle(self):
        rng = random.Random(71)
        for _ in range(5):
            phi = PhiSeries.from_t(random_t(rng), order=12)
            direct = de.map_f(phi)
            through_statistics = de.map_h(de.map_g(phi))
            assert direct.agrees_with(through_statistics, 9)


class TestMaxent:
    def test_two_level_boltzmann_multiplier(self):
        sol = de.maxent_solve(boltzmann(8), [0.0, 1.0], energy_target=0.25)
        assert sol.converged
        assert abs(sol.b - math.log(3)) < 1e-9
        assert abs(sol.a - math.log(4.0 / 3.0)) < 1e-9
        assert abs(sol.p[0] - 0.75) < 1e-9 and abs(sol.p[1] - 0.25) < 1e-9

    def test_fermi_occupation_matches_logistic(self):
        stat = fermi(56)
        a, b = 0.5, 1.0
        energies = [0.0, 1.0, 2.0]
        ev = de.max_entropy_distribution(stat, energies, a, b)
        for p, e in zip(ev.p, energies):
            assert abs(p - 1.0 / (math.exp(a + b * e) + 1.0)) < 1e-9

    def test_degenerate_multipliers_are_well_defined(self):
        stat = fermi(20)
        ev = de.max_entropy_distribution(stat, [0.0, 1.0], 0.0, 0.0)
        w_coeffs = [float(c) for c in stat.w.coeffs]
        expected = sum(w_coeffs)  # partial sum of w at q = 1
        assert ev.p[0] == pytest.approx(expected)

    def test_residuals_reported(self):
        ev = de.max_entropy_distribution(
            boltzmann(8), [0.0, 1.0], 0.0, 0.0, energy_target=0.25
        )
        assert ev.residuals[0] == pytest.approx(1.0)  # sum p = 2, target 1
        assert ev.residuals[1] == pytest.approx(0.75)

    def test_nonconvergence_raises_with_last_iterate(self):
        with pytest.raises(MaxentConvergenceError) as exc:
            de.maxent_solve(
                boltzmann(8), [0.0, 1.0], energy_target=0.25, max_iter=2
            )
        assert exc.value.last.iterations == 2
        assert not exc.value.last.converged

    def test_an_early_stop_reports_the_steps_taken(self):
        # two levels of equal energy: the Jacobian is singular at the start,
        # so no Newton step is taken
        with pytest.raises(MaxentConvergenceError, match="after 0 iterations") as exc:
            de.maxent_solve(boltzmann(8), [0.0, 0.0], energy_target=0.0, number_target=3.0)
        assert exc.value.last.iterations == 0
        assert exc.value.last.p == [1.0, 1.0]

    def test_no_energy_level_is_an_error(self):
        with pytest.raises(ValueError, match="at least one energy level"):
            de.maxent_solve(boltzmann(8), [], energy_target=0.0)

    def test_no_energy_level_is_an_error_of_the_evaluation(self):
        with pytest.raises(ValueError) as info:
            de.max_entropy_distribution(boltzmann(8), [], 0.0, 0.0)
        assert type(info.value) is ValueError
        assert str(info.value) == "maxent needs at least one energy level"
