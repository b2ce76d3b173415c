"""Deformation kernels, deformed logarithms/exponentials, entropy densities."""

import math
import random
from fractions import Fraction as F
from functools import lru_cache
from math import factorial

import pytest

from oracles import bernoulli_numbers, weighted_multinomial_sum
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
        # xi determines one less coefficient than the build order
        assert de.xi(boltzmann()) == fps.identity(N - 1)

    def test_fermi(self):
        # -log(1-u)
        assert de.xi(fermi()) == fps.from_function(
            lambda k: 0 if k == 0 else F(1, k), N - 1
        )

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


class TestDerivedMemo:
    """The kernel, log X and H0 of a statistics are computed on first read only."""

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
        return (de.map_g_inverse(s), de.ln_phi(s).plain, de.phi_entropy(s).series.plain)

    def test_second_read_computes_nothing(self, monkeypatch):
        s = st.from_cluster([1, 2, F(-1, 3), 0, 5] + [0] * 7, "memo")
        X = s.X_of_w
        calls = self.spy(monkeypatch, "phi_from_x", "log_series", "compose")
        first = self.reads(s)
        assert calls == {"phi_from_x": 1, "log_series": 1, "compose": 1}
        second = self.reads(s)
        de.xi(s)
        assert de.main_theorem_holds(s) and de.entropy_gradient_holds(s)
        assert calls == {"phi_from_x": 1, "log_series": 1, "compose": 1}
        assert all(a is b for a, b in zip(first, second))
        log_X = fps.log_series(fps.shift_down(X))
        assert first[0] == de.phi_from_x(X)
        assert first[1] == log_X
        assert first[2] == fps.compose(s.F, X) - fps.shift_up(log_X)

    def test_gradient_check_computes_log_X_once(self, monkeypatch):
        calls = self.spy(monkeypatch, "log_series")
        assert de.entropy_gradient_holds(bose())
        assert calls == {"log_series": 1}

    def test_kernel_roundtrip_is_computed_not_stored(self, monkeypatch):
        # map_g must not store phi on the statistics it builds, or the
        # suite's map_g_inverse(map_g(phi)) roundtrip would check nothing
        phi = PhiSeries.from_t(random_t(random.Random(5)), order=N)
        calls = self.spy(monkeypatch, "phi_from_x")
        assert de.map_g_inverse(de.map_g(phi)).agrees_with(phi, N - 1)
        assert calls == {"phi_from_x": 1}
        de.tau(phi)
        assert calls == {"phi_from_x": 2}

    def test_kernel_argument_builds_a_fresh_statistics(self, monkeypatch):
        phi = PhiSeries.from_t([F(1, 2), F(-1)], order=N)
        calls = self.spy(monkeypatch, "log_series")
        for _ in range(2):
            de.phi_entropy(phi)
        assert calls == {"log_series": 2}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_warm_memo_changes_no_verify_payload(self, monkeypatch, seed):
        # a catalog cache of its own: the first run fills the memos, the second reads them
        monkeypatch.setattr(
            cat, "_cached_build", lru_cache(256)(cat._cached_build.__wrapped__)
        )

        def payload():
            data = verify.run("all", 16, seed).to_json()
            del data["elapsed_seconds"]
            return data

        cold = payload()
        assert cold["passed"]
        assert payload() == cold


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
        h = EntropyDensity([F(1), F(-2)])
        ls = h.to_logseries()
        assert ls.logpart == TruncatedSeries([0, -1, 0, 0])
        assert ls.plain == TruncatedSeries([0, 0, F(-1, 2), F(1, 3)])

    def test_map_f_equals_a_coefficients(self):
        rng = random.Random(59)
        phi = PhiSeries.from_t(random_t(rng), order=10)
        assert list(de.map_f(phi).s_coeffs) == de.a_coefficients(phi)

    def test_density_json_roundtrip(self):
        h = EntropyDensity([F(1, 2), F(3)])
        assert de.entropy_density_from_json(de.entropy_density_to_json(h)) == h

    def test_kernel_json_roundtrip(self):
        phi = PhiSeries.from_t([F(1, 2), F(-1)], order=7)
        assert de.phi_from_json(de.phi_to_json(phi)) == phi


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
