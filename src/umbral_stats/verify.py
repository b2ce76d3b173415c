"""Machine-checkable property suites over the whole catalog.

Each suite yields its checks as ``(name, passed, detail)``; a failing
check's detail is its first counterexample.  :func:`run` alone names a
check after its suite, as a :class:`PropertyResult`, and it computes a
check's cases only when it reaches that check.  Random instances are
drawn from a seeded generator so runs are reproducible.  The library
functions compute and do not check themselves: their identities
(inversion, xi = F(X), ...) are checked here and in the tests.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from . import catalog as cat
from . import oeis
from . import series as fps
from . import statistics as st
from .deformed_entropy import (
    PhiSeries,
    entropy_gradient_holds,
    main_theorem_holds,
    map_f,
    map_f_inverse,
    map_g,
    map_g_inverse,
    rho,
    tau,
    xi,
)
from .series import TruncatedSeries
from .statistics import Statistics
from .umbral import first_binomial_failure, first_convolution_failure

# A check as a suite yields it: (name, passed, detail).
Check = tuple[str, bool, str]


class PropertyResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return self._asdict()


class VerifyReport(NamedTuple):
    results: list[PropertyResult]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[PropertyResult]:
        return [r for r in self.results if not r.passed]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "elapsed_seconds": self.elapsed,
            "checks": [r.to_json() for r in self.results],
        }


def random_rational(rng: random.Random) -> Fraction:
    """n/d with -3 <= n <= 3 and 1 <= d <= 3, each drawn uniformly."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_statistics(rng: random.Random, order: int, name: str = "random") -> Statistics:
    cluster = [Fraction(1)] + [random_rational(rng) for _ in range(min(5, order - 1))]
    cluster += [Fraction(0)] * (order - len(cluster))
    return st.from_cluster(cluster, name)


def random_phi(rng: random.Random, order: int) -> PhiSeries:
    T = [random_rational(rng) for _ in range(min(5, order - 1))]
    return PhiSeries.from_t(T, order=order)


def _catalog_statistics(order: int) -> list[tuple[str, Statistics]]:
    return [(name, cat.build(name, order)) for name in cat.entries_in_space()]


# -- suites --------------------------------------------------------------------


def _first(name: str, details: Iterable[str]) -> Check:
    """The check ``name``, failed by its first counterexample.

    ``details`` lazily yields a counterexample description for each failing
    case, in order; an empty string stands for a case that holds.  It is
    consumed only up to the first failure, so later cases are not computed.
    """
    detail = next(filter(None, details), "")
    return name, not detail, detail


def suite_inversion(order: int, seed: int) -> Iterator[Check]:
    rng = random.Random(seed)
    ident = fps.identity(order)

    def roundtrips():
        for i in range(50):
            coeffs = [Fraction(0), rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])]
            coeffs += [random_rational(rng) for _ in range(order - 1)]
            s = TruncatedSeries(coeffs)
            t = fps.lagrange_invert(s)
            if fps.compose(s, t) != ident or fps.compose(t, s) != ident:
                yield f"roundtrip failed for instance {i}: {s!r}"

    yield _first("compose-roundtrip-50-random", roundtrips())
    yield _first("catalog-double-inversion", (
        f"double inversion differs for {name}"
        for name, stat in _catalog_statistics(min(order, 12))
        if fps.lagrange_invert(stat.X_of_w) != stat.w
    ))


def suite_binomial(order: int, seed: int) -> Iterator[Check]:
    """The conjugate sequence of each catalog free energy is of binomial type.

    An exact coefficient identity in x and y through degree min(8, order),
    checked once per sequence by :func:`first_binomial_failure`; it draws
    no random numbers, so ``seed`` has no effect.  A failure reports the
    least degree n at which the identity breaks.
    """
    n_max = min(8, order)
    # order 8 determines p_0..p_8, every degree checked at any order
    for name, stat in _catalog_statistics(8):
        n = first_binomial_failure(st.conjugate_polynomials(stat, n_max))
        yield f"binomial-type:{name}", n is None, "" if n is None else f"n={n}"


def suite_occupation(order: int, seed: int) -> Iterator[Check]:
    """Each catalog entry's occupation polynomials obey the deformed
    Chu-Vandermonde identity W_k(N1+N2) = sum_i W_i(N1) W_{k-i}(N2) through
    degree min(8, order): one exact check by :func:`first_convolution_failure`,
    reported under both names; ``seed`` has no effect.  A failure reports
    the least degree k at which the identity breaks.
    """
    k_max = min(8, order)
    # order 8 determines p_0..p_8, hence W_0..W_8, at any order
    for name, stat in _catalog_statistics(8):
        k = first_convolution_failure(st.occupation_polynomials(stat, k_max))
        for check in ("recursion", "vandermonde"):
            yield f"{check}:{name}", k is None, "" if k is None else f"k={k}"


def suite_duality(order: int, seed: int) -> Iterator[Check]:
    rng = random.Random(seed)
    instances = ((i, random_statistics(rng, order, f"random-{i}")) for i in range(100))
    # s against the statistics of a fresh inversion of its dual's weight
    # function: dual(dual(s)) would rebuild F from s.w, as s was built
    yield _first("involution-100-random", (
        f"instance {i}: {s.cluster_coefficients()[:6]}"
        for i, s in instances
        if st.from_weight(fps.lagrange_invert(st.dual(s).w)) != s
    ))
    be = cat.build("bose-einstein", order)
    fd = cat.build("fermi-dirac", order)
    bg = cat.build("boltzmann-gibbs", order)
    yield "swaps-be-fd", st.dual(be).F == fd.F and st.dual(fd).F == be.F, ""
    yield "fixes-bg", st.dual(bg).F == bg.F, ""

    # group law: associativity, identity, twisted law reduces at m = 0
    def group_law():
        bg10 = cat.build("boltzmann-gibbs", min(order, 10))
        for i in range(5):
            a, b, c = (random_statistics(rng, min(order, 10), n) for n in "abc")
            left = st.group_compose(st.group_compose(a, b), c)
            if left != st.group_compose(a, st.group_compose(b, c)):
                yield f"associativity instance {i}"
            elif st.group_compose(a, bg10) != a or st.group_compose(bg10, a) != a:
                yield f"identity instance {i}"
            elif st.group_compose_m(a, b, 0) != st.group_compose(a, b):
                yield f"m=0 reduction instance {i}"

    yield _first("group-law-random-triples", group_law())


def suite_main_theorem(order: int, seed: int) -> Iterator[Check]:
    rng = random.Random(seed)
    for name, stat in _catalog_statistics(max(order, 12)):
        yield f"catalog:{name}", main_theorem_holds(stat), ""
    instances = ((i, random_statistics(rng, order, f"random-{i}")) for i in range(100))
    yield _first("100-random-statistics", (
        f"instance {i}: {s.cluster_coefficients()[:6]}"
        for i, s in instances if not main_theorem_holds(s)
    ))


def suite_gradient(order: int, seed: int) -> Iterator[Check]:
    rng = random.Random(seed)
    for name, stat in _catalog_statistics(max(order, 12)):
        yield f"catalog:{name}", entropy_gradient_holds(stat), ""
    kernels = ((i, random_phi(rng, order)) for i in range(50))
    yield _first("50-random-kernels", (
        f"instance {i}: T={phi.t_coefficients()[:5]}"
        for i, phi in kernels if not entropy_gradient_holds(phi)
    ))


def suite_xi(order: int, seed: int) -> Iterator[Check]:
    """xi(u) = integral v/phi(v) dv equals F(X(u)), and the maps between
    kernels, statistics and entropy densities are bijections."""
    for name, stat in _catalog_statistics(max(order, 16)):
        integral = xi(stat)
        via_free_energy = fps.compose(stat.F, stat.X_of_w)
        yield _first(f"dual-path:{name}", (
            f"integral and F(X(u)) differ at u^{k}"
            for k in range(integral.order + 1)
            if integral.coeffs[k] != via_free_energy.coeffs[k]
        ))
    rng = random.Random(seed)

    def roundtrips():
        for i in range(20):
            phi = random_phi(rng, order)
            h = map_f(phi)
            stat = map_g(phi)
            if not map_g_inverse(stat).agrees_with(phi, order - 1):
                yield f"kernel-statistics roundtrip, instance {i}"
            elif map_f_inverse(h) != PhiSeries.from_t(phi.t_coefficients()):
                yield f"kernel-density roundtrip, instance {i}"
            elif not tau(tau(phi)).agrees_with(phi, order - 2):
                yield f"tau involution, instance {i}"
            # rho(rho(h)) determines all but the last two coefficients of h
            elif not rho(rho(h)).agrees_with(h, h.order - 2):
                yield f"rho involution, instance {i}"
            # commuting triangle: the density read off the statistics' own
            # G = X'/(X/u) is the density of phi, coefficient for coefficient
            elif map_f(stat) != h:
                yield f"commuting triangle, instance {i}"

    yield _first("bijection-roundtrips-20-random", roundtrips())


def suite_fixtures(order: int, seed: int) -> Iterator[Check]:
    fixtures = cat.fixtures()
    for fixture in fixtures:
        try:
            detail = "" if fixture.check() else "coefficients differ"
        except Exception as exc:  # pragma: no cover - defensive
            detail = f"{type(exc).__name__}: {exc}"
        yield f"{fixture.entry}/{fixture.quantity}[{fixture.provenance}]", not detail, detail
    for fixture in fixtures:
        if fixture.oeis:
            check = oeis.check_fixture(fixture, fetch=False)
            yield (
                f"sequence:{fixture.entry}/{fixture.quantity}~{fixture.oeis}",
                check.passed,
                f"prefix {check.matching_prefix} (need {max(check.min_prefix, 1)})",
            )


_SUITE_FUNCTIONS = {
    "inversion": suite_inversion,
    "binomial": suite_binomial,
    "occupation": suite_occupation,
    "duality": suite_duality,
    "main-theorem": suite_main_theorem,
    "gradient": suite_gradient,
    "xi": suite_xi,
    "fixtures": suite_fixtures,
}
SUITES = tuple(_SUITE_FUNCTIONS)


# The least order at which a suite can be stated, where it is above 1: the
# main theorem compares through the order - 1 terms its kernel keeps, and
# tau(tau(phi)) in the xi roundtrips keeps order - 2.
_MIN_ORDER = {"main-theorem": 2, "xi": 3}


def run(suite: str = "all", order: int = 12, seed: int = 0) -> VerifyReport:
    if suite != "all" and suite not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite {suite!r}; valid: all, {', '.join(SUITES)}")
    names = SUITES if suite == "all" else (suite,)
    for name in names:
        if order < _MIN_ORDER.get(name, 1):
            raise ValueError(f"the {name} suite needs order {_MIN_ORDER[name]} or more")
    t0 = time.perf_counter()
    results = [
        PropertyResult(name, *check)
        for name in names
        for check in _SUITE_FUNCTIONS[name](order, seed)
    ]
    return VerifyReport(results, time.perf_counter() - t0)
