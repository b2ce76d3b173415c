"""Machine-checkable property suites over the whole catalog.

Each suite returns a list of :class:`PropertyResult`; a failing result
carries its first counterexample.  Random instances are drawn from a
seeded generator so runs are reproducible.  The library functions compute
and do not check themselves: their identities (inversion, xi = F(X), ...)
are checked here and in the tests.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

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
from .umbral import first_binomial_failure

SUITES = (
    "inversion",
    "binomial",
    "occupation",
    "duality",
    "main-theorem",
    "gradient",
    "xi",
    "fixtures",
)


class PropertyResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


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


def random_rational(rng: random.Random, span: int = 3, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_statistics(rng: random.Random, order: int, name: str = "random") -> Statistics:
    cluster = [Fraction(1)] + [random_rational(rng) for _ in range(5)]
    cluster += [Fraction(0)] * (order - len(cluster))
    return st.from_cluster(cluster, name)


def random_phi(rng: random.Random, order: int) -> PhiSeries:
    return PhiSeries.from_t([random_rational(rng) for _ in range(5)], order=order)


def _catalog_statistics(order: int) -> list[tuple[str, Statistics]]:
    return [(name, cat.build(name, order)) for name in cat.entries_in_space()]


# -- suites --------------------------------------------------------------------


def _result(suite: str, name: str, details: Iterable[str]) -> PropertyResult:
    """The check ``suite:name``, failed by its first counterexample.

    ``details`` lazily yields a counterexample description for each failing
    case, in order; an empty string stands for a case that holds.  It is
    consumed only up to the first failure, so later cases are not computed.
    """
    detail = next((d for d in details if d), "")
    return PropertyResult(suite, name, not detail, detail)


def suite_inversion(order: int, seed: int) -> list[PropertyResult]:
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

    return [
        _result("inversion", "compose-roundtrip-50-random", roundtrips()),
        _result("inversion", "catalog-double-inversion", (
            f"double inversion differs for {name}"
            for name, stat in _catalog_statistics(min(order, 12))
            if fps.lagrange_invert(stat.X_of_w) != stat.w
        )),
    ]


def suite_binomial(order: int, seed: int) -> list[PropertyResult]:
    """The conjugate sequence of each catalog free energy is of binomial type.

    An exact coefficient identity in x and y through degree min(8, order),
    checked once per sequence by :func:`first_binomial_failure`; it draws
    no random numbers, so ``seed`` has no effect.  A failure reports the
    least degree n at which the identity breaks.
    """
    out = []
    n_max = min(8, order)
    for name, stat in _catalog_statistics(max(n_max, 8)):
        n = first_binomial_failure(st.conjugate_polynomials(stat, n_max))
        detail = "" if n is None else f"n={n}"
        out.append(
            PropertyResult("binomial", f"binomial-type:{name}", n is None, detail)
        )
    return out


def suite_occupation(order: int, seed: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    out = []
    k_max = min(8, order)
    for name, stat in _catalog_statistics(max(k_max, 8)):
        W = st.occupation_polynomials(stat, k_max)
        out.append(_result("occupation", f"recursion:{name}", (
            f"(N1,N2,k)=({n1},{n2},{k})"
            for n1 in range(5) for n2 in range(5) for k in range(k_max + 1)
            if not st.convolution_holds(W, n1, n2, k)
        )))
        # deformed Chu-Vandermonde at random rational points
        points = (
            (n, random_rational(rng), random_rational(rng))
            for n in range(min(6, k_max) + 1) for _ in range(5)
        )
        out.append(_result("occupation", f"vandermonde:{name}", (
            f"n={n}, points ({x},{y})"
            for n, x, y in points if not st.convolution_holds(W, x, y, n)
        )))
    return out


def suite_duality(order: int, seed: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    instances = ((i, random_statistics(rng, order, f"random-{i}")) for i in range(100))
    out = [_result("duality", "involution-100-random", (
        f"instance {i}: {s.cluster_coefficients()[:6]}"
        for i, s in instances if st.dual(st.dual(s)) != s
    ))]
    be = cat.build("bose-einstein", order)
    fd = cat.build("fermi-dirac", order)
    bg = cat.build("boltzmann-gibbs", order)
    out.append(
        PropertyResult("duality", "swaps-be-fd", st.dual(be).F == fd.F and st.dual(fd).F == be.F)
    )
    out.append(PropertyResult("duality", "fixes-bg", st.dual(bg).F == bg.F))

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

    out.append(_result("duality", "group-law-random-triples", group_law()))
    return out


def suite_main_theorem(order: int, seed: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    out = []
    for name, stat in _catalog_statistics(max(order, 12)):
        constant = cat.get(name).registered_constant
        out.append(
            PropertyResult(
                "main-theorem", f"catalog:{name}", main_theorem_holds(stat, constant)
            )
        )
    instances = ((i, random_statistics(rng, order, f"random-{i}")) for i in range(100))
    out.append(_result("main-theorem", "100-random-statistics", (
        f"instance {i}: {s.cluster_coefficients()[:6]}"
        for i, s in instances if not main_theorem_holds(s)
    )))
    return out


def suite_gradient(order: int, seed: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    out = []
    for name, stat in _catalog_statistics(max(order, 12)):
        out.append(
            PropertyResult("gradient", f"catalog:{name}", entropy_gradient_holds(stat))
        )
    kernels = ((i, random_phi(rng, order)) for i in range(50))
    out.append(_result("gradient", "50-random-kernels", (
        f"instance {i}: T={phi.t_coefficients()[:5]}"
        for i, phi in kernels if not entropy_gradient_holds(phi)
    )))
    return out


def suite_xi(order: int, seed: int) -> list[PropertyResult]:
    """xi(u) = integral v/phi(v) dv equals F(X(u)), and the maps between
    kernels, statistics and entropy densities are bijections."""
    out = []
    for name, stat in _catalog_statistics(max(order, 16)):
        integral = xi(stat)
        via_free_energy = fps.compose(stat.F, stat.X_of_w)
        out.append(_result("xi", f"dual-path:{name}", (
            f"integral and F(X(u)) differ at u^{k}"
            for k in range(integral.order + 1)
            if integral.coeffs[k] != via_free_energy.coeffs[k]
        )))
    rng = random.Random(seed)

    def roundtrips():
        for i in range(20):
            phi = random_phi(rng, order)
            h = map_f(phi)
            if not map_g_inverse(map_g(phi)).agrees_with(phi, order - 1):
                yield f"kernel-statistics roundtrip, instance {i}"
            elif map_f_inverse(h) != PhiSeries.from_t(phi.t_coefficients()):
                yield f"kernel-density roundtrip, instance {i}"
            elif not tau(tau(phi)).agrees_with(phi, order - 2):
                yield f"tau involution, instance {i}"
            elif not rho(rho(h)).agrees_with(map_f(phi), min(4, len(h.s_coeffs))):
                yield f"rho involution, instance {i}"
            # commuting triangle: density from the statistics equals density from phi
            elif not map_f(map_g_inverse(map_g(phi))).agrees_with(h, order - 2):
                yield f"commuting triangle, instance {i}"

    out.append(_result("xi", "bijection-roundtrips-20-random", roundtrips()))
    return out


def suite_fixtures(order: int, seed: int) -> list[PropertyResult]:
    out = []
    for fixture in cat.fixtures():
        try:
            ok = fixture.check()
            detail = "" if ok else "coefficients differ"
        except Exception as exc:  # pragma: no cover - defensive
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append(
            PropertyResult(
                "fixtures",
                f"{fixture.entry}/{fixture.quantity}[{fixture.provenance}]",
                ok,
                detail,
            )
        )
    for fixture in cat.fixtures():
        if not fixture.oeis:
            continue
        check = oeis.check_fixture(fixture, fetch=False)
        out.append(
            PropertyResult(
                "fixtures",
                f"sequence:{fixture.entry}/{fixture.quantity}~{fixture.oeis}",
                check.passed,
                f"prefix {check.prefix} (need {max(check.min_prefix, 1)})",
            )
        )
    return out


_SUITE_FUNCTIONS: dict[str, Callable[[int, int], list[PropertyResult]]] = {
    "inversion": suite_inversion,
    "binomial": suite_binomial,
    "occupation": suite_occupation,
    "duality": suite_duality,
    "main-theorem": suite_main_theorem,
    "gradient": suite_gradient,
    "xi": suite_xi,
    "fixtures": suite_fixtures,
}


def run(suite: str = "all", order: int = 12, seed: int = 0) -> VerifyReport:
    if suite != "all" and suite not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite {suite!r}; valid: all, {', '.join(SUITES)}")
    names = list(SUITES) if suite == "all" else [suite]
    t0 = time.perf_counter()
    results: list[PropertyResult] = []
    for name in names:
        results.extend(_SUITE_FUNCTIONS[name](order, seed))
    return VerifyReport(results, time.perf_counter() - t0)
