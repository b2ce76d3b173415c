"""Deformed exponentials/logarithms and deformed entropy densities.

A deformation kernel phi(p) = p - sum_{n>=2} T_{n-1} p^n determines

* a deformed logarithm  ln_phi(p) = integral dp/phi = log p + sum a_n p^n/n,
* the series X(p) = p * exp(sum a_n p^n / n), which identifies the kernel
  with an interpolating statistics whose weight-function inverse is X
  (the map onto the statistics space, with inverse phi = X / X'),
* xi(u) = integral_0^u v/phi(v) dv, which equals F(X(u)) for the
  corresponding free energy F, and
* the entropy density H0(p) = F(X(p)) - p log X(p).

For a statistics, the kernel, log X and the plain part of H0 are computed
once and kept in its memo (:meth:`Statistics.derived`); a kernel argument
builds a fresh statistics each call.

Everything is computed in constant-normalized form: the scalar constants
log X(1) and F(X(1)) - log X(1) that a definite lower integration bound
would contribute are generally transcendental, so they are dropped here
and only reattached as registered exact values by catalog entries.  All
identities are stated and tested in the constant-free form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from . import statistics as st
from .series import (
    LogSeries,
    RationalLike,
    TruncatedSeries,
    as_rational,
    compose,
    derivative,
    evaluate,
    exp_series,
    identity,
    integrate_extend,
    lagrange_invert,
    log_series,
    logseries_compose,
    logseries_derivative,
    mul,
    reciprocal,
    shift_down,
    shift_up,
)
from .statistics import Statistics


class PhiSeries:
    """A deformation kernel phi(p) = p - sum_{n>=2} T_{n-1} p^n."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        if series.coeffs[0] != 0:
            raise ValueError("deformation kernel must vanish at 0")
        if series.order < 1 or series.coeffs[1] != 1:
            raise ValueError("deformation kernel must have unit linear coefficient")
        object.__setattr__(self, "series", series)

    def __setattr__(self, name, value):
        raise AttributeError("PhiSeries is immutable")

    @property
    def order(self) -> int:
        return self.series.order

    def t_coefficients(self) -> list[Fraction]:
        """T_1..T_{order-1} with phi = p - sum T_{n-1} p^n."""
        return [-c for c in self.series.coeffs[2:]]

    @staticmethod
    def from_t(T: Sequence[RationalLike], order: int | None = None) -> PhiSeries:
        T = [as_rational(c) for c in T]
        if order is None:
            order = len(T) + 1
        if order < len(T) + 1:
            raise ValueError("order too small for the given deformation parameters")
        coeffs = [Fraction(0), Fraction(1)] + [-c for c in T]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return PhiSeries(TruncatedSeries(coeffs))

    def __eq__(self, other):
        if not isinstance(other, PhiSeries):
            return NotImplemented
        return self.series == other.series

    def __repr__(self):
        return f"PhiSeries({self.series!r})"

    def agrees_with(self, other: PhiSeries, through: int | None = None) -> bool:
        return self.series.agrees_with(other.series, through)


class EntropyDensity:
    """H_s(p) = -p (log p + sum_n s_n p^n / (n(n+1))), stored by the s_n."""

    __slots__ = ("s_coeffs",)

    def __init__(self, s_coeffs: Sequence[RationalLike]):
        object.__setattr__(
            self, "s_coeffs", tuple(as_rational(c) for c in s_coeffs)
        )

    def __setattr__(self, name, value):
        raise AttributeError("EntropyDensity is immutable")

    def __eq__(self, other):
        if not isinstance(other, EntropyDensity):
            return NotImplemented
        return self.s_coeffs == other.s_coeffs

    def __repr__(self):
        return f"EntropyDensity({[str(c) for c in self.s_coeffs]})"

    def to_logseries(self) -> LogSeries:
        """The canonical form -p log p - sum s_n p^{n+1} / (n(n+1))."""
        n = len(self.s_coeffs)
        plain = [Fraction(0)] * (n + 2)
        logpart = [Fraction(0)] * (n + 2)
        logpart[1] = Fraction(-1)
        for k, s in enumerate(self.s_coeffs, start=1):
            plain[k + 1] = -s / (k * (k + 1))
        return LogSeries(TruncatedSeries(plain), TruncatedSeries(logpart))

    def agrees_with(self, other: EntropyDensity, through: int) -> bool:
        a = self.s_coeffs[:through]
        b = other.s_coeffs[:through]
        return len(a) >= through and len(b) >= through and a == b


PhiOrStatistics = Union[PhiSeries, Statistics]


def _as_statistics(arg: PhiOrStatistics) -> Statistics:
    return map_g(arg) if isinstance(arg, PhiSeries) else arg


# -- the correspondence with statistics ---------------------------------------


def a_coefficients(phi: PhiSeries, n_max: int | None = None) -> list[Fraction]:
    """a_1..a_{n_max} in ln_phi(p) = log p + sum a_n p^n / n.

    Since 1/phi = (1/p) * (p/phi), the a_n are the coefficients of the
    unit series p/phi(p).
    """
    G = reciprocal(shift_down(phi.series))
    if n_max is None:
        n_max = G.order
    if n_max > G.order:
        raise ValueError("requested more coefficients than the kernel determines")
    return list(G.coeffs[1 : n_max + 1])


def x_from_phi(phi: PhiSeries) -> TruncatedSeries:
    """X(p) = p * exp(sum a_n p^n / n) = exp(ln_phi(p))."""
    return shift_up(exp_series(ln_phi(phi).plain))


def phi_from_x(X: TruncatedSeries) -> PhiSeries:
    """phi(u) = X(u) / X'(u) = 1 / (d/du log X(u)); inverse of x_from_phi."""
    return PhiSeries(mul(X, reciprocal(derivative(X))))


def map_g(phi: PhiSeries, name: str = "from-kernel") -> Statistics:
    """The statistics whose weight-function inverse is X(p) = exp(ln_phi(p))."""
    X = x_from_phi(phi)
    return st.from_weight(lagrange_invert(X), name=name, inverse=X)


def map_g_inverse(stat: Statistics) -> PhiSeries:
    """The deformation kernel of a statistics: phi = X(u) / X'(u),
    computed once per statistics."""
    return stat.derived("phi", lambda: phi_from_x(stat.X_of_w))


def _log_X(stat: Statistics) -> TruncatedSeries:
    """log(X(u)/u), the plain part of ln_phi(stat), computed once per statistics."""
    return stat.derived("log_X", lambda: log_series(shift_down(stat.X_of_w)))


# -- deformed logarithm, exponential, xi, chi ---------------------------------


def ln_phi(arg: PhiOrStatistics) -> LogSeries:
    """The normalized deformed logarithm log X(p) = log p + sum a_n p^n / n.

    The scalar constant -log X(1) of the definite integral is dropped.
    For a statistics, the plain part is computed once.
    """
    if isinstance(arg, PhiSeries):
        a = a_coefficients(arg)
        plain = TruncatedSeries(
            [Fraction(0)] + [c / (k + 1) for k, c in enumerate(a)]
        )
    else:
        plain = _log_X(arg)
    logpart = TruncatedSeries([Fraction(1)] + [Fraction(0)] * plain.order)
    return LogSeries(plain, logpart)


def exp_phi(arg: PhiOrStatistics) -> TruncatedSeries:
    """The deformed exponential, structurally: p as a series in q = exp(ln_phi p),
    which is exactly the weight function of the corresponding statistics."""
    return _as_statistics(arg).w


def xi(arg: PhiOrStatistics) -> TruncatedSeries:
    """xi(u) = integral_0^u v/phi(v) dv, which equals F(X(u)).

    Computed by the integral, the shorter of the two routes; the suite
    ``verify.suite_xi`` and the tests compare it with F(X(u)).
    """
    phi = arg if isinstance(arg, PhiSeries) else map_g_inverse(arg)
    return integrate_extend(reciprocal(shift_down(phi.series)))


def chi(phi: PhiSeries, u: RationalLike) -> Fraction:
    """The deduced-logarithm kernel chi(u) = 1 / xi(1/u), by partial sums."""
    u = as_rational(u)
    if u == 0:
        raise ValueError("chi is undefined at 0")
    val = evaluate(xi(phi), 1 / u)
    if val == 0:
        raise ValueError("xi partial sum vanishes at 1/u; chi undefined here")
    return 1 / val


# -- entropy density ----------------------------------------------------------


class PhiEntropy(NamedTuple):
    """Normalized entropy density H0(p) = F(X(p)) - p log X(p), plus the
    exact linear-term constant when a catalog entry registers one."""

    series: LogSeries
    constant: Fraction | None


def phi_entropy(arg: PhiOrStatistics, constant: Fraction | None = None) -> PhiEntropy:
    """H0(p) = F(X(p)) - p log X(p) as a log-augmented series.

    The full (un-normalized) density subtracts [F(X(1)) - log X(1)] * p,
    a constant that is generally transcendental; pass ``constant`` to
    record an exactly known value, otherwise it is flagged unevaluated.
    The plain part is computed once per statistics.
    """
    stat = _as_statistics(arg)
    plain = stat.derived(
        "H0", lambda: compose(stat.F, stat.X_of_w) - shift_up(_log_X(stat))
    )
    logpart = TruncatedSeries(
        [Fraction(0), Fraction(-1)] + [Fraction(0)] * (plain.order - 1)
    )
    return PhiEntropy(LogSeries(plain, logpart), constant)


def entropy_gradient_holds(arg: PhiOrStatistics) -> bool:
    """d/dp H0(p) == -ln_phi(p) up to an additive constant, exactly.

    Log parts must match coefficient-wise; plain parts may differ only in
    the constant term.
    """
    stat = _as_statistics(arg)
    grad = logseries_derivative(phi_entropy(stat).series)
    rhs = -ln_phi(stat)
    n = min(grad.order, rhs.order)
    if not grad.logpart.agrees_with(rhs.logpart, n):
        return False
    diff = grad.plain - rhs.plain
    return all(c == 0 for c in diff.coeffs[1 : n + 1])


def main_theorem_holds(
    stat: Statistics, constant: Fraction | None = None
) -> bool:
    """The entropy H(X) = F - w log X equals the entropy density evaluated
    at p = w(X), exactly as truncated log-augmented series.

    With the normalized density the identity is exact with no linear
    correction; when an exact constant c0 is registered, the identity is
    additionally checked in the un-normalized form
    H(X) = [H0 - c0 p](w(X)) + c0 w(X).  Without a registered constant the
    comparison is made modulo the span of w(X) (the residual must be an
    exact scalar multiple of w, and in normalized form that scalar is 0).
    """
    lhs = st.entropy(stat)
    h0 = phi_entropy(stat, constant).series
    rhs = logseries_compose(h0, stat.w)
    n = rhs.order
    if not lhs.logpart.agrees_with(rhs.logpart, n):
        return False
    diff = lhs.plain.truncate(n) - rhs.plain.truncate(n)
    if diff.coeffs[0] != 0:
        return False
    lam = diff.coeffs[1]
    if not diff.agrees_with(lam * stat.w.truncate(n), n):
        return False
    if constant is not None:
        # un-normalized form: subtracting c0*p before substitution and
        # adding back c0*w must reproduce the same entropy
        full = LogSeries(h0.plain - constant * identity(h0.plain.order), h0.logpart)
        rhs_full = logseries_compose(full, stat.w)
        corrected = LogSeries(
            rhs_full.plain + constant * stat.w.truncate(rhs_full.order),
            rhs_full.logpart,
        )
        if not lhs.agrees_with(corrected, corrected.order):
            return False
    return lam == 0 if constant is None else True


# -- the bijection with entropy densities -------------------------------------


def s_from_t(T: Sequence[RationalLike]) -> list[Fraction]:
    """1 + sum s_n p^n = 1 / (1 - sum T_n p^n)."""
    T = [as_rational(c) for c in T]
    base = TruncatedSeries([Fraction(1)] + [-c for c in T])
    return list(reciprocal(base).coeffs[1:])


def t_from_s(s: Sequence[RationalLike]) -> list[Fraction]:
    """Inverse of :func:`s_from_t`: 1 - sum T_n p^n = 1 / (1 + sum s_n p^n)."""
    s = [as_rational(c) for c in s]
    base = TruncatedSeries([Fraction(1)] + list(s))
    return [-c for c in reciprocal(base).coeffs[1:]]


def map_f(phi: PhiSeries) -> EntropyDensity:
    """Kernel -> entropy density; the s_n solve the reciprocal relation and
    coincide with the a_n of the deformed logarithm."""
    return EntropyDensity(s_from_t(phi.t_coefficients()))


def map_f_inverse(h: EntropyDensity) -> PhiSeries:
    return PhiSeries.from_t(t_from_s(h.s_coeffs))


def map_h(stat: Statistics) -> EntropyDensity:
    """Statistics -> entropy density, through the kernel."""
    return map_f(map_g_inverse(stat))


# -- induced involutions -------------------------------------------------------


def tau(phi: PhiSeries) -> PhiSeries:
    """The involution on kernels induced by the weight-function duality."""
    return map_g_inverse(st.dual(map_g(phi)))


def rho(h: EntropyDensity) -> EntropyDensity:
    """The involution on entropy densities induced by tau."""
    return map_f(tau(map_f_inverse(h)))


# -- maximum-entropy stationarity (double precision convenience) -------------


class MaxentEvaluation(NamedTuple):
    p: list[float]
    residuals: tuple[float, float]


class MaxentSolution(NamedTuple):
    a: float
    b: float
    p: list[float]
    residuals: tuple[float, float]
    iterations: int
    converged: bool


class MaxentConvergenceError(RuntimeError):
    """Newton iteration did not converge; carries the last iterate."""

    def __init__(self, last: MaxentSolution):
        super().__init__(
            f"no convergence after {last.iterations} iterations; "
            f"residuals {last.residuals}"
        )
        self.last = last


def _evaluate_float(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def max_entropy_distribution(
    stat: Statistics,
    energies: Sequence[float],
    a: float,
    b: float,
    energy_target: float = 0.0,
    number_target: float = 1.0,
) -> MaxentEvaluation:
    """Stationary occupation p_i = w(e^{-(a + b E_i)}) by float partial sums.

    Returns the p_i together with the constraint residuals
    (sum p_i - number_target, sum p_i E_i - energy_target) for
    caller-driven root finding.  The caller is responsible for keeping
    the e^{-(a+bE_i)} inside the region where the truncated partial sums
    are numerically sensible.
    """
    w_coeffs = [float(c) for c in stat.w.coeffs]
    p = [_evaluate_float(w_coeffs, math.exp(-(a + b * e))) for e in energies]
    r1 = sum(p) - number_target
    r2 = sum(pi * e for pi, e in zip(p, energies)) - energy_target
    return MaxentEvaluation(p, (r1, r2))


def maxent_solve(
    stat: Statistics,
    energies: Sequence[float],
    energy_target: float,
    number_target: float = 1.0,
    a0: float = 0.0,
    b0: float = 0.0,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> MaxentSolution:
    """Damped two-variable Newton iteration for the multipliers (a, b).

    Raises :class:`MaxentConvergenceError` (carrying the last iterate)
    rather than returning an unconverged answer silently.
    """
    dw_coeffs = [k * float(c) for k, c in enumerate(stat.w.coeffs)][1:]
    a, b = a0, b0

    def evaluate_at(a: float, b: float) -> MaxentEvaluation:
        return max_entropy_distribution(stat, energies, a, b, energy_target, number_target)

    p, (r1, r2) = evaluate_at(a, b)
    for iteration in range(1, max_iter + 1):
        if abs(r1) < tol and abs(r2) < tol:
            return MaxentSolution(a, b, p, (r1, r2), iteration - 1, True)
        j11 = j12 = j21 = j22 = 0.0
        for e in energies:
            q = math.exp(-(a + b * e))
            slope = _evaluate_float(dw_coeffs, q) * q
            j11 -= slope
            j12 -= slope * e
            j21 -= slope * e
            j22 -= slope * e * e
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        da = (-r1 * j22 + r2 * j12) / det
        db = (-r2 * j11 + r1 * j21) / det
        step = 1.0
        norm0 = r1 * r1 + r2 * r2
        for _ in range(40):
            try:
                p_new, (r1_new, r2_new) = evaluate_at(a + step * da, b + step * db)
            except OverflowError:  # math.exp out of range: reject the step
                r1_new = r2_new = math.inf
            if math.isfinite(r1_new) and math.isfinite(r2_new) and (
                r1_new * r1_new + r2_new * r2_new < norm0
            ):
                break
            step /= 2
        else:
            break
        a, b = a + step * da, b + step * db
        p, r1, r2 = p_new, r1_new, r2_new
    last = MaxentSolution(a, b, p, (r1, r2), max_iter, abs(r1) < tol and abs(r2) < tol)
    if last.converged:
        return last
    raise MaxentConvergenceError(last)


# -- JSON ----------------------------------------------------------------------


def phi_to_json(phi: PhiSeries) -> dict:
    return {"order": phi.order, "T": [str(c) for c in phi.t_coefficients()]}


def phi_from_json(data: dict) -> PhiSeries:
    return PhiSeries.from_t(data["T"], order=data["order"])


def entropy_density_to_json(h: EntropyDensity) -> dict:
    return {"s": [str(c) for c in h.s_coeffs]}


def entropy_density_from_json(data: dict) -> EntropyDensity:
    return EntropyDensity(data["s"])
