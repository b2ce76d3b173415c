"""Deformed exponentials/logarithms and deformed entropy densities.

A deformation kernel phi(p) = p - sum_{n>=2} T_{n-1} p^n determines

* a deformed logarithm  ln_phi(p) = integral dp/phi = log p + sum a_n p^n/n,
* the series X(p) = p * exp(sum a_n p^n / n), which identifies the kernel
  with an interpolating statistics whose weight-function inverse is X
  (the map onto the statistics space, with inverse phi = X / X'),
* xi(u) = integral_0^u v/phi(v) dv, which equals F(X(u)) for the
  corresponding free energy F, and
* the entropy density H0(p) = F(X(p)) - p log X(p).

All four are read off one series, G(u) = u/phi(u) = 1 + sum a_n u^n: the
a_n of ln_phi are its coefficients, and they are also the s_n of the
entropy density.  For a kernel, G = 1/(phi/u); for a statistics,
G = u X'/X = X'/(X/u), computed once and kept in its memo
(:meth:`Statistics.derived`).  No statistics is built for a kernel.
Then xi = integral G, and the plain part of H0 needs no composition:
w(X(u)) = u gives d/du F(X(u)) = F'(X) X' = u X'/X = G, so
F(X(u)) = u + sum a_n u^(n+1) / (n+1) and, as log X = log u + sum a_n u^n / n,
H0(u) = u - sum_{n>=1} a_n u^(n+1) / (n(n+1)) - u log u.

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
    _canonical,
    _CheckedSeries,
    _horner,
    _solve,
    as_rational,
    derivative,
    divide,
    evaluate,
    identity,
    integrate_extend,
    lagrange_invert,
    logseries_compose,
    logseries_derivative,
    one,
    reciprocal,
    shift_down,
    shift_up,
)
from .statistics import Statistics


class PhiSeries(_CheckedSeries):
    """A deformation kernel phi(p) = p - sum_{n>=2} T_{n-1} p^n."""

    __slots__ = ()

    @staticmethod
    def _check(series: TruncatedSeries) -> None:
        if series._nums[0]:
            raise ValueError("deformation kernel must vanish at 0")
        if series.order < 1 or series._nums[1] != series._den:
            raise ValueError("deformation kernel must have unit linear coefficient")

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


class EntropyDensity(_CheckedSeries):
    """H_s(p) = -p (log p + sum_n s_n p^n / (n(n+1))), stored by its unit
    series G = 1 + sum_n s_n p^n: the G = p/phi of the kernel it belongs to."""

    __slots__ = ()

    @staticmethod
    def _check(series: TruncatedSeries) -> None:
        if series._nums[0] != series._den:
            raise ValueError("entropy density series must have constant term 1")

    @staticmethod
    def from_s(s: Sequence[RationalLike]) -> EntropyDensity:
        return EntropyDensity(TruncatedSeries([1, *s]))

    @property
    def s_coeffs(self) -> tuple[Fraction, ...]:
        """s_1..s_order."""
        return self.series.coeffs[1:]

    def to_logseries(self) -> LogSeries:
        """The canonical form -p log p - sum s_n p^{n+1} / (n(n+1)): minus the
        integral of sum s_n p^n / n, read off G."""
        plain = -integrate_extend(_a_over_n(self.series))
        return LogSeries(plain, -identity(plain.order))

    def agrees_with(self, other: EntropyDensity, through: int) -> bool:
        """s_1..s_through agree; False when either density is shorter."""
        return through <= min(self.order, other.order) and super().agrees_with(
            other, through
        )


PhiOrStatistics = Union[PhiSeries, Statistics]


def _g(arg: PhiOrStatistics) -> TruncatedSeries:
    """G(u) = u/phi(u) = 1 + sum a_n u^n, the series every quantity here is
    read off.  A kernel's G is 1/(phi/u).  A statistics' G is X'/(X/u),
    through u^(n-1) at order n, and is computed once per statistics."""
    if isinstance(arg, PhiSeries):
        return reciprocal(shift_down(arg.series))
    return arg.derived(
        "G", lambda: divide(derivative(arg.X_of_w), shift_down(arg.X_of_w))
    )


# -- the correspondence with statistics ---------------------------------------


def a_coefficients(phi: PhiSeries, n_max: int | None = None) -> list[Fraction]:
    """a_1..a_{n_max} in ln_phi(p) = log p + sum a_n p^n / n.

    Since 1/phi = (1/p) * (p/phi), the a_n are the coefficients of the
    unit series G = p/phi(p): the s_n of :func:`map_f`.
    """
    s = map_f(phi).s_coeffs
    if n_max is None:
        n_max = len(s)
    if not 0 <= n_max <= len(s):
        raise ValueError(f"the kernel determines a_1..a_{len(s)}, not {n_max} of them")
    return list(s[:n_max])


def x_from_phi(phi: PhiSeries) -> TruncatedSeries:
    """X(p) = p * exp(sum a_n p^n / n) = exp(ln_phi(p)).

    X is the solution of phi X' = X with X = p + O(p^2); comparing the
    p^M coefficients gives (M-1) x_M = -sum_{j=2..M} c_j (M-j+1) x_{M-j+1}
    for phi = sum c_j p^j.  With c_j = C_j / d and x_k = X_k / Q,
    x_M = -sum_j C_j (M-j+1) X_{M-j+1} / ((M-1) d Q), a sum over the
    nonzero c_j alone.
    """
    C, d = phi.series._nums, phi.series._den
    terms = [(j, c) for j, c in enumerate(C[2:], 2) if c]

    def step(M, X, Q):
        acc = 0
        for j, c in terms:
            if j > M:
                break
            acc += c * (M - j + 1) * X[M - j + 1]
        return -acc, (M - 1) * d * Q

    return _solve([0, 1], phi.order, step)


def phi_from_x(X: TruncatedSeries) -> PhiSeries:
    """phi(u) = X(u) / X'(u) = 1 / (d/du log X(u)); inverse of x_from_phi."""
    return PhiSeries(divide(X, derivative(X)))


def map_g(phi: PhiSeries, name: str = "from-kernel") -> Statistics:
    """The statistics whose weight-function inverse is X(p) = exp(ln_phi(p))."""
    X = x_from_phi(phi)
    return st.from_weight(lagrange_invert(X), name=name, inverse=X)


def map_g_inverse(stat: Statistics) -> PhiSeries:
    """The deformation kernel of a statistics: phi = X(u) / X'(u),
    computed once per statistics."""
    return stat.derived("phi", lambda: phi_from_x(stat.X_of_w))


# -- deformed logarithm, exponential, xi, chi ---------------------------------


def ln_phi(arg: PhiOrStatistics) -> LogSeries:
    """The normalized deformed logarithm log X(p) = log p + sum a_n p^n / n.

    The scalar constant -log X(1) of the definite integral is dropped.
    """
    return _ln_phi(_g(arg))


def _ln_phi(G: TruncatedSeries) -> LogSeries:
    plain = _a_over_n(G)
    return LogSeries(plain, one(plain.order))


def _a_over_n(G: TruncatedSeries) -> TruncatedSeries:
    """sum_{n>=1} a_n u^n / n for G = 1 + sum a_n u^n, through order
    G.order: the integral of (G - 1) / u."""
    return integrate_extend(_canonical(G._nums[1:], G._den))


def exp_phi(arg: PhiOrStatistics) -> TruncatedSeries:
    """The deformed exponential, structurally: p as a series in q = exp(ln_phi p),
    which is exactly the weight function of the corresponding statistics."""
    return (map_g(arg) if isinstance(arg, PhiSeries) else arg).w


def xi(arg: PhiOrStatistics) -> TruncatedSeries:
    """xi(u) = integral_0^u v/phi(v) dv = integral G, which equals F(X(u)).

    Computed by the integral, the shorter of the two routes; the suite
    ``verify.suite_xi`` and the tests compare it with F(X(u)).  For a
    statistics of order n it keeps every order X determines, through u^n.
    """
    return integrate_extend(_g(arg))


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
    The plain part, F(X(p)) - p log(X(p)/p), is read off G = p X'/X = 1 +
    sum a_n p^n as p - sum a_n p^(n+1) / (n(n+1)) (see the module docstring).
    """
    return PhiEntropy(_h0(_g(arg)), constant)


def _h0(G: TruncatedSeries) -> LogSeries:
    plain = _h0_plain(G)
    return LogSeries(plain, -identity(plain.order))


def _h0_plain(G: TruncatedSeries) -> TruncatedSeries:
    """p - sum_{n>=1} a_n p^(n+1) / (n(n+1)) for G = 1 + sum a_n p^n,
    through order G.order + 1: p minus the integral of sum a_n p^n / n."""
    return identity(G.order + 1) - integrate_extend(_a_over_n(G))


def entropy_gradient_holds(arg: PhiOrStatistics) -> bool:
    """d/dp H0(p) == -ln_phi(p) up to an additive constant, exactly.

    Log parts must match coefficient-wise; plain parts may differ only in
    the constant term.
    """
    G = _g(arg)
    grad = logseries_derivative(_h0(G))
    rhs = -_ln_phi(G)
    n = min(grad.order, rhs.order)
    if not grad.logpart.agrees_with(rhs.logpart, n):
        return False
    diff = grad.plain - rhs.plain
    return not any(diff._nums[1 : n + 1])


def main_theorem_holds(
    stat: Statistics, constant: Fraction | None = None
) -> bool:
    """The entropy H(X) = F - w log X equals the normalized entropy density
    H0 evaluated at p = w(X), exactly as truncated log-augmented series.

    ``constant`` is accepted for callers that hold a registered value c0 of
    the linear constant, but it cannot change the answer: substitution is
    linear, so the un-normalized form [H0 - c0 p](w(X)) + c0 w(X) is
    H0(w(X)) for every c0.
    """
    rhs = logseries_compose(phi_entropy(stat).series, stat.w)
    return st.entropy(stat).agrees_with(rhs, rhs.order)


# -- the bijection with entropy densities -------------------------------------


def s_from_t(T: Sequence[RationalLike]) -> list[Fraction]:
    """1 + sum s_n p^n = 1 / (1 - sum T_n p^n)."""
    return list(map_f(PhiSeries.from_t(T)).s_coeffs)


def t_from_s(s: Sequence[RationalLike]) -> list[Fraction]:
    """Inverse of :func:`s_from_t`: 1 - sum T_n p^n = 1 / (1 + sum s_n p^n)."""
    return map_f_inverse(EntropyDensity.from_s(s)).t_coefficients()


def map_f(arg: PhiOrStatistics) -> EntropyDensity:
    """Kernel or statistics -> entropy density: the density's series
    1 + sum s_n p^n is G = p/phi(p), so the s_n coincide with the a_n of the
    deformed logarithm.  A statistics of order n gives s_1..s_{n-1}."""
    return EntropyDensity(_g(arg))


map_h = map_f


def map_f_inverse(h: EntropyDensity) -> PhiSeries:
    """phi = p/G."""
    return PhiSeries(shift_up(reciprocal(h.series)))


# -- induced involutions -------------------------------------------------------


def tau(phi: PhiSeries) -> PhiSeries:
    """The involution on kernels induced by the weight-function duality.

    The statistics of phi has weight-function inverse X = x_from_phi(phi),
    and its dual has weight function X, hence inverse X^-1: so
    tau(phi) = phi_from_x(X^-1), one inversion and no statistics built.
    """
    return phi_from_x(lagrange_invert(x_from_phi(phi)))


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
    p = [_horner(w_coeffs, math.exp(-(a + b * e))) for e in energies]
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
    rather than returning an unconverged answer silently, and ValueError if
    ``energies`` is empty or exp overflows at the start point.  ``iterations``
    counts the Newton steps taken; the iteration stops before ``max_iter``
    steps at a singular Jacobian, or when no damped step lowers the residual.
    """
    if not energies:
        raise ValueError("maxent needs at least one energy level")
    dw_coeffs = [k * float(c) for k, c in enumerate(stat.w.coeffs)][1:]
    a, b = a0, b0

    def evaluate_at(a: float, b: float) -> MaxentEvaluation:
        return max_entropy_distribution(stat, energies, a, b, energy_target, number_target)

    try:
        p, (r1, r2) = evaluate_at(a, b)
    except OverflowError:  # math.exp out of range at the start point
        raise ValueError(f"start point (a0, b0) = ({a0}, {b0}) overflows exp") from None
    steps = 0
    while not (abs(r1) < tol and abs(r2) < tol) and steps < max_iter:
        j11 = j12 = j22 = 0.0
        for e in energies:
            q = math.exp(-(a + b * e))
            slope = _horner(dw_coeffs, q) * q
            j11 -= slope
            j12 -= slope * e
            j22 -= slope * e * e
        det = j11 * j22 - j12 * j12
        if det == 0.0 or not math.isfinite(det):
            break
        da = (-r1 * j22 + r2 * j12) / det
        db = (-r2 * j11 + r1 * j12) / det
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
        steps += 1
    last = MaxentSolution(a, b, p, (r1, r2), steps, abs(r1) < tol and abs(r2) < tol)
    if last.converged:
        return last
    raise MaxentConvergenceError(last)
