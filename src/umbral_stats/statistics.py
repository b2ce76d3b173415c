"""The space of interpolating occupation statistics.

A statistics is determined by its one-particle free energy
F(X) = sum w_n X^n / n with w_1 = 1.  Derived data:

* the weight function w = X F'(X) (the mean occupation as a series in
  fugacity), normalized so w = X + O(X^2), computed on construction,
* the partition function z = exp(F), whose coefficients are the
  occupation numbers W_n, computed on first read,
* the compositional inverse X(w) of the weight function, computed on
  first read unless the caller already holds it,
* the conjugate sequence of F, whose polynomials divided by k! are the
  occupation polynomials W_k(N), computed on first read and kept at the
  largest degree read so far.

Each derived value is computed on first read and kept in the statistics'
memo (:meth:`Statistics.derived`), which also holds the kernel and the
series G = u X'/X that :mod:`.deformed_entropy` reads the deformed
logarithm, xi and the entropy density off; only the conjugate sequence is
computed again, when a larger degree is read.

The involution swapping Bose-Einstein and Fermi-Dirac statistics sends a
weight function to its compositional inverse; series composition of
weight functions is a group law with the Boltzmann-Gibbs statistics
(w = X) as identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, NamedTuple, Sequence, TypeVar

from . import series as fps
from .series import (
    LogSeries,
    RationalLike,
    TruncatedSeries,
    _canonical,
    _Value,
    as_rational,
    compose,
    derivative,
    evaluate,
    exp_series,
    integrate_extend,
    lagrange_invert,
    log_series,
    shift_down,
    shift_up,
)
from .umbral import DeltaSeries, Polynomial, PolynomialSequence, conjugate_sequence

T = TypeVar("T")


class Statistics(_Value):
    """An interpolating statistics, stored by its free energy, which alone
    decides equality."""

    __slots__ = ("name", "F", "w", "_memo")

    def __init__(
        self,
        F: TruncatedSeries,
        name: str = "statistics",
        *,
        inverse: TruncatedSeries | None = None,
        _w: TruncatedSeries | None = None,
    ):
        """``inverse``, if given, must be the compositional inverse of the
        weight function through at least F's order; it is stored as X(w)
        unchecked, in place of inverting w on first read.  ``_w`` is for
        this module's builders, which already hold w = X F'."""
        if F._nums[0]:
            raise ValueError("free energy must vanish at 0")
        if F.order < 1 or F._nums[1] != F._den:
            raise ValueError(
                "free energy must have unit linear coefficient (normalization w_1 = 1)"
            )
        w = shift_up(derivative(F)) if _w is None else _w
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "w", w)
        # F(0) = 0 and w_1 = 1 hold, so exp(F) and X(w) cannot fail when read
        memo = {} if inverse is None else {"X_of_w": inverse.truncate(F.order)}
        object.__setattr__(self, "_memo", memo)

    def _key(self):
        return self.F

    def derived(self, key: str, compute: Callable[[], T]) -> T:
        """The derived value stored under ``key``, computed by ``compute()``
        on first read.

        A derived value is a function of F alone, immutable, and never
        ``None``.  Keys in use: "z" and "X_of_w" (here), "phi" and "G"
        (:mod:`.deformed_entropy`); the memo also holds "conjugate",
        which grows with the degree read (:func:`conjugate_polynomials`).
        """
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value

    @property
    def z(self) -> TruncatedSeries:
        """The partition function exp(F)."""
        return self.derived("z", lambda: exp_series(self.F))

    @property
    def X_of_w(self) -> TruncatedSeries:
        """The compositional inverse of the weight function."""
        return self.derived("X_of_w", lambda: lagrange_invert(self.w))

    @property
    def order(self) -> int:
        return self.F.order

    def __repr__(self):
        return f"Statistics({self.name!r}, order={self.order})"

    def cluster_coefficients(self) -> list[Fraction]:
        """w_1..w_N."""
        return list(self.w.coeffs[1:])

    def occupation_numbers(self) -> list[Fraction]:
        """W_1..W_N (W_0 = 1 is implicit)."""
        return list(self.z.coeffs[1:])


class SpectralSample(NamedTuple):
    """A point on the plane curves z = z(X) and e^Y = z(X), by partial sums."""

    X: Fraction
    z: Fraction
    Y: Fraction


def from_cluster(w_list: Sequence[RationalLike], name: str = "statistics") -> Statistics:
    """Build from cluster coefficients w_1, w_2, ...; requires w_1 = 1."""
    return from_weight(TruncatedSeries([0, *w_list]), name)


def from_weight(
    w: TruncatedSeries,
    name: str = "statistics",
    *,
    inverse: TruncatedSeries | None = None,
) -> Statistics:
    """Build from the weight function w(X) = X + ....

    Pass ``inverse`` when the compositional inverse of w is already known,
    so that reading X(w) inverts nothing.  A nonzero constant term of ``w``
    is rejected; F = sum w_n X^n / n is the integral of w / X."""
    if w._nums[0]:
        raise ValueError("weight function must vanish at 0")
    if w.order < 1 or w._nums[1] != w._den:
        raise ValueError("first cluster coefficient must be 1")
    return Statistics(integrate_extend(shift_down(w)), name, inverse=inverse, _w=w)


def from_occupation(
    W_list: Sequence[RationalLike], name: str = "statistics"
) -> Statistics:
    """Build from occupation numbers W_1, W_2, ...; requires W_1 = 1."""
    W = [as_rational(c) for c in W_list]
    if not W or W[0] != 1:
        raise ValueError("first occupation number must be 1")
    z = TruncatedSeries([Fraction(1)] + W)
    return Statistics(log_series(z), name)


def _conjugate_through(stat: Statistics, n: int) -> PolynomialSequence:
    """The conjugate sequence of F through degree n or more.

    One sequence per statistics, kept at the largest degree asked so far:
    p_m does not depend on the degree n >= m it was built to, so a smaller
    degree reads a prefix.  A degree outside 0..order reaches
    :func:`conjugate_sequence`, which refuses it.
    """
    seq = stat._memo.get("conjugate")
    if seq is None or not 0 <= n < len(seq):
        seq = stat._memo["conjugate"] = conjugate_sequence(DeltaSeries(stat.F), n)
    return seq


def conjugate_polynomials(stat: Statistics, n: int) -> PolynomialSequence:
    """p_0..p_n of the conjugate sequence of F, with EGF exp(x F(X))."""
    seq = _conjugate_through(stat, n)
    return seq if len(seq) == n + 1 else PolynomialSequence(seq.polys[: n + 1])


def occupation_polynomials(stat: Statistics, k: int) -> list[Polynomial]:
    """W_0(N)..W_k(N): the deformed binomial coefficients, as exact
    polynomials in N.

    From z(X)^N = exp(N F(X)) = sum_k W_k(N) X^k, W_k(N) is the conjugate
    sequence of F at degree k divided by k!.
    """
    seq = _conjugate_through(stat, k)
    return [seq[j].scale(Fraction(1, factorial(j))) for j in range(k + 1)]


def occupation_polynomial(stat: Statistics, k: int) -> Polynomial:
    """W_k(N), a polynomial of degree k; see :func:`occupation_polynomials`."""
    return _conjugate_through(stat, k)[k].scale(Fraction(1, factorial(k)))


def convolution_holds(
    W: Sequence[Polynomial], x: RationalLike, y: RationalLike, k: int
) -> bool:
    """W_k(x+y) == sum_i W_i(x) W_{k-i}(y), exactly (deformed Chu-Vandermonde)."""
    if not 0 <= k < len(W):
        raise ValueError(f"degree {k} outside the sequence of {len(W)} polynomials")
    x, y = as_rational(x), as_rational(y)
    return W[k](x + y) == sum(W[i](x) * W[k - i](y) for i in range(k + 1))


def occupation_recursion_holds(stat: Statistics, n1: int, n2: int, k: int) -> bool:
    """W_k(N1+N2) == sum_i W_i(N1) W_{k-i}(N2), exactly."""
    return convolution_holds(occupation_polynomials(stat, k), n1, n2, k)


def dual(stat: Statistics) -> Statistics:
    """The statistics whose weight function is the compositional inverse
    of this one's; an involution fixing Boltzmann-Gibbs and swapping
    Bose-Einstein with Fermi-Dirac."""
    return from_weight(stat.X_of_w, name=f"dual({stat.name})", inverse=stat.w)


def group_compose(v: Statistics, w: Statistics, name: str | None = None) -> Statistics:
    """Composition of weight functions: the group law with BG as identity."""
    composed = compose(v.w, w.w)
    return from_weight(composed, name or f"({v.name} o {w.name})")


def _twist(w: TruncatedSeries, m: int) -> TruncatedSeries:
    """Coefficient map w_n -> n^m w_n on X^n (leaves the normalization alone)."""
    return _canonical([(k**m) * c for k, c in enumerate(w._nums)], w._den)


def group_compose_m(v: Statistics, w: Statistics, m: int) -> Statistics:
    """The m-th multiplication: compose the n^m-twisted weight functions.

    m = 0 twists nothing, so it is the plain composition law, and keeps its name.
    """
    if m < 0:
        raise ValueError("twist exponent must be non-negative")
    composed = compose(_twist(v.w, m), _twist(w.w, m))
    law = f"o_{m}" if m else "o"
    return from_weight(composed, f"({v.name} {law} {w.name})")


def entropy(stat: Statistics) -> LogSeries:
    """H(X) = F(X) - w(X) log X: the Legendre transform of the free energy."""
    return LogSeries(stat.F, -stat.w)


def spectral_samples(
    stat: Statistics, xs: Sequence[RationalLike]
) -> list[SpectralSample]:
    """Sample (X, z(X), Y = F(X)) by exact partial sums."""
    out = []
    for x in xs:
        x = as_rational(x)
        out.append(SpectralSample(x, evaluate(stat.z, x), evaluate(stat.F, x)))
    return out


def haldane_wu_W(g: RationalLike, n: int, beta: RationalLike) -> Fraction:
    """Exclusion-principle state count with rational exclusion parameter.

    (1/n!) * prod_{j=0}^{n-1} (g + (n-1)(1-beta) - j): the falling-factorial
    form of [g + (n-1)(1-beta)]! / (n! [g - 1 - beta(n-1)]!).  beta = 0
    gives the bosonic binomial C(g+n-1, n); beta = 1 the fermionic C(g, n).
    """
    if n < 0:
        raise ValueError("particle number must be non-negative")
    g = as_rational(g)
    beta = as_rational(beta)
    top = g + (n - 1) * (1 - beta)
    acc = Fraction(1)
    for j in range(n):
        acc *= top - j
        acc /= j + 1
    return acc


# -- JSON --------------------------------------------------------------------


def statistics_to_json(stat: Statistics) -> dict:
    return {
        "name": stat.name,
        "order": stat.order,
        "F": fps.series_to_json(stat.F),
        "w": fps.series_to_json(stat.w),
        "X_of_w": fps.series_to_json(stat.X_of_w),
        "W": [str(c) for c in stat.occupation_numbers()],
        "w_cluster": [str(c) for c in stat.cluster_coefficients()],
    }
