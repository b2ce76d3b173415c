"""Polynomial sequences of binomial type, Sheffer sequences, and operators.

The constructions here are driven by exponential generating functions.  A
*delta series* f (zero constant term, nonzero linear term) has an
*associated sequence* of polynomials p_n with f(D) p_n = n p_{n-1}; the
*conjugate sequence* of a delta series F is the associated sequence of
F's compositional inverse, with EGF exp(x F(t)).  Sheffer sequences add
an invertible prefactor: EGF exp(x F(t)) / g(F(t)).

Series of operators h(D) act on polynomials through their ordinary
coefficients: h(D) p = sum_k h_k D^k p.  Linear functionals <h(D)|p> are
realized as "apply the operator, evaluate at 0".
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterable, Sequence

from .series import (
    _ZERO,
    _horner,
    _int_horner,
    _int_mul,
    _int_powers,
    _numerators,
    RationalLike,
    TruncatedSeries,
    as_rational,
    compose,
    derivative,
    lagrange_invert,
    mul,
    reciprocal,
)


class Polynomial:
    """Exact-coefficient polynomial in one variable.

    ``coeffs[k]`` is the coefficient of ``x**k``; trailing zeros are
    stripped, and the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{head}x" + (f"^{k}" if k > 1 else ""))
        return " + ".join(terms).replace("+ -", "- ")

    def __add__(self, other: Polynomial) -> Polynomial:
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    def __sub__(self, other: Polynomial) -> Polynomial:
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return self.scale(as_rational(other))

    def __rmul__(self, other) -> Polynomial:
        return self.scale(as_rational(other))

    def scale(self, c: RationalLike) -> Polynomial:
        return Polynomial([as_rational(c) * a for a in self.coeffs])

    def shift_x(self) -> Polynomial:
        """Multiply by x."""
        if self.is_zero():
            return self
        return Polynomial((Fraction(0),) + self.coeffs)

    def diff(self) -> Polynomial:
        return Polynomial([k * self.coeffs[k] for k in range(1, len(self.coeffs))])

    def integral(self) -> Polynomial:
        """Antiderivative vanishing at 0."""
        return Polynomial(
            [Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        )

    def __call__(self, x: RationalLike) -> Fraction:
        return _horner(self.coeffs, x)


def poly_x(k: int = 1) -> Polynomial:
    """The monomial x**k."""
    return Polynomial([0] * k + [1])


def poly_to_json(p: Polynomial) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs]}


def poly_from_json(data: dict) -> Polynomial:
    return Polynomial(data["coeffs"])


# -- series wrappers ---------------------------------------------------------


class DeltaSeries:
    """A series with zero constant term and nonzero linear term."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        if series.coeffs[0] != 0:
            raise ValueError("delta series must have zero constant term")
        if series.order < 1 or series.coeffs[1] == 0:
            raise ValueError("delta series must have nonzero linear coefficient")
        object.__setattr__(self, "series", series)

    def __setattr__(self, name, value):
        raise AttributeError("DeltaSeries is immutable")

    @property
    def order(self) -> int:
        return self.series.order

    def inverse(self) -> DeltaSeries:
        return DeltaSeries(lagrange_invert(self.series))

    def __eq__(self, other):
        if not isinstance(other, DeltaSeries):
            return NotImplemented
        return self.series == other.series

    def __repr__(self):
        return f"DeltaSeries({self.series!r})"


class InvertibleSeries:
    """A series with nonzero constant term."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        if series.coeffs[0] == 0:
            raise ValueError("invertible series must have nonzero constant term")
        object.__setattr__(self, "series", series)

    def __setattr__(self, name, value):
        raise AttributeError("InvertibleSeries is immutable")

    @property
    def order(self) -> int:
        return self.series.order

    def __eq__(self, other):
        if not isinstance(other, InvertibleSeries):
            return NotImplemented
        return self.series == other.series

    def __repr__(self):
        return f"InvertibleSeries({self.series!r})"


class PolynomialSequence:
    """Polynomials p_0..p_n with p_0 = 1 and deg p_k = k."""

    __slots__ = ("polys", "_table")

    def __init__(self, polys: Sequence[Polynomial]):
        polys = tuple(polys)
        if not polys or polys[0] != Polynomial([1]):
            raise ValueError("sequence must start with p_0 = 1")
        for k, p in enumerate(polys):
            if p.degree != k:
                raise ValueError(f"p_{k} must have degree {k}, got {p.degree}")
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolynomialSequence is immutable")

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, k: int) -> Polynomial:
        return self.polys[k]

    def __iter__(self):
        return iter(self.polys)

    def __eq__(self, other):
        if not isinstance(other, PolynomialSequence):
            return NotImplemented
        return self.polys == other.polys

    def __repr__(self):
        return f"PolynomialSequence({list(self.polys)!r})"

    @property
    def numerators(self) -> list[tuple[list[int], int]]:
        """(N_k, d_k) with p_k = sum_j N_k[j] x**j / d_k, computed on first read."""
        if self._table is None:
            table = [_numerators(p.coeffs) for p in self.polys]
            object.__setattr__(self, "_table", table)
        return self._table

    def coefficient_matrix(self) -> list[list[Fraction]]:
        """Row n holds the x^k coefficients of p_n for k = 0..n."""
        return [
            [p.coefficient(k) for k in range(n + 1)] for n, p in enumerate(self.polys)
        ]


# -- sequence constructors ---------------------------------------------------


def _egf_sequence(
    F: TruncatedSeries, n: int, prefactor: TruncatedSeries | None = None
) -> PolynomialSequence:
    """p_m(x) = m! * sum_k (x^k / k!) [X^m] (prefactor * F(X)^k), m = 0..n.

    Reads the integer power table: [X^m] prefactor * F**k = rows[k][m] / (ds d**k).
    """
    rows, ds, d = _int_powers(F, n, prefactor)
    dens = [ds * d**k for k in range(n + 1)]
    return PolynomialSequence(
        Polynomial(
            [
                Fraction(factorial(m) // factorial(k) * rows[k][m], dens[k])
                if rows[k][m] else _ZERO
                for k in range(m + 1)
            ]
        )
        for m in range(n + 1)
    )


def conjugate_sequence(F: DeltaSeries, n: int) -> PolynomialSequence:
    """p_0..p_n with EGF sum p_n(x) X^n / n! = exp(x F(X)).

    Concretely p_n(x) = n! * sum_k (x^k / k!) [X^n] F(X)^k.
    """
    if n > F.order:
        raise ValueError(f"requested degree {n} exceeds series order {F.order}")
    return _egf_sequence(F.series, n)


def associated_sequence(f: DeltaSeries, n: int) -> PolynomialSequence:
    """The sequence with f(D) p_n = n p_{n-1}: conjugate to f's inverse."""
    return conjugate_sequence(f.inverse(), n)


def sheffer_sequence(g: InvertibleSeries, f: DeltaSeries, n: int) -> PolynomialSequence:
    """s_0..s_n with EGF sum s_n(x) t^n / n! = exp(x F(t)) / g(F(t)),
    where F is the compositional inverse of f."""
    return conjugate_sheffer_sequence(g, f.inverse(), n)


def conjugate_sheffer_sequence(
    g: InvertibleSeries, F: DeltaSeries, n: int
) -> PolynomialSequence:
    """s_0..s_n with EGF exp(x F(t)) / g(F(t)), from F itself.

    The Sheffer sequence of (g, f) for f the compositional inverse of F,
    built without inverting anything; g = 1 gives the conjugate sequence.
    """
    if n > min(g.order, F.order):
        raise ValueError("requested degree exceeds a series order")
    return _egf_sequence(F.series, n, reciprocal(compose(g.series, F.series)))


# -- operators ---------------------------------------------------------------


def apply_operator(h: TruncatedSeries, p: Polynomial) -> Polynomial:
    """h(D) p = sum_k h_k D^k p  (ordinary coefficients of h)."""
    out = Polynomial()
    current = p
    for k in range(min(h.order, max(p.degree, 0)) + 1):
        if h.coeffs[k] != 0:
            out = out + current.scale(h.coeffs[k])
        if current.is_zero():
            break
        current = current.diff()
    return out


def functional(h: TruncatedSeries, p: Polynomial) -> Fraction:
    """<h(D) | p> = (h(D) p)(0)."""
    return apply_operator(h, p).coefficient(0)


def umbral_shift_next(f: DeltaSeries, p_prev: Polynomial) -> Polynomial:
    """One step of the raising operator x * (1/f'(D)) applied to p_{n-1}."""
    inv_fprime = reciprocal(derivative(f.series))
    return apply_operator(inv_fprime, p_prev).shift_x()


def sheffer_shift_next(
    g: InvertibleSeries, f: DeltaSeries, s_prev: Polynomial
) -> Polynomial:
    """One step of [x - g'(D)/g(D)] * (1/f'(D)) applied to s_n."""
    inv_fprime = reciprocal(derivative(f.series))
    mid = apply_operator(inv_fprime, s_prev)
    ratio = mul(derivative(g.series), reciprocal(g.series))
    return mid.shift_x() - apply_operator(ratio, mid)


def umbral_composition(
    p: PolynomialSequence, q: PolynomialSequence
) -> PolynomialSequence:
    """r_n = sum_k a_{n,k} q_k where p_n = sum_k a_{n,k} x^k.

    If p and q are conjugate to F and G, the result is conjugate to G(F(t)).
    """
    if len(p) != len(q):
        raise ValueError("sequences must have equal length")
    out = []
    for n in range(len(p)):
        r = Polynomial()
        for k in range(n + 1):
            a = p[n].coefficient(k)
            if a != 0:
                r = r + q[k].scale(a)
        out.append(r)
    return PolynomialSequence(out)


def connection_coefficients(
    F: DeltaSeries, G: DeltaSeries, n: int
) -> list[list[Fraction]]:
    """c_{n,k} with q_n = sum_k c_{n,k} p_k for the conjugate sequences of F, G.

    The matrix is the coefficient matrix of the conjugate sequence of
    f(G(t)), f the compositional inverse of F: working the adjoints
    through, q_n = V(x^n) and p_n = U(x^n) give r_n = (U^-1 V)(x^n) with
    (U^-1 V)*(t) = f(G(t)).  (Substituting in the other order fails the
    falling/rising-factorial triangular solve.)
    """
    if n > min(F.order, G.order):
        raise ValueError("requested degree exceeds a series order")
    H = DeltaSeries(compose(F.inverse().series, G.series))
    return conjugate_sequence(H, n).coefficient_matrix()


class ShefferPair:
    """An (invertible, delta) pair; these compose as a group."""

    __slots__ = ("g", "f")

    def __init__(self, g: InvertibleSeries, f: DeltaSeries):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)

    def __setattr__(self, name, value):
        raise AttributeError("ShefferPair is immutable")

    def __eq__(self, other):
        if not isinstance(other, ShefferPair):
            return NotImplemented
        return self.g == other.g and self.f == other.f

    def __repr__(self):
        return f"ShefferPair(g={self.g!r}, f={self.f!r})"

    @staticmethod
    def identity(order: int) -> ShefferPair:
        from .series import identity as ident, one

        return ShefferPair(InvertibleSeries(one(order)), DeltaSeries(ident(order)))

    def compose(self, other: ShefferPair) -> ShefferPair:
        """(g, f) o (h, l) = (g * h(f), l(f))."""
        g_new = mul(self.g.series, compose(other.g.series, self.f.series))
        f_new = compose(other.f.series, self.f.series)
        return ShefferPair(InvertibleSeries(g_new), DeltaSeries(f_new))

    def inverse(self) -> ShefferPair:
        """(g, f)^-1 = (1 / g(F), F), F the compositional inverse of f."""
        F = self.f.inverse().series
        g_new = reciprocal(compose(self.g.series, F))
        return ShefferPair(InvertibleSeries(g_new), DeltaSeries(F))

    def agrees_with(self, other: ShefferPair, through: int) -> bool:
        return self.g.series.agrees_with(other.g.series, through) and (
            self.f.series.agrees_with(other.f.series, through)
        )


def binomial_identity_holds(
    seq: PolynomialSequence, a: RationalLike, b: RationalLike, n: int
) -> bool:
    """p_n(a+b) == sum_k C(n,k) p_k(a) p_{n-k}(b), checked by evaluation.

    In integers: with p_k = N_k / d_k, a = r/q and b = u/s, Horner gives
    p_k(a) = N_k(r, q) / (d_k q**k), so both sides times
    M = lcm_k(d_k d_{n-k}) q**n s**n are the integers compared below.
    """
    a = as_rational(a)
    b = as_rational(b)
    table = seq.numerators
    r, q, u, s = a.numerator, a.denominator, b.numerator, b.denominator
    dens = [d for _, d in table[: n + 1]]
    scale = lcm(*(dens[k] * dens[n - k] for k in range(n + 1)))
    at_a = [_int_horner(N, r, q) for N, _ in table[: n + 1]]
    at_b = [_int_horner(N, u, s) for N, _ in table[: n + 1]]
    lhs = _int_horner(table[n][0], r * s + u * q, q * s) * (scale // dens[n])
    rhs = sum(
        comb(n, k) * at_a[k] * at_b[n - k] * (scale // (dens[k] * dens[n - k]))
        * q ** (n - k) * s**k
        for k in range(n + 1)
    )
    return lhs == rhs


def first_binomial_failure(seq: PolynomialSequence) -> int | None:
    """Least n at which p_n(x+y) = sum_k C(n,k) p_k(x) p_{n-k}(y) fails as a
    polynomial identity in x and y, or None if it holds for every p_n in seq.

    Write G_j(t) = sum_n [x^j]p_n t^n / n! for the columns of the EGF
    sum_n p_n(x) t^n / n! = sum_j x^j G_j(t).  Comparing the coefficients
    of x^i y^j t^n on both sides, the identity holds at degree n iff
    [t^n] G_i G_j = C(i+j, i) [t^n] G_{i+j} for all i, j.  Through degree n
    this is equivalent to two families of conditions through t^n:

    * G_0 = 1: it is G_0**2 = G_0 (i = j = 0), and G_0(0) = p_0 = 1 makes
      G_0 a unit;
    * G_1 G_j = (j+1) G_{j+1} for j >= 1 (the case i = 1).

    Conversely, these give G_j = G_1**j / j! by induction on j, hence
    G_i G_j = G_1**(i+j) / (i! j!) = C(i+j, i) G_{i+j}.  As the two forms
    hold through the same degrees, they first fail at the same n, which is
    the least t-degree where one of the conditions above fails.

    In integers: with p_n = N_n / d_n, every column lies over
    L = lcm_n(d_n n!), G_j = C_j / L, and G_1 G_j = (j+1) G_{j+1} reads
    C_1 C_j = (j+1) L C_{j+1}.  That is N - 1 integer Cauchy products for
    p_0..p_N; no Fraction is built.
    """
    table = seq.numerators
    N = len(table) - 1
    scales = [d * factorial(n) for n, (_, d) in enumerate(table)]
    L = lcm(*scales)
    # C[j][n] = L [t^n] G_j; C[0][0] = L since p_0 = 1
    C = [[0] * (N + 1) for _ in range(N + 1)]
    for n, ((nums, _), s) in enumerate(zip(table, scales)):
        for j, c in enumerate(nums):
            C[j][n] = c * (L // s)
    bad = [n for n in range(1, N + 1) if C[0][n]]
    for j in range(1, N):
        lhs = _int_mul(C[1], C[j], N)
        bad += [n for n in range(N + 1) if lhs[n] != (j + 1) * L * C[j + 1][n]]
    return min(bad, default=None)
