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

A :class:`Polynomial` is stored as a series is: int numerators over one
denominator in canonical form, and shares with series, through
``series._Exact``, every operation that reads the same on both.  The
sequences are read off the integer power table of F, and every operation
runs on ints with one gcd per result.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, perm
from typing import Iterable, Sequence

from .series import (
    _ZERO,
    _eval_over,
    _horner,
    _int_mul,
    _int_powers,
    _reduced,
    _CheckedSeries,
    _Exact,
    _Value,
    RationalLike,
    TruncatedSeries,
    as_rational,
    compose,
    derivative,
    divide,
    lagrange_invert,
    mul,
    reciprocal,
)


class Polynomial(_Exact):
    """Exact-coefficient polynomial in one variable, stored as an
    :class:`~umbral_stats.series._Exact` pair.  ``coeffs[k]`` is the coefficient
    of ``x**k``; trailing zeros are stripped, so the zero polynomial has none."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._store(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self._nums) else _ZERO

    def __str__(self):
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
        return " + ".join(terms).replace("+ -", "- ") or "0"

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self._nums, other._nums
        d = lcm(self._den, other._den)
        fa, fb = d // self._den, d // other._den
        out = [x * fa for x in a] + [0] * (len(b) - len(a))
        for k, y in enumerate(b):
            out[k] += y * fb
        return _polynomial(out, d)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            a, b = self._nums, other._nums
            return _polynomial(_int_mul(a, b, len(a) + len(b) - 2), self._den * other._den)
        return self.scale(other)

    def shift_x(self) -> Polynomial:
        """Multiply by x."""
        if not self._nums:
            return self
        return _poly((0,) + self._nums, self._den)

    diff = _Exact._derivative
    # the antiderivative vanishing at 0
    integral = _Exact._antiderivative

    def __call__(self, x: RationalLike) -> Fraction:
        x = as_rational(x)
        return _eval_over(self._nums, self._den, x) if self._nums else _ZERO


_poly = Polynomial._from_pair


def _polynomial(nums: Sequence[int], den: int) -> Polynomial:
    """The polynomial nums / den for any nonzero ``den``: trailing zeros
    stripped, then put in canonical form."""
    k = len(nums)
    while k and not nums[k - 1]:
        k -= 1
    return _poly(*_reduced(nums[:k], den))


Polynomial._make = staticmethod(_polynomial)


def poly_x(k: int = 1) -> Polynomial:
    """The monomial x**k."""
    return Polynomial([0] * k + [1])


def poly_to_json(p: Polynomial) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs]}


# -- series wrappers ---------------------------------------------------------


class DeltaSeries(_CheckedSeries):
    """A series with zero constant term and nonzero linear term."""

    __slots__ = ()

    @staticmethod
    def _check(series: TruncatedSeries) -> None:
        if series._nums[0]:
            raise ValueError("delta series must have zero constant term")
        if series.order < 1 or not series._nums[1]:
            raise ValueError("delta series must have nonzero linear coefficient")

    def inverse(self) -> DeltaSeries:
        return DeltaSeries(lagrange_invert(self.series))


class InvertibleSeries(_CheckedSeries):
    """A series with nonzero constant term."""

    __slots__ = ()

    @staticmethod
    def _check(series: TruncatedSeries) -> None:
        if not series._nums[0]:
            raise ValueError("invertible series must have nonzero constant term")


class PolynomialSequence(_Value):
    """Polynomials p_0..p_n with p_0 = 1 and deg p_k = k."""

    __slots__ = ("polys",)

    def __init__(self, polys: Sequence[Polynomial]):
        polys = tuple(polys)
        if not polys or polys[0] != Polynomial([1]):
            raise ValueError("sequence must start with p_0 = 1")
        for k, p in enumerate(polys):
            if p.degree != k:
                raise ValueError(f"p_{k} must have degree {k}, got {p.degree}")
        object.__setattr__(self, "polys", polys)

    def _key(self):
        return self.polys

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, k: int) -> Polynomial:
        return self.polys[k]

    def __iter__(self):
        return iter(self.polys)

    def __repr__(self):
        return f"PolynomialSequence({list(self.polys)!r})"

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

    Reads the integer power table: [X^m] prefactor * F**k = rows[k][m] / (ds d**k),
    so p_m has the x^k numerator (m! / k!) rows[k][m] d**(m-k) over ds d**m.
    """
    rows, ds, d = _int_powers(F, n, prefactor)
    dk = [d**j for j in range(n + 1)]
    return PolynomialSequence(
        _polynomial([perm(m, m - k) * rows[k][m] * dk[m - k] for k in range(m + 1)], ds * dk[m])
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
    """h(D) p = sum_k h_k D^k p  (ordinary coefficients of h).  In integers,
    with h_k = H_k / e and p = sum_j N_j x^j / d, the x^m coefficient is
    sum_k H_k N_(m+k) (m+k)! / m! over e d."""
    H, N = h._nums, p._nums
    out = [0] * len(N)
    for k in range(min(h.order, p.degree) + 1):
        if H[k]:
            for m in range(len(N) - k):
                out[m] += H[k] * N[m + k] * perm(m + k, k)
    return _polynomial(out, h._den * p._den)


def functional(h: TruncatedSeries, p: Polynomial) -> Fraction:
    """The umbral pairing <h | p> of the paper: the linear functional of the
    series h(t) = sum h_k t^k on polynomials with <t^k | x^n> = n! if k == n
    and 0 otherwise, which is (h(D) p)(0)."""
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
    ratio = divide(derivative(g.series), g.series)
    return mid.shift_x() - apply_operator(ratio, mid)


def umbral_composition(
    p: PolynomialSequence, q: PolynomialSequence
) -> PolynomialSequence:
    """r_n = sum_k a_{n,k} q_k where p_n = sum_k a_{n,k} x^k.

    If p and q are conjugate to F and G, the result is conjugate to G(F(t)).
    """
    if len(p) != len(q):
        raise ValueError("sequences must have equal length")
    return PolynomialSequence(
        sum((q[k].scale(a) for k, a in enumerate(pn.coeffs) if a), Polynomial()) for pn in p
    )


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


class ShefferPair(_Value):
    """An (invertible, delta) pair; these compose as a group."""

    __slots__ = ("g", "f")

    def __init__(self, g: InvertibleSeries, f: DeltaSeries):
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)

    def _key(self):
        return self.g, self.f

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
    polys = seq.polys[: n + 1]
    r, q, u, s = a.numerator, a.denominator, b.numerator, b.denominator
    dens = [p._den for p in polys]
    scale = lcm(*(dens[k] * dens[n - k] for k in range(n + 1)))
    at_a = [_horner(p._nums, r, q) for p in polys]
    at_b = [_horner(p._nums, u, s) for p in polys]
    lhs = _horner(polys[n]._nums, r * s + u * q, q * s) * (scale // dens[n])
    rhs = sum(
        comb(n, k) * at_a[k] * at_b[n - k] * (scale // (dens[k] * dens[n - k]))
        * q ** (n - k) * s**k
        for k in range(n + 1)
    )
    return lhs == rhs


def _first_convolution_failure(
    table: Sequence[tuple[list[int], int]], weights: Sequence[int]
) -> int | None:
    """Least k at which W_0 = 1 (k = 0) or W_k(x+y) = sum_i W_i(x) W_{k-i}(y)
    fails as a polynomial identity in x and y, or None, for the polynomials
    W_k = N_k / (d_k weights[k]) with (N_k, d_k) = table[k].

    Write G_j(t) = sum_k [x^j]W_k t^k for the columns of the generating
    function sum_k W_k(x) t^k = sum_j x^j G_j(t).  Comparing the
    coefficients of x^i y^j t^k on both sides, the identity holds at degree
    k iff [t^k] G_i G_j = C(i+j, i) [t^k] G_{i+j} for all i, j.  Through
    degree k this is equivalent to two families of conditions through t^k:

    * G_0 = 1: it is G_0**2 = G_0 (i = j = 0), and G_0(0) = W_0 = 1 makes
      G_0 a unit;
    * G_1 G_j = (j+1) G_{j+1} for j >= 1 (the case i = 1).

    Conversely, these give G_j = G_1**j / j! by induction on j, hence
    G_i G_j = G_1**(i+j) / (i! j!) = C(i+j, i) G_{i+j}.  As the two forms
    hold through the same degrees, they first fail at the same k, which is
    the least t-degree where one of the conditions above fails.  Since
    G_1(0) = 0 makes G_j = O(t^j), a W_k of degree above k fails by degree k.

    So only the triangle k > j need be compared: below the least k whose
    W_k has degree above k, [t^k] G_j = 0 for k < j, and both sides of
    G_1 G_j = (j+1) G_{j+1} vanish below t^(j+1).  Each column is compared
    up to the least failing degree found so far, and stops at its own first
    failure.

    In integers: every column lies over L = lcm_k(d_k weights[k]),
    G_j = C_j / L, and G_1 G_j = (j+1) G_{j+1} reads
    C_1 C_j = (j+1) L C_{j+1}, a triangle of integer products for
    W_0..W_N; no Fraction is built.
    """
    N = len(table) - 1
    scales = [d * c for (_, d), c in zip(table, weights)]
    L = lcm(*scales)
    # C[j][k] = L [t^k] G_j
    C = [[0] * (N + 1) for _ in range(N + 1)]
    for k, ((nums, _), s) in enumerate(zip(table, scales)):
        for j, c in enumerate(nums[: N + 1]):
            C[j][k] = c * (L // s)
    bad = [k for k, (nums, _) in enumerate(table) if len(nums) > k + 1]
    bad += [k for k in range(N + 1) if C[0][k] != (L if k == 0 else 0)]
    least = min(bad, default=N + 1)
    for j in range(1, N):
        C1, Cj, Cnext, factor = C[1], C[j], C[j + 1], (j + 1) * L
        for k in range(j + 1, least):
            acc = 0
            for i in range(1, k - j + 1):
                acc += C1[i] * Cj[k - i]
            if acc != factor * Cnext[k]:
                least = k
                break
    return least if least <= N else None


def first_convolution_failure(W: Sequence[Polynomial]) -> int | None:
    """The least failing degree of the convolution identity of W_0..W_N
    (see :func:`_first_convolution_failure`), or None."""
    return _first_convolution_failure([(p._nums, p._den) for p in W], [1] * len(W))


def first_binomial_failure(seq: PolynomialSequence) -> int | None:
    """Least n at which p_n(x+y) = sum_k C(n,k) p_k(x) p_{n-k}(y) fails as a
    polynomial identity, or None: the convolution identity of p_n / n!."""
    return _first_convolution_failure(
        [(p._nums, p._den) for p in seq], [factorial(n) for n in range(len(seq))]
    )
