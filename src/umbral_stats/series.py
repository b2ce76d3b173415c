"""Exact-arithmetic kernel for truncated formal power series.

A :class:`TruncatedSeries` stores the coefficients of a univariate formal
power series through a finite truncation order.  Coefficients beyond the
order are *unknown*, not zero, so every operation returns a result whose
order is the largest through which all coefficients are determined by the
inputs (conservatively ``min`` of the input orders, reduced further where
an operation loses information, e.g. differentiation).

Coefficients are stored as :class:`fractions.Fraction`; nothing here ever
rounds.  The hot kernels (:func:`mul`, :func:`powers`, :func:`compose`,
:func:`lagrange_invert`, :func:`exp_series`, :func:`log_series`,
:func:`reciprocal`, :func:`divide` and evaluation at a rational point)
clear denominators once per call: they write each operand as ``int``
numerators over its least common denominator, run their inner loops on
``int``s alone and build one ``Fraction`` per output coefficient, as
FLINT's ``fmpq_poly`` does.  One power table, ``_int_powers``, serves
:func:`powers`, :func:`compose` and :func:`lagrange_invert`, which solves
a triangular system on the powers of its argument.  Inversion and the four
recurrences (exp, log, reciprocal, divide) also keep the outputs found so
far as ``int`` numerators over the lcm of their denominators, so their
integers stay the size of the reduced coefficients.  The kernels compute
and do not check themselves: identities such as
compose(a, lagrange_invert(a)) = X are checked by :mod:`umbral_stats.verify`
and the tests.  :class:`LogSeries` extends the model with a single
logarithmic generator: it represents ``A(p) + B(p) * log(p)`` for truncated
series ``A`` and ``B``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

DEFAULT_ORDER = 16

# The integer kernels output this one object for every zero coefficient:
# Fractions are immutable, so a zero costs no construction and a kept series
# no memory.
_ZERO = Fraction(0)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class TruncatedSeries:
    """A formal power series known exactly through ``order``.

    ``coeffs[k]`` is the coefficient of ``X**k``; ``len(coeffs) == order + 1``.
    Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = tuple(as_rational(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*X")
            else:
                terms.append(f"{c}*X^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(X^{self.order + 1})"

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return _series(self.coeffs[: order + 1])

    def agrees_with(self, other: TruncatedSeries, through: int | None = None) -> bool:
        """Coefficient-wise equality through ``through`` (default: common order)."""
        n = min(self.order, other.order) if through is None else through
        if n > min(self.order, other.order):
            raise ValueError("comparison order exceeds a truncation order")
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return add(self, other)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return sub(self, other)

    def __mul__(self, other) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        return scale(self, as_rational(other))

    def __rmul__(self, other) -> TruncatedSeries:
        return scale(self, as_rational(other))

    def __neg__(self) -> TruncatedSeries:
        return scale(self, Fraction(-1))


def _series(coeffs: Iterable[Fraction]) -> TruncatedSeries:
    """A series on Fractions the caller has just built: not coerced or checked."""
    s = object.__new__(TruncatedSeries)
    object.__setattr__(s, "coeffs", tuple(coeffs))
    return s


def constant(value: RationalLike, order: int = 0) -> TruncatedSeries:
    c = as_rational(value)
    return TruncatedSeries([c] + [Fraction(0)] * order)


def zero(order: int) -> TruncatedSeries:
    return constant(0, order)


def one(order: int) -> TruncatedSeries:
    return constant(1, order)


def identity(order: int) -> TruncatedSeries:
    """The series X."""
    if order < 1:
        raise ValueError("identity series needs order >= 1")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[1] = Fraction(1)
    return TruncatedSeries(coeffs)


def from_function(fn, order: int) -> TruncatedSeries:
    """Series with coefficients ``fn(k)`` for k = 0..order."""
    return TruncatedSeries([as_rational(fn(k)) for k in range(order + 1)])


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return _series([a.coeffs[k] + b.coeffs[k] for k in range(n + 1)])


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    n = min(a.order, b.order)
    return _series([a.coeffs[k] - b.coeffs[k] for k in range(n + 1)])


def scale(a: TruncatedSeries, c: RationalLike) -> TruncatedSeries:
    c = as_rational(c)
    return _series([c * x for x in a.coeffs])


def _numerators(coeffs) -> tuple[list[int], int]:
    """(nums, d) with coeffs[k] == nums[k] / d and d the least common denominator."""
    dens = [c.denominator for c in coeffs]
    d = lcm(*dens)
    return [c.numerator * (d // e) for c, e in zip(coeffs, dens)], d


def _int_mul(x: list[int], y: list[int], n: int) -> list[int]:
    """Integer Cauchy product of two lists of n + 1 coefficients, truncated at X^n."""
    out = [0] * (n + 1)
    for i, xi in enumerate(x):
        if xi:
            for k, yj in enumerate(y[: n + 1 - i], i):
                out[k] += xi * yj
    return out


def _over(nums: Iterable[int], d: int) -> TruncatedSeries:
    return _series([Fraction(c, d) if c else _ZERO for c in nums])


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the smaller input order."""
    n = min(a.order, b.order)
    an, da = _numerators(a.coeffs[: n + 1])
    bn, db = _numerators(b.coeffs[: n + 1])
    return _over(_int_mul(an, bn, n), da * db)


def shift_up(a: TruncatedSeries) -> TruncatedSeries:
    """Multiply by X.  Order rises by one; no information is lost."""
    return _series((_ZERO,) + a.coeffs)


def shift_down(a: TruncatedSeries) -> TruncatedSeries:
    """Divide by X; requires zero constant term.  Order drops by one."""
    if a.coeffs[0] != 0:
        raise ValueError("cannot divide by X: nonzero constant term")
    if a.order < 1:
        raise ValueError("cannot divide by X at order 0")
    return _series(a.coeffs[1:])


def _int_powers(
    base: TruncatedSeries,
    n: int,
    start: TruncatedSeries | None = None,
    last: int | None = None,
) -> tuple[list[list[int]], int, int]:
    """(rows, ds, d) with start * base**k == rows[k] / (ds * d**k) through X^n,
    for k = 0..last (default n)."""
    b, d = _numerators(base.truncate(n).coeffs)
    if start is None:
        row, ds = [1] + [0] * n, 1
    else:
        row, ds = _numerators(start.truncate(n).coeffs)
    rows = [row]
    for _ in range(n if last is None else last):
        row = _int_mul(row, b, n)
        rows.append(row)
    return rows, ds, d


def powers(
    base: TruncatedSeries, n: int, start: TruncatedSeries | None = None
) -> list[TruncatedSeries]:
    """[start * base**k for k = 0..n], each truncated at order n.

    ``start`` defaults to 1.  The rows come from ``_int_powers``, the one
    power table, which composition, inversion and the umbral polynomial
    sequences (hence the occupation polynomials) read directly as integers.
    """
    rows, ds, d = _int_powers(base, n, start)
    return [_over(row, ds * d**k) for k, row in enumerate(rows)]


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(X)); inner must have zero constant term.

    Sums outer_k * inner**k over the power table of ``inner``: with
    outer_k = O_k / do and inner**k = I_k / d**k, the result is
    sum_k O_k d**(n-k) I_k / (do d**n), valid through
    ``min(outer.order, inner.order)``.  The table stops at the last
    nonzero O_k, so an outer series of degree e costs e products.
    """
    if inner.coeffs[0] != 0:
        raise ValueError("composition requires inner series with zero constant term")
    n = min(outer.order, inner.order)
    o, do = _numerators(outer.coeffs[: n + 1])
    last = next((k for k in range(n, 0, -1) if o[k]), 0)
    rows, _, d = _int_powers(inner, n, last=last)
    out = [0] * (n + 1)
    for k, row in enumerate(rows):
        if o[k]:
            c = o[k] * d ** (n - k)
            for m in range(k, n + 1):
                out[m] += c * row[m]
    return _over(out, do * d**n)


def derivative(a: TruncatedSeries) -> TruncatedSeries:
    """d/dX; order drops by one."""
    if a.order == 0:
        raise ValueError("cannot differentiate an order-0 series")
    return _series([k * a.coeffs[k] for k in range(1, a.order + 1)])


def integrate(a: TruncatedSeries) -> TruncatedSeries:
    """Antiderivative with zero constant term, reported at the input order."""
    return integrate_extend(a).truncate(a.order)


def integrate_extend(a: TruncatedSeries) -> TruncatedSeries:
    """Antiderivative keeping every determined coefficient (order rises by one)."""
    return _series([_ZERO] + [c / (k + 1) for k, c in enumerate(a.coeffs)])


def _append_over(nums: list[int], q: int, num: int, den: int) -> int:
    """Append num/den to ``nums``, integer numerators over the common
    denominator q, rescaling them to lcm(q, den); returns the new q."""
    new_q = lcm(q, den)
    if new_q != q:
        f = new_q // q
        nums[:] = [y * f for y in nums]
    nums.append(num * (new_q // den))
    return new_q


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """exp(a) for a series with zero constant term.

    Uses the recurrence m y_m = sum_k k a_k y_{m-k} from y' = a' y, so the
    cost is quadratic in the order.  With a_k = A_k / d and the outputs so
    far y_j = Y_j / Q over the lcm Q of their denominators,
    y_m = sum_k k A_k Y_{m-k} / (m d Q).
    """
    if a.coeffs[0] != 0:
        raise ValueError("exp requires zero constant term")
    n = a.order
    A, d = _numerators(a.coeffs)
    B = [k * A[k] for k in range(1, n + 1)]
    out = [Fraction(1)]
    Y, Q = [1], 1
    for m in range(1, n + 1):
        acc = 0
        for k in range(m):
            if B[k]:
                acc += B[k] * Y[m - 1 - k]
        y = Fraction(acc, m * d * Q) if acc else _ZERO
        out.append(y)
        Q = _append_over(Y, Q, y.numerator, y.denominator)
    return _series(out)


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """log(a) for a series with constant term 1; result has zero constant term.

    Uses m y_m = m a_m - sum_{k<m} k y_k a_{m-k} from y' a = a'.  With
    a_k = A_k / d and k y_k = Z_k / Q for the outputs so far,
    y_m = (m A_m Q - sum_{0<k<m} Z_k A_{m-k}) / (m d Q).
    """
    if a.coeffs[0] != 1:
        raise ValueError("log requires constant term 1")
    n = a.order
    A, d = _numerators(a.coeffs)
    out = [_ZERO]
    Z, Q = [0], 1
    for m in range(1, n + 1):
        acc = m * A[m] * Q
        for k in range(1, m):
            if A[m - k]:
                acc -= Z[k] * A[m - k]
        y = Fraction(acc, m * d * Q) if acc else _ZERO
        out.append(y)
        Q = _append_over(Z, Q, m * y.numerator, y.denominator)
    return _series(out)


def pow_rational(a: TruncatedSeries, r: RationalLike) -> TruncatedSeries:
    """a**r = exp(r * log a) for a series with constant term 1."""
    if a.coeffs[0] != 1:
        raise ValueError("rational power requires constant term 1")
    return exp_series(scale(log_series(a), as_rational(r)))


def reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """1/a for a series with nonzero constant term.

    Uses a_0 y_m = -sum_{k>=1} a_k y_{m-k}.  With a_k = A_k / d and the
    outputs so far y_j = Y_j / Q, y_m = -sum_k A_k Y_{m-k} / (A_0 Q).
    """
    if a.coeffs[0] == 0:
        raise ValueError("reciprocal requires nonzero constant term")
    n = a.order
    A, d = _numerators(a.coeffs)
    y = Fraction(d, A[0])
    out = [y]
    Y, Q = [y.numerator], y.denominator
    for m in range(1, n + 1):
        acc = 0
        for k in range(1, m + 1):
            if A[k]:
                acc -= A[k] * Y[m - k]
        y = Fraction(acc, A[0] * Q) if acc else _ZERO
        out.append(y)
        Q = _append_over(Y, Q, y.numerator, y.denominator)
    return _series(out)


def divide(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a / b for a series b with nonzero constant term, truncated at the
    smaller input order.

    Uses b_0 y_m = a_m - sum_{k>=1} b_k y_{m-k}.  With a_k = A_k / da,
    b_k = B_k / db and the outputs so far y_j = Y_j / Q,
    y_m = (A_m db Q - da sum_k B_k Y_{m-k}) / (da B_0 Q).
    """
    if b.coeffs[0] == 0:
        raise ValueError("division requires a divisor with nonzero constant term")
    n = min(a.order, b.order)
    A, da = _numerators(a.coeffs[: n + 1])
    B, db = _numerators(b.coeffs[: n + 1])
    out = []
    Y, Q = [], 1
    for m in range(n + 1):
        acc = 0
        for k in range(1, m + 1):
            if B[k]:
                acc += B[k] * Y[m - k]
        num = A[m] * db * Q - da * acc
        y = Fraction(num, da * B[0] * Q) if num else _ZERO
        out.append(y)
        Q = _append_over(Y, Q, y.numerator, y.denominator)
    return _series(out)


def lagrange_invert(a: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse of a delta series (a(0)=0, a'(0)!=0).

    Reads t off the power table of ``a``: the X^m coefficient of
    t(a(X)) = X is sum_{k<=m} t_k [X^m] a^k = [m = 1], a lower-triangular
    system in the Riordan matrix [X^m] a^k, whose diagonal is a_1^m.  With
    a^k = R_k / d^k from ``_int_powers``, A_1 = R_1[1] and the terms found
    so far t_k = T_k / Q, this gives t_1 = d / A_1 and
    t_m = -d sum_{1<=k<m} T_k R_k[m] d^(m-1-k) / (Q A_1^m),
    the sum taken by Horner's rule in d.
    """
    if a.coeffs[0] != 0:
        raise ValueError("inversion requires zero constant term")
    if a.order < 1 or a.coeffs[1] == 0:
        raise ValueError("no compositional inverse: zero linear coefficient")
    n = a.order
    rows, _, d = _int_powers(a, n)
    A1 = rows[1][1]
    t = Fraction(d, A1)
    out = [_ZERO, t]
    T, Q = [0, t.numerator], t.denominator
    for m in range(2, n + 1):
        acc = 0
        for k in range(1, m):
            acc = acc * d + T[k] * rows[k][m]
        t = Fraction(-d * acc, Q * A1**m) if acc else _ZERO
        out.append(t)
        Q = _append_over(T, Q, t.numerator, t.denominator)
    return _series(out)


def evaluate(a: TruncatedSeries, x: RationalLike) -> Fraction:
    """Exact partial-sum evaluation sum_{k<=order} c_k x^k."""
    return _horner(a.coeffs, x)


def _horner(coeffs: tuple[Fraction, ...], x: RationalLike) -> Fraction:
    """sum_k coeffs[k] x**k by Horner's rule on integers.

    With coeffs[k] = N_k / d and x = p / q, the sum is
    _int_horner(N, p, q) / (d q**deg).
    """
    x = as_rational(x)
    if not coeffs:
        return Fraction(0)
    nums, d = _numerators(coeffs)
    q = x.denominator
    return Fraction(_int_horner(nums, x.numerator, q), d * q ** (len(nums) - 1))


def _int_horner(nums: list[int], p: int, q: int) -> int:
    """sum_k nums[k] p**k q**(deg-k), deg = len(nums) - 1: the numerator of
    sum_k nums[k] (p/q)**k over q**deg."""
    acc, qk = nums[-1], 1
    for c in reversed(nums[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


# -- log-augmented series ---------------------------------------------------


class LogSeries:
    """A(p) + B(p) * log(p) with both parts truncated at the same order."""

    __slots__ = ("plain", "logpart")

    def __init__(self, plain: TruncatedSeries, logpart: TruncatedSeries):
        n = min(plain.order, logpart.order)
        object.__setattr__(self, "plain", plain.truncate(n))
        object.__setattr__(self, "logpart", logpart.truncate(n))

    def __setattr__(self, name, value):
        raise AttributeError("LogSeries is immutable")

    @property
    def order(self) -> int:
        return self.plain.order

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self.plain == other.plain and self.logpart == other.logpart

    def __hash__(self):
        return hash((self.plain, self.logpart))

    def __repr__(self):
        return f"LogSeries(plain={self.plain!r}, logpart={self.logpart!r})"

    def __str__(self):
        return f"[{self.plain}] + [{self.logpart}] * log(p)"

    def __add__(self, other: LogSeries) -> LogSeries:
        return LogSeries(add(self.plain, other.plain), add(self.logpart, other.logpart))

    def __sub__(self, other: LogSeries) -> LogSeries:
        return LogSeries(sub(self.plain, other.plain), sub(self.logpart, other.logpart))

    def __neg__(self) -> LogSeries:
        return LogSeries(-self.plain, -self.logpart)

    def agrees_with(self, other: LogSeries, through: int | None = None) -> bool:
        n = min(self.order, other.order) if through is None else through
        return self.plain.agrees_with(other.plain, n) and self.logpart.agrees_with(
            other.logpart, n
        )


def logseries_compose(ls: LogSeries, u: TruncatedSeries) -> LogSeries:
    """Substitute p = u(X) into A(p) + B(p) log p.

    Requires u(0) = 0 and u'(0) = 1, so that log u(X) = log X + log(u(X)/X)
    introduces no scalar log constant:  the result is
    A(u) + B(u) * log(u/X)  +  B(u) * log X.
    """
    if u.coeffs[0] != 0:
        raise ValueError("substitution requires zero constant term")
    if u.order < 1 or u.coeffs[1] != 1:
        raise ValueError(
            "substitution requires unit linear coefficient "
            "(a scalar log constant would otherwise arise)"
        )
    b_of_u = compose(ls.logpart, u)
    unit_log = log_series(shift_down(u))
    plain = add(compose(ls.plain, u), mul(b_of_u, unit_log))
    return LogSeries(plain, b_of_u)


def logseries_derivative(ls: LogSeries) -> LogSeries:
    """d/dp of A(p) + B(p) log p = A' + B/p + B' log p; needs B(0) = 0."""
    if ls.logpart.coeffs[0] != 0:
        raise ValueError("derivative requires log coefficient with zero constant term")
    plain = add(derivative(ls.plain), shift_down(ls.logpart))
    return LogSeries(plain, derivative(ls.logpart))


# -- JSON encoding -----------------------------------------------------------


def series_to_json(a: TruncatedSeries) -> dict:
    return {"order": a.order, "coeffs": [str(c) for c in a.coeffs]}


def series_from_json(data: dict) -> TruncatedSeries:
    s = TruncatedSeries(data["coeffs"])
    if s.order != data["order"]:
        raise ValueError("order field does not match coefficient count")
    return s


def logseries_to_json(ls: LogSeries) -> dict:
    return {"plain": series_to_json(ls.plain), "log": series_to_json(ls.logpart)}
