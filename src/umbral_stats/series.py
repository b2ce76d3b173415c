"""Exact-arithmetic kernel for truncated formal power series.

A :class:`TruncatedSeries` stores the coefficients of a univariate formal
power series through a finite truncation order.  Coefficients beyond the
order are *unknown*, not zero, so every operation returns a result whose
order is the largest through which all coefficients are determined by the
inputs (conservatively ``min`` of the input orders, reduced further where
an operation loses information, e.g. differentiation).

A series is stored as FLINT's ``fmpq_poly`` stores a polynomial: ``int``
numerators over one positive ``int`` denominator, in canonical form (the
denominator and the numerators have no common factor, so the denominator
is the least common denominator of the coefficients): the class
:class:`_Exact`, which :class:`umbral_stats.umbral.Polynomial` shares, with
the operations written alike for both: ``repr``, ``is_zero``, negation,
:func:`scale`, d/dX and its inverse, each ending in its class's ``_make``.  Two
values are equal exactly when their canonical pairs are.  The public
``coeffs`` is a tuple of :class:`fractions.Fraction`, built on first read
and kept; nothing here ever rounds.  Every kernel (:func:`mul`, :func:`powers`,
:func:`compose`, :func:`lagrange_invert`, :func:`exp_series`,
:func:`divide`, evaluation at a rational point and the linear helpers)
reads the numerators directly, runs its inner loops on ``int``s alone and
returns a canonical pair, reduced by one ``gcd`` at the end.  One power
table, ``_int_powers``, serves :func:`powers`, :func:`compose` and
:func:`lagrange_invert`, which solves a triangular system on the powers of
its argument; the composition folds the rows by Horner's rule in their
denominator d, as the inversion does.  One Horner evaluator, ``_horner``,
evaluates at p/q on ints and, at q = 1, on floats (``maxent``).  One
quotient recurrence, :func:`divide`, serves
:func:`reciprocal` (1 / a) and :func:`log_series` (the integral of a'/a),
and one map, :func:`integrate_extend`, divides the n-th coefficient by n.
One driver, ``_solve``, holds the outputs so far of every triangular
recurrence over the lcm of their denominators, the canonical pair of the
result: :func:`exp_series`, :func:`divide`, :func:`lagrange_invert` and
``deformed_entropy.x_from_phi`` supply only the step that gives the next
coefficient.  The kernels compute and do not check themselves: identities
such as compose(a, lagrange_invert(a)) = X are checked by
:mod:`umbral_stats.verify` and the tests.  :class:`LogSeries` extends the
model with a single logarithmic generator: it represents
``A(p) + B(p) * log(p)`` for truncated series ``A`` and ``B``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

DEFAULT_ORDER = 16

# ``coeffs`` holds this one object for every zero coefficient a kernel
# produced: Fractions are immutable, so a zero costs no construction and a
# kept series no memory.
_ZERO = Fraction(0)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _restore(cls, slots: dict):
    """Unpickle a value of ``cls``: store its slots as ``__init__`` does."""
    value = object.__new__(cls)
    for name, item in slots.items():
        object.__setattr__(value, name, item)
    return value


class _Value:
    """The base of every immutable value type.  The catalog caches hand
    out shared objects, so no attribute may be set or deleted once
    ``__init__`` has stored it with ``object.__setattr__``.  Two values of
    one class are equal, and hash equal, when their ``_key()``s are.  A
    copy is the value itself, and a value pickles, at every protocol, as
    its class and its slots."""

    __slots__ = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        cls = type(self)
        slots = {
            name: getattr(self, name)
            for base in cls.__mro__
            for name in getattr(base, "__slots__", ())
        }
        return _restore, (cls, slots)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class _Exact(_Value):
    """The one exact storage of series and polynomials: ``int`` numerators
    ``_nums[k]`` over one ``int`` denominator ``_den > 0``, with
    ``gcd(_den, *_nums) == 1``, so that equal values store equal pairs.
    ``coeffs`` is the tuple of reduced Fractions ``_nums[k] / _den``.  Here
    too are the operations written alike for series and polynomials, ``repr``,
    ``is_zero``, negation, ``scale``, ``_derivative`` and ``_antiderivative``,
    each ending in the canonicaliser ``_make(nums, den)`` that its class
    supplies: ``_canonical`` for a series, and for a polynomial
    ``umbral._polynomial``, which also strips trailing zeros.
    """

    __slots__ = ("_nums", "_den", "_coeffs")

    def _key(self):
        return self._den, self._nums

    def _store(self, cs: tuple[Fraction, ...]) -> None:
        """Keep the Fractions ``cs`` as ``coeffs``, with their canonical pair."""
        nums, den = _numerators(cs)
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_coeffs", cs)

    @classmethod
    def _from_pair(cls, nums: Iterable[int], den: int):
        """The value nums / den, already canonical: not reduced or checked."""
        s = object.__new__(cls)
        object.__setattr__(s, "_nums", tuple(nums))
        object.__setattr__(s, "_den", den)
        object.__setattr__(s, "_coeffs", None)
        return s

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built on first read."""
        cs = self._coeffs
        if cs is None:
            d = self._den
            cs = tuple(Fraction(c, d) if c else _ZERO for c in self._nums)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    def __repr__(self):
        return f"{type(self).__name__}({[str(c) for c in self.coeffs]})"

    def is_zero(self) -> bool:
        return not any(self._nums)

    def __neg__(self):
        return self._from_pair([-c for c in self._nums], self._den)

    def scale(self, c: RationalLike):
        c = as_rational(c)
        p = c.numerator
        return self._make([p * x for x in self._nums], self._den * c.denominator)

    __rmul__ = scale

    def _derivative(self):
        nums = self._nums
        return self._make([k * nums[k] for k in range(1, len(nums))], self._den)

    def _antiderivative(self):
        """The antiderivative with zero constant term, one degree longer: with
        L = lcm(1..len), N_k / d over k+1 is N_k (L / (k+1)) / (d L)."""
        nums = self._nums
        L = lcm(*range(1, len(nums) + 1))
        return self._make([0] + [c * (L // k) for k, c in enumerate(nums, 1)], self._den * L)


class TruncatedSeries(_Exact):
    """A formal power series known exactly through ``order``, stored as an
    :class:`_Exact` pair.

    ``coeffs[k]`` is the coefficient of ``X**k``; ``len(coeffs) == order + 1``.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = tuple(as_rational(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        self._store(cs)

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

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
        if order < 0:
            raise ValueError(f"negative truncation order {order}")
        return _canonical(self._nums[: order + 1], self._den)

    def agrees_with(self, other: TruncatedSeries, through: int | None = None) -> bool:
        """Coefficient-wise equality through ``through`` (default: common order)."""
        n = min(self.order, other.order) if through is None else through
        if n > min(self.order, other.order):
            raise ValueError("comparison order exceeds a truncation order")
        if n < 0:
            raise ValueError(f"negative comparison order {n}")
        da, db = self._den, other._den
        return all(x * db == y * da for x, y in zip(self._nums[: n + 1], other._nums[: n + 1]))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return add(self, other)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return sub(self, other)

    def __mul__(self, other) -> TruncatedSeries:
        if isinstance(other, TruncatedSeries):
            return mul(self, other)
        return self.scale(other)


_series = TruncatedSeries._from_pair


def _reduced(nums: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """nums / den for any nonzero ``den`` as a canonical pair: divided by
    their gcd, with the sign on the numerators."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return nums, den


def _canonical(nums: Sequence[int], den: int) -> TruncatedSeries:
    """The series nums / den for any nonzero ``den``, put in canonical form."""
    return _series(*_reduced(nums, den))


TruncatedSeries._make = staticmethod(_canonical)


def constant(value: RationalLike, order: int = 0) -> TruncatedSeries:
    if order < 0:
        raise ValueError(f"negative truncation order {order}")
    c = as_rational(value)
    return _series((c.numerator,) + (0,) * order, c.denominator)


def zero(order: int) -> TruncatedSeries:
    return constant(0, order)


def one(order: int) -> TruncatedSeries:
    return constant(1, order)


def identity(order: int) -> TruncatedSeries:
    """The series X."""
    if order < 1:
        raise ValueError("identity series needs order >= 1")
    return _series((0, 1) + (0,) * (order - 1), 1)


def from_function(fn, order: int) -> TruncatedSeries:
    """Series with coefficients ``fn(k)`` for k = 0..order."""
    return TruncatedSeries([as_rational(fn(k)) for k in range(order + 1)])


def _linear(a: TruncatedSeries, b: TruncatedSeries, sign: int) -> TruncatedSeries:
    """a + sign * b through the smaller order, over lcm of the denominators."""
    d = lcm(a._den, b._den)
    fa, fb = d // a._den, sign * (d // b._den)
    return _canonical([x * fa + y * fb for x, y in zip(a._nums, b._nums)], d)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return _linear(a, b, 1)


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    return _linear(a, b, -1)


scale = _Exact.scale


def _numerators(coeffs) -> tuple[list[int], int]:
    """(nums, d) with coeffs[k] == nums[k] / d and d the least common
    denominator: the canonical pair of the Fractions ``coeffs``."""
    dens = [c.denominator for c in coeffs]
    d = lcm(*dens)
    return [c.numerator * (d // e) for c, e in zip(coeffs, dens)], d


def _int_mul(x: Sequence[int], y: Sequence[int], n: int) -> list[int]:
    """Integer Cauchy product of two lists of n + 1 coefficients, truncated at X^n."""
    out = [0] * (n + 1)
    for i, xi in enumerate(x):
        if xi:
            for k, yj in enumerate(y[: n + 1 - i], i):
                out[k] += xi * yj
    return out


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the smaller input order."""
    n = min(a.order, b.order)
    a, b = a.truncate(n), b.truncate(n)
    return _canonical(_int_mul(a._nums, b._nums, n), a._den * b._den)


def shift_up(a: TruncatedSeries) -> TruncatedSeries:
    """Multiply by X.  Order rises by one; no information is lost."""
    return _series((0,) + a._nums, a._den)


def shift_down(a: TruncatedSeries) -> TruncatedSeries:
    """Divide by X; requires zero constant term.  Order drops by one."""
    if a._nums[0]:
        raise ValueError("cannot divide by X: nonzero constant term")
    if a.order < 1:
        raise ValueError("cannot divide by X at order 0")
    return _series(a._nums[1:], a._den)


def _int_powers(
    base: TruncatedSeries,
    n: int,
    start: TruncatedSeries | None = None,
    last: int | None = None,
) -> tuple[list[list[int]], int, int]:
    """(rows, ds, d) with start * base**k == rows[k] / (ds * d**k) through X^n,
    for k = 0..last (default n)."""
    base = base.truncate(n)
    if start is None:
        row, ds = [1] + [0] * n, 1
    else:
        start = start.truncate(n)
        row, ds = list(start._nums), start._den
    rows = [row]
    for _ in range(n if last is None else last):
        row = _int_mul(row, base._nums, n)
        rows.append(row)
    return rows, ds, base._den


def powers(
    base: TruncatedSeries, n: int, start: TruncatedSeries | None = None
) -> list[TruncatedSeries]:
    """[start * base**k for k = 0..n], each truncated at order n.

    ``start`` defaults to 1.  The rows come from ``_int_powers``, the one
    power table, which composition, inversion and the umbral polynomial
    sequences (hence the occupation polynomials) read directly as integers.
    """
    rows, ds, d = _int_powers(base, n, start)
    return [_canonical(row, ds * d**k) for k, row in enumerate(rows)]


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(X)); inner must have zero constant term.

    Sums outer_k * inner**k over the power table of ``inner``: with
    outer_k = O_k / do, inner**k = I_k / d**k and O_e the last nonzero O_k,
    the result is sum_k O_k d**(e-k) I_k / (do d**e), valid through
    ``min(outer.order, inner.order)``; the sum is taken by Horner's rule
    in d, as :func:`lagrange_invert` takes its own.  The table stops at
    row e, so an outer series of degree e costs e products.
    """
    if inner._nums[0]:
        raise ValueError("composition requires inner series with zero constant term")
    n = min(outer.order, inner.order)
    outer = outer.truncate(n)
    o = outer._nums
    last = next((k for k in range(n, 0, -1) if o[k]), 0)
    rows, _, d = _int_powers(inner, n, last=last)
    out = [0] * (n + 1)
    for c, row in zip(o, rows):
        out = [x * d + c * r for x, r in zip(out, row)]
    return _canonical(out, outer._den * d**last)


def derivative(a: TruncatedSeries) -> TruncatedSeries:
    """d/dX; order drops by one."""
    if a.order == 0:
        raise ValueError("cannot differentiate an order-0 series")
    return a._derivative()


def integrate(a: TruncatedSeries) -> TruncatedSeries:
    """Antiderivative with zero constant term, reported at the input order."""
    return integrate_extend(a).truncate(a.order)


# The antiderivative keeping every determined coefficient: order rises by one.
integrate_extend = _Exact._antiderivative


def _solve(first: Sequence[int], n: int, step) -> TruncatedSeries:
    """y_0..y_n of a triangular recurrence, one coefficient at a time.

    The leading y_j are the integers ``first``; for each later m,
    ``step(m, Y, Q)`` returns y_m as ints ``(num, den)``, den != 0, from the
    outputs so far y_j = Y[j] / Q.  Q stays the lcm of their reduced
    denominators and Y is rescaled when Q grows, so (Y, Q) is always the
    canonical pair and its integers the size of the reduced coefficients.
    """
    Y, Q = list(first), 1
    for m in range(len(Y), n + 1):
        num, den = step(m, Y, Q)
        g = gcd(num, den)
        if den < 0:
            g = -g
        num, den = num // g, den // g
        f = den // gcd(Q, den)
        if f != 1:
            Y = [y * f for y in Y]
            Q *= f
        Y.append(num * (Q // den))
    return _series(Y, Q)


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """exp(a) for a series with zero constant term.

    Solves m y_m = sum_k k a_k y_{m-k}, from y' = a' y, so the cost is
    quadratic in the order: with a_k = A_k / d and y_j = Y_j / Q,
    y_m = sum_k k A_k Y_{m-k} / (m d Q).
    """
    A, d = a._nums, a._den
    if A[0]:
        raise ValueError("exp requires zero constant term")
    B = [k * A[k] for k in range(1, a.order + 1)]

    def step(m, Y, Q):
        acc = 0
        for k in range(m):
            if B[k]:
                acc += B[k] * Y[m - 1 - k]
        return acc, m * d * Q

    return _solve([1], a.order, step)


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """log(a) for a series with constant term 1; result has zero constant term.

    log a is the integral of a'/a (Brent & Kung, J. ACM 25, 1978), one
    :func:`divide` and one :func:`integrate_extend`.
    """
    if a._nums[0] != a._den:
        raise ValueError("log requires constant term 1")
    return integrate_extend(divide(derivative(a), a)) if a.order else zero(0)


def pow_rational(a: TruncatedSeries, r: RationalLike) -> TruncatedSeries:
    """a**r = exp(r * log a) for a series with constant term 1."""
    if a._nums[0] != a._den:
        raise ValueError("rational power requires constant term 1")
    return exp_series(scale(log_series(a), as_rational(r)))


def reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """1/a for a series with nonzero constant term: :func:`divide` of 1 by a."""
    if not a._nums[0]:
        raise ValueError("reciprocal requires nonzero constant term")
    return divide(one(a.order), a)


def divide(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a / b for a series b with nonzero constant term, truncated at the
    smaller input order.

    Solves b_0 y_m = a_m - sum_{k>=1} b_k y_{m-k}: with a_k = A_k / da,
    b_k = B_k / db and y_j = Y_j / Q,
    y_m = (A_m db Q - da sum_k B_k Y_{m-k}) / (da B_0 Q).
    """
    if not b._nums[0]:
        raise ValueError("division requires a divisor with nonzero constant term")
    n = min(a.order, b.order)
    a, b = a.truncate(n), b.truncate(n)
    A, da = a._nums, a._den
    B, db = b._nums, b._den

    def step(m, Y, Q):
        acc = 0
        for k in range(1, m + 1):
            if B[k]:
                acc += B[k] * Y[m - k]
        return A[m] * db * Q - da * acc, da * B[0] * Q

    return _solve([], n, step)


def lagrange_invert(a: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse of a delta series (a(0)=0, a'(0)!=0).

    Reads t off the power table of ``a``: the X^m coefficient of
    t(a(X)) = X is sum_{k<=m} t_k [X^m] a^k = [m = 1], a lower-triangular
    system in the Riordan matrix [X^m] a^k, whose diagonal is a_1^m.  With
    a^k = R_k / d^k from ``_int_powers``, A_1 = R_1[1] and t_k = T_k / Q,
    t_m = d ([m = 1] Q - sum_{1<=k<m} T_k R_k[m] d^(m-1-k)) / (Q A_1^m),
    the sum taken by Horner's rule in d.
    """
    if a._nums[0]:
        raise ValueError("inversion requires zero constant term")
    if a.order < 1 or not a._nums[1]:
        raise ValueError("no compositional inverse: zero linear coefficient")
    rows, _, d = _int_powers(a, a.order)
    A1 = rows[1][1]

    def step(m, T, Q):
        acc = 0
        for k in range(1, m):
            acc = acc * d + T[k] * rows[k][m]
        return d * ((m == 1) * Q - acc), Q * A1**m

    return _solve([0], a.order, step)


def evaluate(a: TruncatedSeries, x: RationalLike) -> Fraction:
    """Exact partial-sum evaluation sum_{k<=order} c_k x^k."""
    return _eval_over(a._nums, a._den, as_rational(x))


def _eval_over(nums: Sequence[int], d: int, x: Fraction) -> Fraction:
    """sum_k (nums[k] / d) x**k: with x = p / q, this is
    _horner(nums, p, q) / (d q**deg)."""
    q = x.denominator
    return Fraction(_horner(nums, x.numerator, q), d * q ** (len(nums) - 1))


def _horner(nums: Sequence, p, q: int = 1):
    """sum_k nums[k] p**k q**(deg-k), deg = len(nums) - 1, by Horner's rule:
    for ints, the numerator of sum_k nums[k] (p/q)**k over q**deg; at q = 1,
    the plain sum_k nums[k] p**k, which is how floats are evaluated."""
    acc, qk = nums[-1], 1
    for c in reversed(nums[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return acc


class _CheckedSeries(_Value):
    """An immutable wrapper of a series that its class's ``_check`` accepts,
    equal to another of its class that wraps an equal series."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        self._check(series)
        object.__setattr__(self, "series", series)

    def _key(self):
        return self.series

    @property
    def order(self) -> int:
        return self.series.order

    def agrees_with(self, other, through: int | None = None) -> bool:
        return self.series.agrees_with(other.series, through)

    def __repr__(self):
        return f"{type(self).__name__}({self.series!r})"


# -- log-augmented series ---------------------------------------------------


class LogSeries(_Value):
    """A(p) + B(p) * log(p) with both parts truncated at the same order."""

    __slots__ = ("plain", "logpart")

    def __init__(self, plain: TruncatedSeries, logpart: TruncatedSeries):
        n = min(plain.order, logpart.order)
        object.__setattr__(self, "plain", plain.truncate(n))
        object.__setattr__(self, "logpart", logpart.truncate(n))

    def _key(self):
        return self.plain, self.logpart

    @property
    def order(self) -> int:
        return self.plain.order

    def __repr__(self):
        return f"LogSeries(plain={self.plain!r}, logpart={self.logpart!r})"

    def __str__(self):
        return f"[{self.plain}] + [{self.logpart}] * log(p)"

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
    if u._nums[0]:
        raise ValueError("substitution requires zero constant term")
    if u.order < 1 or u._nums[1] != u._den:
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
    if ls.logpart._nums[0]:
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
