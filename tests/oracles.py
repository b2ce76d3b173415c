"""Independent oracles used to regenerate derived expected values.

Everything here is deliberately computed by a different route than the
library under test: plain recurrences, brute-force sums over integer
partitions/compositions, and textbook closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from umbral_stats import deformed_entropy as de
from umbral_stats import series as fps
from umbral_stats.series import TruncatedSeries


def stirling2(n: int, k: int) -> int:
    """Second-kind Stirling numbers via S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m from sum_{k<=n} C(n+1,k) B_k = 0 (B_1 = -1/2 convention)."""
    B = [Fraction(1)]
    for n in range(1, m + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += comb(n + 1, k) * B[k]
        B.append(-acc / (n + 1))
    return B


def catalan_numbers(m: int) -> list[int]:
    """C_0..C_m from the convolution recurrence C_{n+1} = sum C_i C_{n-i}."""
    C = [1]
    for n in range(m):
        C.append(sum(C[i] * C[n - i] for i in range(n + 1)))
    return C


# [u^n] X(u), n >= 1, of the compositional inverse X of the weight function,
# in closed form: Lagrange inversion read as counting trees
X_OF_W_CLOSED_FORMS = {
    "exponential": lambda n: Fraction((-n) ** (n - 1), factorial(n)),  # Lambert's series
    "lah": lambda n: Fraction((-1) ** (n - 1) * (comb(2 * n, n) // (n + 1))),  # Catalan
    "bose-einstein": lambda n: Fraction((-1) ** (n - 1)),  # u / (1 + u)
    "fermi-dirac": lambda n: Fraction(1),  # u / (1 - u)
}


def partitions(n: int):
    """All multisets of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in partitions(n - first):
            if not rest or first <= rest[0]:
                yield (first,) + rest


def multiplicities(partition: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in partition:
        out[part] = out.get(part, 0) + 1
    return out


def weighted_multinomial_sum(T: list[Fraction], n: int) -> Fraction:
    """sum over partitions of n of (m_1+...+m_n)!/(m_1!...m_n!) prod T_i^{m_i}.

    The degree-n coefficient of the geometric resummation of sum T_i u^i.
    """
    total = Fraction(0)
    for part in partitions(n):
        mult = multiplicities(part)
        m_total = sum(mult.values())
        coeff = factorial(m_total)
        term = Fraction(1)
        for i, m in mult.items():
            coeff //= factorial(m)
            if i > len(T):
                term = Fraction(0)
                break
            term *= T[i - 1] ** m
        total += coeff * term
    return total


def cluster_to_occupation(w: list[Fraction], n: int) -> Fraction:
    """W_n = sum over partitions of prod w_i^{m_i} / (i^{m_i} m_i!)."""
    total = Fraction(0)
    for part in partitions(n):
        mult = multiplicities(part)
        term = Fraction(1)
        for i, m in mult.items():
            if i > len(w):
                term = Fraction(0)
                break
            term *= w[i - 1] ** m / (Fraction(i) ** m * factorial(m))
        total += term
    return total


def bell_partial(n: int, k: int, t: list[Fraction]) -> Fraction:
    """Partial Bell polynomial B_{n,k}(t_1,...,t_{n-k+1}) by the multinomial sum."""
    total = Fraction(0)
    for part in partitions(n):
        if len(part) != k:
            continue
        mult = multiplicities(part)
        coeff = Fraction(factorial(n))
        term = Fraction(1)
        for i, m in mult.items():
            coeff /= factorial(m)
            if i > len(t):
                term = Fraction(0)
                break
            term *= (t[i - 1] / factorial(i)) ** m
        total += coeff * term
    return total


def stirling1(n: int, k: int) -> int:
    """Unsigned first-kind Stirling numbers via c(n,k) = (n-1) c(n-1,k) + c(n-1,k-1)."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return (n - 1) * stirling1(n - 1, k) + stirling1(n - 1, k - 1)


def hermite_he(n: int) -> list[Fraction]:
    """Coefficients of the probabilists' Hermite polynomial
    He_n = n! sum_m (-1)^m x^(n-2m) / (m! (n-2m)! 2^m)."""
    cs = [Fraction(0)] * (n + 1)
    for m in range(n // 2 + 1):
        cs[n - 2 * m] = Fraction(
            (-1) ** m * factorial(n), factorial(m) * factorial(n - 2 * m) * 2**m
        )
    return cs


def falling_factorial(n: int) -> list[Fraction]:
    """Coefficients of x(x-1)...(x-n+1): the signed Stirling numbers (-1)^(n-k) c(n,k)."""
    return [Fraction((-1) ** (n - k) * stirling1(n, k)) for k in range(n + 1)]


def rising_factorial(n: int) -> list[Fraction]:
    """Coefficients of x(x+1)...(x+n-1): the Stirling numbers c(n,k)."""
    return [Fraction(stirling1(n, k)) for k in range(n + 1)]


def abel_polynomial(n: int, a: Fraction) -> list[Fraction]:
    """Coefficients of x(x - na)^(n-1): C(n-1, k-1) (-na)^(n-k) at x^k."""
    if n == 0:
        return [Fraction(1)]
    return [Fraction(0)] + [comb(n - 1, k - 1) * (-n * a) ** (n - k) for k in range(1, n + 1)]


def divide_series(num: list[Fraction], den: list[Fraction], order: int) -> list[Fraction]:
    """Long division of coefficient lists, den[0] != 0; no library calls."""
    num = list(num) + [Fraction(0)] * (order + 1 - len(num))
    out = []
    for k in range(order + 1):
        q = num[k] / den[0]
        out.append(q)
        for j in range(1, min(len(den), order + 1 - k)):
            num[k + j] -= q * den[j]
    return out


def geometric_coefficients(order: int) -> list[Fraction]:
    """1/(1-X) by long division."""
    return divide_series([Fraction(1)], [Fraction(1), Fraction(-1)], order)


def binomial_fraction(r: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient C(r, n) for rational r."""
    acc = Fraction(1)
    for k in range(n):
        acc *= (r - k) / (k + 1)
    return acc


# -- schoolbook references for the integer series kernels -------------------
# Plain Fraction arithmetic on coefficient lists, one gcd per operation and
# no common denominators, so that the kernels' integer inner loops are
# checked against the textbook definitions.


def schoolbook_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    """Cauchy product c_m = sum_{i+j=m} a_i b_j for m = 0..order."""
    return [
        sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0))
        for m in range(order + 1)
    ]


def schoolbook_compose(
    outer: list[Fraction], inner: list[Fraction], order: int
) -> list[Fraction]:
    """outer(inner(X)) by Horner's rule on series, inner(0) = 0."""
    acc = [outer[order]] + [Fraction(0)] * order
    for k in range(order - 1, -1, -1):
        acc = schoolbook_mul(acc, inner, order)
        acc[0] += outer[k]
    return acc


def schoolbook_reversion(a: list[Fraction], order: int) -> list[Fraction]:
    """Compositional inverse by Lagrange's formula:
    [X^m] a^{-1} = (1/m) [X^{m-1}] (X / a(X))^m, a(0) = 0 != a'(0)."""
    quotient = divide_series([Fraction(1)], a[1:], order - 1)
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for m in range(1, order + 1):
        power = schoolbook_mul(power, quotient, order - 1)
        out[m] = power[m - 1] / m
    return out


def schoolbook_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    """sum_k c_k x^k, term by term."""
    return sum((c * x**k for k, c in enumerate(coeffs)), Fraction(0))


def schoolbook_exp(a: list[Fraction], order: int) -> list[Fraction]:
    """exp(a) = sum_j a^j / j! for a(0) = 0, truncated at X^order."""
    term = [Fraction(1)] + [Fraction(0)] * order
    out = list(term)
    for j in range(1, order + 1):
        term = [c / j for c in schoolbook_mul(term, a, order)]
        out = [x + y for x, y in zip(out, term)]
    return out


def schoolbook_log(a: list[Fraction], order: int) -> list[Fraction]:
    """log(1 + u) = sum_j (-1)^(j+1) u^j / j with u = a - 1, a(0) = 1."""
    u = [Fraction(0)] + list(a[1 : order + 1])
    power = [Fraction(1)] + [Fraction(0)] * order
    out = [Fraction(0)] * (order + 1)
    for j in range(1, order + 1):
        power = schoolbook_mul(power, u, order)
        out = [x + (-1) ** (j + 1) * y / j for x, y in zip(out, power)]
    return out


def schoolbook_binomial_defect(seq, n: int) -> list[list[Fraction]]:
    """D[i][j] = [x^i y^j] of p_n(x+y) - sum_k C(n,k) p_k(x) p_{n-k}(y).

    Expands (x+y)^m by the binomial theorem and multiplies out the sum
    term by term; D is identically zero iff the degree-n identity holds.
    """
    D = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for m, c in enumerate(seq[n].coeffs):
        for i in range(m + 1):
            D[i][m - i] += comb(m, i) * c
    for k in range(n + 1):
        for i, a in enumerate(seq[k].coeffs):
            for j, b in enumerate(seq[n - k].coeffs):
                D[i][j] -= comb(n, k) * a * b
    return D


# -- earlier library routes, kept as references for their faster successors -----


def tau_through_statistics(phi):
    """tau(phi) by the round trip through the statistics space: the kernel
    of the dual of the statistics of phi."""
    from umbral_stats import statistics as st

    return de.map_g_inverse(st.dual(de.map_g(phi)))


def ln_phi_plain_through_log(X):
    """The plain part of ln_phi of the statistics whose weight-function
    inverse is X, as log(X(u)/u)."""
    return fps.log_series(fps.shift_down(X))


def h0_plain_through_log(X):
    """The plain part of H0 read off L = log(X(u)/u): u - sum_{m>=2} L_{m-1} u^m / m."""
    L = ln_phi_plain_through_log(X)
    return TruncatedSeries([0, 1] + [-c / m for m, c in enumerate(L.coeffs[1:], 2)])


def h0_plain_of_kernel_through_statistics(phi):
    """A kernel's H0 by way of its statistics map_g(phi) and log X."""
    return h0_plain_through_log(de.map_g(phi).X_of_w)


def xi_through_kernel(X):
    """xi as the integral of 1/(phi/u) with the kernel phi = X/X', which keeps
    one order less than X determines."""
    phi = de.phi_from_x(X)
    return fps.integrate_extend(fps.reciprocal(fps.shift_down(phi.series)))


def full_convolution_failure(table, weights) -> int | None:
    """Least k at which W_0 = 1 or W_k(x+y) = sum_i W_i(x) W_{k-i}(y) fails,
    or None, for W_k = N_k / (d_k weights[k]) with (N_k, d_k) = table[k].

    Compares the whole columns of G_1 G_j = (j+1) G_{j+1}, G_j the x^j
    column of sum_k W_k t^k, at every t-degree, over one common
    denominator, and checks deg W_k <= k and G_0 = 1.
    """
    N = len(table) - 1
    scales = [d * c for (_, d), c in zip(table, weights)]
    L = lcm(*scales)
    C = [[0] * (N + 1) for _ in range(N + 1)]
    for k, ((nums, _), s) in enumerate(zip(table, scales)):
        for j, c in enumerate(nums[: N + 1]):
            C[j][k] = c * (L // s)
    bad = [k for k, (nums, _) in enumerate(table) if len(nums) > k + 1]
    bad += [k for k in range(N + 1) if C[0][k] != (L if k == 0 else 0)]
    for j in range(1, N):
        lhs = [sum(C[1][i] * C[j][k - i] for i in range(k + 1)) for k in range(N + 1)]
        bad += [k for k in range(N + 1) if lhs[k] != (j + 1) * L * C[j + 1][k]]
    return min(bad, default=None)
