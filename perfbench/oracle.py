"""Reference computations that check the benchmark's outputs.

Standard library only, and no code shared with ``umbral_stats``: a fault
in the package cannot hide by being repeated in its own check.  Series are
lists of Fractions, ``a[k]`` the coefficient of ``t**k``.  Where the
package uses a recurrence, the reference uses another route (power sums
for exp and log, the Lagrange formula for reversion, integer Horner for
composition), and the catalog's free energies are written out from their
closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm


def rat(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def rats(values) -> list[Fraction]:
    return [rat(v) for v in values]


# -- series arithmetic ----------------------------------------------------------


def mul(a, b, n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def deriv(a) -> list[Fraction]:
    return [k * a[k] for k in range(1, len(a))]


def reciprocal(a, n: int) -> list[Fraction]:
    """1/a by long division (a[0] != 0)."""
    out = []
    for m in range(n + 1):
        acc = Fraction(int(m == 0)) - sum(a[k] * out[m - k] for k in range(1, min(m, len(a) - 1) + 1))
        out.append(acc / a[0])
    return out


def power_sum(u, coeff, n: int) -> list[Fraction]:
    """sum_j coeff(j) u^j through t^n, for u with u[0] = 0."""
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for j in range(n + 1):
        c = coeff(j)
        if c:
            out = [x + c * y for x, y in zip(out, power)]
        power = mul(power, u, n)
    return out


def exp(F, n: int) -> list[Fraction]:
    """exp(F) = sum F^j / j!, for F[0] = 0."""
    return power_sum(F, lambda j: Fraction(1, factorial(j)), n)


def log(G, n: int) -> list[Fraction]:
    """log(G) = sum (-1)^(j-1) (G-1)^j / j, for G[0] = 1."""
    u = [Fraction(0)] + list(G[1 : n + 1])
    return power_sum(u, lambda j: Fraction((-1) ** (j - 1), j) if j else 0, n)


def _integer_form(cs) -> tuple[list[int], int]:
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def compose(outer, inner, n: int) -> list[Fraction]:
    """outer(inner(t)) through t^n, for inner[0] = 0.

    Exact Horner evaluation on integer numerators over common denominators:
    with outer = W/e and inner = Y/d, the sum of W_k Y^k d^(n-k) is
    e d^n outer(inner).
    """
    W, e = _integer_form(outer[: n + 1])
    Y, d = _integer_form(inner[: n + 1])
    acc = [W[n]] + [0] * n
    scale = 1
    for k in range(n - 1, -1, -1):
        scale *= d
        nxt = [0] * (n + 1)
        for i, ai in enumerate(acc):
            if ai:
                for j in range(1, n + 1 - i):
                    if Y[j]:
                        nxt[i + j] += ai * Y[j]
        nxt[0] += W[k] * scale
        acc = nxt
    return [Fraction(c, e * scale) for c in acc]


def reversion(w, n: int) -> list[Fraction]:
    """Compositional inverse by the Lagrange formula:
    [t^m] X = (1/m) [u^(m-1)] (u/w(u))^m."""
    h = reciprocal(list(w[1 : n + 1]), n - 1)
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for m in range(1, n + 1):
        power = mul(power, h, n - 1)
        out[m] = power[m - 1] / m
    return out


def one(n: int) -> list[Fraction]:
    return [Fraction(int(k == 0)) for k in range(n + 1)]


def identity(n: int) -> list[Fraction]:
    return [Fraction(int(k == 1)) for k in range(n + 1)]


def twist(a, m: int) -> list[Fraction]:
    return [(k**m) * c for k, c in enumerate(a)]


# -- closed-form free energies of the catalog ------------------------------------


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _gould(a, b, k):
    prod = Fraction(1)
    for j in range(1, k):
        prod *= a * k + j * b
    return (-1) ** (k - 1) * prod / factorial(k)


def _half_binomial(k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= (Fraction(1, 2) - j) / (j + 1)
    return out


def _bell(p, k):
    t = p.get("t", ())
    return (rat(t[k - 1]) if k <= len(t) else Fraction(0) if t else Fraction(1)) / factorial(k)


_F = {
    "boltzmann-gibbs": lambda p, k: Fraction(int(k == 1)),
    "fermi-dirac": lambda p, k: Fraction((-1) ** (k - 1), k),
    "bose-einstein": lambda p, k: Fraction(1, k),
    "acharya-swamy": lambda p, k: (-rat(p["eps"])) ** (k - 1) / k,
    # log(1 + t + ... + t^p) = log(1 - t^(p+1)) - log(1 - t)
    "gentile": lambda p, k: Fraction(1, k) - (Fraction(int(p["p"]) + 1, k) if k % (int(p["p"]) + 1) == 0 else 0),
    "lah": lambda p, k: Fraction(1),
    "exponential": lambda p, k: Fraction(1, factorial(k)),
    "abel": lambda p, k: (-rat(p["a"]) * k) ** (k - 1) / factorial(k),
    "gould": lambda p, k: _gould(rat(p["a"]), rat(p["b"]), k),
    "gould-acharya-swamy": lambda p, k: (-rat(p["eps"])) ** (k - 1) / k,
    "gould-lambert": lambda p, k: (-rat(p["a"]) * k) ** (k - 1) / factorial(k),
    "gould-framed-vertex": lambda p, k: _gould(rat(p["g"]) - 1, Fraction(1), k),
    "gould-catalan-curve": lambda p, k: _gould(rat(p["a"]), -2 * rat(p["a"]), k),
    "mittag-leffler": lambda p, k: Fraction(1, k * 2 ** (k - 1)) if k % 2 else Fraction(0),
    # 1 - sqrt(1 - 2t)
    "bessel": lambda p, k: -_half_binomial(k) * (-2) ** k,
    # (1 - sqrt(1 - 4t^2)) / (2t)
    "mott": lambda p, k: Fraction(catalan((k - 1) // 2)) if k % 2 else Fraction(0),
    "dilogarithm": lambda p, k: Fraction(1, k * k),
    "averaged-as-1": lambda p, k: rat(p["eps"]) ** (k - 1) / k if k % 2 else Fraction(0),
    "averaged-as-2": lambda p, k: (-1) ** (k - 1) * (rat(p["eps"]) ** (k - 1) + rat(p["eps"]) ** (1 - k)) / (2 * k),
    "bell-universal": _bell,
}

def free_energy(entry: str, params: dict, n: int) -> list[Fraction]:
    f = _F[entry]
    return [Fraction(0)] + [f(params, k) for k in range(1, n + 1)]


def occupation_closed_form(entry: str, params: dict, n: int) -> list[Fraction] | None:
    """z = exp(F) where a closed form is known, else None."""
    if entry == "bose-einstein":
        return [Fraction(1)] * (n + 1)
    if entry == "fermi-dirac":
        return [Fraction(int(k <= 1)) for k in range(n + 1)]
    if entry == "boltzmann-gibbs":
        return [Fraction(1, factorial(k)) for k in range(n + 1)]
    if entry == "gentile":
        return [Fraction(int(k <= int(params["p"]))) for k in range(n + 1)]
    if entry in ("acharya-swamy", "gould-acharya-swamy"):
        # (1 + eps t)^(1/eps)
        eps = rat(params["eps"])
        out, c = [], Fraction(1)
        for k in range(n + 1):
            out.append(c)
            c = c * (1 / eps - k) * eps / (k + 1)
        return out
    return None


class Reference:
    """Every series quantity of one catalog entry, computed independently."""

    def __init__(self, entry: str, params: dict, n: int):
        self.n = n
        self.F = free_energy(entry, params, n)
        self.w = [k * c for k, c in enumerate(self.F)]
        self.X = reversion(self.w, n)
        self.z = occupation_closed_form(entry, params, n) or exp(self.F, n)
        Xu = self.X[1:]  # X(u)/u, order n-1
        self.ln_plain = log(Xu, n - 1)  # log(X/u)
        # phi = X / X'
        self.phi = mul(self.X, reciprocal(deriv(self.X), n - 1), n - 1)
        self.xi = compose(self.F, self.X, n)

    def quantity(self, name: str):
        """(plain, log) coefficient lists; log is None for a plain series."""
        n = self.n
        if name in ("F", "z", "w"):
            return getattr(self, name), None
        if name == "X_of_w":
            return self.X, None
        if name == "phi":
            return self.phi, None
        if name == "phi_in_X":
            return compose(self.phi, self.w, n - 1), None
        if name == "xi":
            return self.xi, None
        if name == "ln_phi":
            return self.ln_plain, [Fraction(int(k == 0)) for k in range(n)]
        if name == "entropy":
            return self.F, [-c for c in self.w]
        if name == "phi_entropy":
            plain = [a - b for a, b in zip(self.xi, [Fraction(0)] + self.ln_plain)]
            return plain, [-Fraction(int(k == 1)) for k in range(n + 1)]
        raise ValueError(f"no reference for quantity {name!r}")


# -- checks that need no reference series -----------------------------------------


def is_exp(F, z) -> bool:
    """z = exp(F) through the common order, by z' = F' z."""
    n = min(len(F), len(z)) - 1
    if z[0] != 1 or F[0] != 0:
        return False
    return all(
        m * z[m] == sum(k * F[k] * z[m - k] for k in range(1, m + 1) if F[k])
        for m in range(1, n + 1)
    )


def conjugate_polynomials(F, n: int) -> list[list[Fraction]]:
    """p_m(x) = m! sum_k x^k/k! [t^m] F^k, m = 0..n, as coefficient lists."""
    table = [[Fraction(1)] + [Fraction(0)] * n]
    for _ in range(n):
        table.append(mul(table[-1], F, n))
    return [[factorial(m) * table[k][m] / factorial(k) for k in range(m + 1)] for m in range(n + 1)]


def sheffer_polynomials(g, F, n: int) -> list[list[Fraction]]:
    """s_m(x) = m! sum_k x^k/k! [t^m] F^k / g(F), m = 0..n."""
    prefactor = reciprocal(compose(g, F, n), n)
    table = [prefactor]
    for _ in range(n):
        table.append(mul(table[-1], F, n))
    return [[factorial(m) * table[k][m] / factorial(k) for k in range(m + 1)] for m in range(n + 1)]


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_float(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def lah_number(m: int, k: int) -> int:
    """Unsigned Lah number L(m, k) = C(m-1, k-1) m!/k!."""
    if k == 0:
        return int(m == 0)
    return comb(m - 1, k - 1) * factorial(m) // factorial(k)


def stirling2(m: int, k: int) -> int:
    """Stirling numbers of the second kind, by S(m,k) = k S(m-1,k) + S(m-1,k-1)."""
    row = [1]
    for i in range(1, m + 1):
        row = [(j * row[j] if j < len(row) else 0) + (row[j - 1] if j >= 1 else 0) for j in range(i + 1)]
        row[0] = 0
    return row[k] if k < len(row) else 0


SEQUENCES = {
    "A000108": lambda i: catalan(i),
    "A002420": lambda i: 1 if i == 0 else -2 * catalan(i - 1),
    "A000169": lambda i: i ** (i - 1) if i else 0,
    "A001700": lambda i: comb(2 * i + 1, i + 1),
}


def is_window_of(terms: list[int], oeis_id: str, absolute: bool) -> bool:
    """Whether the terms are consecutive terms of the sequence (from index 0..3)."""
    f = SEQUENCES[oeis_id]
    norm = abs if absolute else (lambda v: v)
    return any(
        all(norm(t) == norm(f(s + i)) for i, t in enumerate(terms)) for s in range(4)
    )
