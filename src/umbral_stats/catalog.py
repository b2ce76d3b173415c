"""Named, parameterized statistics with their closed-form free energies.

Each entry bundles a coefficient formula (the coefficient of X^k in its
free energy F, for k >= 1, from which the one construction path builds F),
optional extra quantity builders (for data that lives off the normalized
statistics space), an optional exactly-known linear constant for the
entropy density, and fixture records (expected coefficients frozen in
``data/fixtures.json``) consumed by the verification suite.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb, factorial
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from . import series as fps
from . import statistics as st
from .deformed_entropy import ln_phi, map_g_inverse, phi_entropy, phi_from_x, xi
from .series import LogSeries, TruncatedSeries, as_rational
from .statistics import Statistics

Params = Mapping[str, Fraction]


class CatalogError(ValueError):
    """Unknown entry, invalid parameter, or unavailable quantity."""


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# The default of an entry's optional mappings: one empty mapping, read-only,
# since every entry shares it.
_EMPTY: Mapping = MappingProxyType({})


class CatalogEntry(NamedTuple):
    name: str
    summary: str
    coefficient: Callable[[int, Params], Fraction | int] | None
    defaults: Params = _EMPTY
    validate: Callable[[Params], None] | None = None
    registered_constant: Fraction | None = None
    extra_quantities: Mapping[
        str, tuple[int, Callable[[int, Params], TruncatedSeries]]
    ] = _EMPTY
    notes: str = ""

    @property
    def in_space(self) -> bool:
        """Whether build() produces a statistics in the normalized space."""
        return self.coefficient is not None

    def resolve_params(self, params: Mapping[str, object] | None = None) -> dict:
        merged = dict(self.defaults)
        for key, value in (params or {}).items():
            if key not in self.defaults:
                raise CatalogError(
                    f"entry {self.name!r} takes no parameter {key!r}; "
                    f"valid: {sorted(self.defaults) or 'none'}"
                )
            try:
                if key == "t" and isinstance(value, str):  # iterable, but of characters
                    raise TypeError
                merged[key] = (
                    tuple(map(as_rational, value)) if key == "t" else as_rational(value)
                )
            except TypeError:
                want = "a list of rationals" if key == "t" else "an exact rational"
                raise CatalogError(f"parameter {key} expects {want}, got {value!r}")
        if self.validate is not None:
            self.validate(merged)
        return merged

    def _key(self, order: int, params: Mapping[str, object]) -> tuple:
        """The cache key of a request: its parameters resolved and sorted,
        once its order is known to be at least 1."""
        p = self.resolve_params(params)
        if order < 1:
            raise ValueError(f"order must be at least 1, got {order}")
        return tuple(sorted(p.items()))

    def build(self, order: int, **params) -> Statistics:
        return _cached_build(self.name, order, self._key(order, params))

    def quantity(self, name: str, order: int, **params):
        """A named series/log-series/polynomial-table quantity of this entry.

        Each quantity is built from a statistics (or, for an extra quantity,
        a series) of the order it needs to come back at ``order``: the order
        asked plus the orders it loses on the way.  A derived quantity that
        loses none reads the same cached statistics as ``build(order)``.
        The values are immutable, and a repeated request returns the same
        object.  As in ``build``, an order below 1 raises
        ``ValueError: order must be at least 1, got <order>`` for every
        quantity name.  An entry outside the normalized space has only its
        extra quantities: a derived quantity raises the CatalogError that
        ``build`` raises, which names them.
        """
        return _cached_quantity(self.name, name, order, self._key(order, params))


@lru_cache(maxsize=256)
def _cached_quantity(entry_name: str, name: str, order: int, frozen: tuple):
    entry = get(entry_name)
    if name in entry.extra_quantities:
        loss, compute = entry.extra_quantities[name]
        return compute(order + loss, dict(frozen))
    stat = _cached_build(entry_name, order + _lookup(name)[0], frozen)
    return _derived_quantity(stat, name)


@lru_cache(maxsize=256)
def _cached_build(name: str, order: int, frozen: tuple) -> Statistics:
    entry, p = get(name), dict(frozen)
    if not entry.in_space:
        raise CatalogError(
            f"entry {name!r} is not in the normalized statistics space "
            f"({entry.notes or 'weight function not normalized'}); "
            f"it supports only {sorted(entry.extra_quantities)}"
        )
    F = TruncatedSeries([0, *(entry.coefficient(k, p) for k in range(1, order + 1))])
    return Statistics(F, name=name)


# The quantities of an in-space entry: each maps to the number of orders it
# loses against its statistics, and how it is computed from the statistics.
# phi = X/X' and ln_phi = log p + log(X/p) lose one, as X' and X/p do, and
# phi_in_X, built from phi, loses the same one; xi = integral X'/(X/p) gains
# back the one its integrand loses; gamma holds p_0..p_min(8, n), the degrees
# a statistics of order n determines.
_QUANTITIES: dict[str, tuple[int, Callable[[Statistics], object]]] = {
    "F": (0, lambda stat: stat.F),
    "z": (0, lambda stat: stat.z),
    "w": (0, lambda stat: stat.w),
    "X_of_w": (0, lambda stat: stat.X_of_w),
    "phi": (1, lambda stat: map_g_inverse(stat).series),
    "phi_in_X": (1, lambda stat: fps.compose(map_g_inverse(stat).series, stat.w)),
    "xi": (0, xi),
    "ln_phi": (1, ln_phi),
    "entropy": (0, st.entropy),
    "phi_entropy": (0, lambda stat: phi_entropy(stat).series),
    "gamma": (0, lambda stat: st.conjugate_polynomials(stat, min(8, stat.order))),
}
DERIVED_QUANTITIES = tuple(_QUANTITIES)


def _lookup(name: str) -> tuple[int, Callable, str]:
    """The loss, builder and ``plain``/``log`` part ("" if whole) of a quantity."""
    base, _, part = name.rpartition("_")
    if part not in ("plain", "log"):
        base, part = name, ""
    if base not in _QUANTITIES:
        raise CatalogError(
            f"unknown quantity {name!r}; derived quantities: {DERIVED_QUANTITIES}"
        )
    return (*_QUANTITIES[base], part)


def _derived_quantity(stat: Statistics, name: str):
    _, compute, part = _lookup(name)
    value = compute(stat)
    if not part:
        return value
    if not isinstance(value, LogSeries):
        base = name[: -len(part) - 1]
        raise CatalogError(f"unknown quantity {name!r}: {base!r} has no log part")
    return value.plain if part == "plain" else value.logpart


# -- coefficient formulas ------------------------------------------------------
# An in-space entry states c_k(params), the coefficient of X^k in its free
# energy F = sum_{k>=1} c_k X^k, and _cached_build reads it for k = 1..order.


def _gentile(k: int, p: Params) -> Fraction:
    # F = log(1 + X + ... + X^p) = log(1 - X^(p+1)) - log(1 - X)
    q = p["p"] + 1
    return Fraction(1 - q if k % q == 0 else 1, k)


def _abel(k: int, p: Params) -> Fraction:
    # also gould-lambert, the b -> 0 limit of the gould family: the product
    # degenerates to (ak)^{k-1}, the Lambert-curve free energy
    return (-p["a"] * k) ** (k - 1) / factorial(k)


def _gould(a: Fraction, b: Fraction, k: int) -> Fraction:
    prod = Fraction(1)
    for j in range(1, k):
        prod *= a * k + j * b
    return (-1) ** (k - 1) * prod / factorial(k)


def _mittag_leffler(k: int, p: Params) -> Fraction:
    return Fraction(1, k * 2 ** (k - 1)) if k % 2 else 0


def mittag_leffler_free_energy(order: int, scaled: bool = True) -> TruncatedSeries:
    """log((1 + X/2)/(1 - X/2)) or, unscaled, log((1+X)/(1-X)).

    Only the scaled variant is normalized (unit linear coefficient), so
    only it can back a Statistics; the unscaled series is provided for
    reference.
    """
    # the unscaled series is the scaled one at 2X
    step = 1 if scaled else 2
    return fps.from_function(lambda k: _mittag_leffler(k, {}) * step**k, order)


def _bell(k: int, p: Params) -> Fraction:
    t = p["t"]
    if not t:  # empty parameter list: all-ones coefficients
        return Fraction(1, factorial(k))
    return Fraction(t[k - 1] if k <= len(t) else 0, factorial(k))


# averaged variant 3 lives off the normalized space: its weight function
# has linear coefficient (eps + 1/eps)/2 > 1 for eps != 1


def _averaged_3_weight(order: int, eps: Fraction) -> TruncatedSeries:
    return fps.from_function(
        lambda k: (
            0
            if k == 0
            else Fraction((-1) ** (k - 1), 2) * (eps ** (-k) + eps**k)
        ),
        order,
    )


def _q_averaged_3_X_of_w(order: int, p: Params) -> TruncatedSeries:
    return fps.lagrange_invert(_averaged_3_weight(order, p["eps"]))


def _q_averaged_3_X_scaled(order: int, p: Params) -> TruncatedSeries:
    eps = p["eps"]
    return _q_averaged_3_X_of_w(order, p) * (2 / (eps + 1 / eps))


def _q_averaged_3_phi(order: int, p: Params) -> TruncatedSeries:
    return phi_from_x(_q_averaged_3_X_of_w(order, p)).series


def _q_averaged_3_u_over_phi(order: int, p: Params) -> TruncatedSeries:
    return fps.reciprocal(fps.shift_down(_q_averaged_3_phi(order, p)))


def _q_mott_Y(order: int, p: Params) -> TruncatedSeries:
    stat = _cached_build("mott", order, ())
    X = stat.X_of_w
    return fps.pow_rational(fps.one(order) - 4 * fps.mul(X, X), Fraction(1, 2))


def _validate_gould(p: Params) -> None:
    if p["b"] == 0:
        raise CatalogError("parameter b must be nonzero")


def _validate_gentile(p: Params) -> None:
    if p["p"] < 1 or p["p"].denominator != 1:
        raise CatalogError("maximum occupancy p must be a positive integer")


def _validate_catalan_curve(p: Params) -> None:
    if p["a"] == 0:
        raise CatalogError("parameter a must be nonzero (b = -2a must be nonzero)")


def _validate_eps_nonzero(p: Params) -> None:
    if p["eps"] == 0:
        raise CatalogError("parameter eps must be nonzero")


def _validate_bell(p: Params) -> None:
    if p["t"] and p["t"][0] != 1:
        raise CatalogError("first coefficient t_1 must be 1")


_REGISTRY: dict[str, CatalogEntry] = {entry.name: entry for entry in (
    CatalogEntry(
        "boltzmann-gibbs",
        "classical statistics: z = e^X, weight w = X",
        lambda k, p: int(k == 1),
        registered_constant=Fraction(1),
    ),
    CatalogEntry(
        "fermi-dirac",
        "exclusion statistics: z = 1 + X",
        lambda k, p: Fraction((-1) ** (k - 1), k),
        registered_constant=Fraction(0),
    ),
    CatalogEntry("bose-einstein", "z = 1/(1 - X)", lambda k, p: Fraction(1, k)),
    CatalogEntry(
        "acharya-swamy",
        "z = (1 + eps X)^(1/eps), interpolating FD (eps=1) and BE (eps=-1)",
        lambda k, p: (-p["eps"]) ** (k - 1) / k,
        defaults={"eps": Fraction(1, 2)},
    ),
    CatalogEntry(
        "gentile",
        "maximum occupancy p per state: z = 1 + X + ... + X^p",
        _gentile,
        defaults={"p": 2},
        validate=_validate_gentile,
    ),
    CatalogEntry(
        "lah",
        "free energy X/(1-X); Lah-triangle polynomials, Catalan inverse",
        lambda k, p: 1,
    ),
    CatalogEntry(
        "exponential",
        "free energy e^X - 1; Bell/Stirling polynomials, Cayley tree inverse",
        lambda k, p: Fraction(1, factorial(k)),
    ),
    CatalogEntry(
        "abel",
        "Abel polynomials x(x-na)^(n-1); Lambert spectral curve X = Y e^{aY}",
        _abel,
        defaults={"a": Fraction(1)},
    ),
    CatalogEntry(
        "gould",
        "two-parameter family generalizing exclusion-statistics counting",
        lambda k, p: _gould(p["a"], p["b"], k),
        defaults={"a": Fraction(1), "b": Fraction(1)},
        validate=_validate_gould,
    ),
    CatalogEntry(
        "gould-acharya-swamy",
        "gould specialization a=0, b=eps",
        lambda k, p: _gould(0, p["eps"], k),
        defaults={"eps": Fraction(1, 2)},
    ),
    CatalogEntry(
        "gould-lambert",
        "gould specialization b -> 0 (Lambert curve, equals the abel entry)",
        _abel,
        defaults={"a": Fraction(1)},
    ),
    CatalogEntry(
        "gould-framed-vertex",
        "gould specialization a=g-1, b=1 (framed-vertex curve X = e^{gY} - e^{(g-1)Y})",
        lambda k, p: _gould(p["g"] - 1, 1, k),
        defaults={"g": Fraction(2)},
    ),
    CatalogEntry(
        "gould-catalan-curve",
        "gould specialization b=-2a (Catalan curve after rescaling)",
        lambda k, p: _gould(p["a"], -2 * p["a"], k),
        defaults={"a": Fraction(1, 2)},
        validate=_validate_catalan_curve,
    ),
    CatalogEntry(
        "mittag-leffler",
        "free energy log((1+X/2)/(1-X/2)); Catalan generating inverse",
        _mittag_leffler,
        notes="the unscaled log((1+X)/(1-X)) variant has w_1 = 2 and is exposed "
        "only through mittag_leffler_free_energy(order, scaled=False)",
    ),
    CatalogEntry(
        "bessel",
        "free energy 1 - sqrt(1-2X); Bessel polynomials",
        lambda k, p: Fraction(comb(2 * k, k), (2 * k - 1) * 2**k),
    ),
    CatalogEntry(
        "mott",
        "free energy (1 - sqrt(1-4X^2))/(2X); Mott polynomials",
        lambda k, p: catalan((k - 1) // 2) if k % 2 else 0,
        extra_quantities={"Y": (0, _q_mott_Y)},
        registered_constant=Fraction(0),
        notes="the even-power companion expansion 1 + 9X^2 + 50X^4 + ... is the "
        "ratio phi/X; the fixture stores the odd-power series",
    ),
    CatalogEntry(
        "dilogarithm",
        "free energy sum X^n/n^2; kernel e^u - 1, Bernoulli xi expansion",
        lambda k, p: Fraction(1, k * k),
    ),
    CatalogEntry(
        "averaged-as-1",
        "odd average of the one-parameter family: F = (log(1+eX) - log(1-eX))/(2e)",
        lambda k, p: p["eps"] ** (k - 1) / k if k % 2 else 0,
        defaults={"eps": Fraction(1, 3)},
        notes="eps = 1/2 reproduces the mittag-leffler entry",
    ),
    CatalogEntry(
        "averaged-as-2",
        "parameter-inverted average: F = ((1/e)log(1+eX) + e log(1+X/e))/2",
        lambda k, p: Fraction((-1) ** (k - 1), 2 * k)
        * (p["eps"] ** (k - 1) + p["eps"] ** (1 - k)),
        defaults={"eps": Fraction(2)},
        validate=_validate_eps_nonzero,
    ),
    CatalogEntry(
        "averaged-as-3",
        "shifted-logarithm average: F = (log(X+e) + log(X+1/e))/2",
        None,
        defaults={"eps": Fraction(2)},
        validate=_validate_eps_nonzero,
        extra_quantities={
            "X_of_w": (0, _q_averaged_3_X_of_w),
            "X_of_w_scaled": (0, _q_averaged_3_X_scaled),
            "phi": (1, _q_averaged_3_phi),
            "u_over_phi": (2, _q_averaged_3_u_over_phi),
        },
        notes="weight function has linear coefficient (eps+1/eps)/2 > 1 for "
        "eps != 1, outside the normalized space; series quantities only",
    ),
    CatalogEntry(
        "bell-universal",
        "universal family F = sum t_j X^j/j!; conjugate polynomials are the "
        "partial Bell polynomials in the t_j",
        _bell,
        defaults={"t": tuple()},
        validate=_validate_bell,
        notes="an empty coefficient list means t_j = 1 for every j "
        "(the exponential entry)",
    ),
)}


def get(name: str) -> CatalogEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CatalogError(
            f"unknown catalog entry {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def list_entries() -> list[str]:
    return sorted(_REGISTRY)


def entries_in_space() -> list[str]:
    return [name for name in list_entries() if _REGISTRY[name].in_space]


def build(name: str, order: int, **params) -> Statistics:
    return get(name).build(order, **params)


# -- fixtures ------------------------------------------------------------------


class Fixture(NamedTuple):
    """One frozen expected-coefficient record from data/fixtures.json."""

    entry: str
    quantity: str
    coeffs: tuple  # of Fractions, or of rows of Fractions for gamma
    provenance: str
    params: Mapping[str, Fraction]
    oeis: str | None
    transform: Mapping[str, object]
    min_prefix: int
    note: str
    series: TruncatedSeries | None  # the coeffs as one series; None for gamma

    @classmethod
    def from_record(cls, record: dict) -> Fixture:
        raw = record["coeffs"]
        if raw and isinstance(raw[0], list):
            coeffs, series = tuple(tuple(map(as_rational, row)) for row in raw), None
        else:
            coeffs = tuple(map(as_rational, raw))
            series = TruncatedSeries(coeffs)
        return cls(
            record["entry"],
            record["quantity"],
            coeffs,
            record["provenance"],
            MappingProxyType(
                {k: as_rational(v) for k, v in record.get("params", {}).items()}
            ),
            record.get("oeis"),
            MappingProxyType(record.get("transform", {})),
            record.get("min_prefix", 0),
            record.get("note", ""),
            series,
        )

    def __repr__(self):
        return f"Fixture({self.entry}/{self.quantity})"

    def check(self) -> bool:
        """Recompute the quantity at the record's order and compare it
        exactly; every quantity comes back at the order asked."""
        value = get(self.entry).quantity(self.quantity, len(self.coeffs) - 1, **self.params)
        if self.quantity == "gamma":
            return tuple(map(tuple, value.coefficient_matrix())) == self.coeffs
        return value == self.series


@lru_cache(maxsize=1)
def _fixture_data() -> dict:
    text = resources.files("umbral_stats").joinpath("data/fixtures.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=1)
def _fixture_records() -> tuple[Fixture, ...]:
    return tuple(map(Fixture.from_record, _fixture_data()["fixtures"]))


def fixtures(entry: str | None = None) -> list[Fixture]:
    """The frozen records, parsed once per process.  A record's fields cannot
    be rebound, and its coefficients, parameters and transform are read-only
    (tuples and mapping proxies)."""
    records = list(_fixture_records())
    if entry is not None:
        get(entry)
        records = [f for f in records if f.entry == entry]
    return records


def offline_sequence(oeis_id: str) -> list[int]:
    """Embedded reference terms for an OEIS id (offline snippets)."""
    try:
        return list(_fixture_data()["sequences"][oeis_id])
    except KeyError:
        raise CatalogError(f"no embedded terms for sequence {oeis_id!r}") from None
