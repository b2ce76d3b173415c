"""Named, parameterized statistics with their closed-form series builders.

Each entry bundles a free-energy recipe, optional extra quantity builders
(for data that lives off the normalized statistics space), an optional
exactly-known linear constant for the entropy density, and fixture
records (expected coefficients frozen in ``data/fixtures.json``) consumed
by the verification suite.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb, factorial
from typing import Callable, Mapping

from . import series as fps
from . import statistics as st
from .deformed_entropy import ln_phi, map_g_inverse, phi_entropy, phi_from_x, xi
from .series import LogSeries, TruncatedSeries, as_rational
from .statistics import Statistics
from .umbral import PolynomialSequence

Params = Mapping[str, Fraction]


class CatalogError(ValueError):
    """Unknown entry, invalid parameter, or unavailable quantity."""


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


class CatalogEntry:
    def __init__(
        self,
        name: str,
        summary: str,
        free_energy: Callable[[int, Params], TruncatedSeries] | None,
        defaults: dict[str, Fraction] | None = None,
        validate: Callable[[Params], None] | None = None,
        registered_constant: Fraction | None = None,
        extra_quantities: (
            dict[str, Callable[[int, Params], TruncatedSeries]] | None
        ) = None,
        notes: str = "",
    ):
        self.name = name
        self.summary = summary
        self._free_energy = free_energy
        self.defaults = dict(defaults or {})
        self._validate = validate
        self.registered_constant = registered_constant
        self.extra_quantities = dict(extra_quantities or {})
        self.notes = notes

    @property
    def in_space(self) -> bool:
        """Whether build() produces a statistics in the normalized space."""
        return self._free_energy is not None

    def resolve_params(self, params: Mapping[str, object] | None = None) -> dict:
        merged = dict(self.defaults)
        for key, value in (params or {}).items():
            if key not in self.defaults:
                raise CatalogError(
                    f"entry {self.name!r} takes no parameter {key!r}; "
                    f"valid: {sorted(self.defaults) or 'none'}"
                )
            if key == "t":
                merged[key] = tuple(as_rational(v) for v in value)
            elif key == "p":
                merged[key] = int(value)
            else:
                merged[key] = as_rational(value)
        if self._validate is not None:
            self._validate(merged)
        return merged

    def build(self, order: int, **params) -> Statistics:
        p = self.resolve_params(params)
        if self._free_energy is None:
            raise CatalogError(
                f"entry {self.name!r} is not in the normalized statistics space "
                f"({self.notes or 'weight function not normalized'}); "
                "only its series quantities are available"
            )
        return _cached_build(self.name, order, _freeze(p))

    def quantity(self, name: str, order: int, **params):
        """A named series/log-series/polynomial-table quantity of this entry.

        Computed with a small order margin so that quantities that lose an
        order on the way (kernels, substitutions) still come back at the
        requested order.
        """
        p = self.resolve_params(params)
        if name in self.extra_quantities:
            value = self.extra_quantities[name](order + 2, p)
        elif self._free_energy is None:
            raise CatalogError(
                f"entry {self.name!r} supports only "
                f"{sorted(self.extra_quantities)}, not {name!r}"
            )
        else:
            stat = _cached_build(self.name, order + 2, _freeze(p))
            value = _derived_quantity(self, stat, name)
        if isinstance(value, (TruncatedSeries, LogSeries)) and value.order > order:
            value = value.truncate(order)
        return value


def _freeze(params: dict) -> tuple:
    return tuple(sorted(params.items()))


def _thaw(frozen: tuple) -> dict:
    return dict(frozen)


@lru_cache(maxsize=256)
def _cached_build(name: str, order: int, frozen: tuple) -> Statistics:
    entry = get(name)
    F = entry._free_energy(order, _thaw(frozen))
    return Statistics(F, name=name)


# The quantities of an in-space entry, and the order each comes back at from
# a statistics of order n: F, z, w, X_of_w, entropy and phi_entropy keep n;
# phi = X/X' and ln_phi = log p + log(X/p) lose one, as X' and X/p do, and
# phi_in_X and xi, built from phi, lose the same one; gamma holds
# p_0..p_min(8, n).  ``quantity`` builds at order + 2 and truncates, so each
# comes back at the order asked.
DERIVED_QUANTITIES = (
    "F",
    "z",
    "w",
    "X_of_w",
    "phi",
    "phi_in_X",
    "xi",
    "ln_phi",
    "entropy",
    "phi_entropy",
    "gamma",
)


def _derived_quantity(entry: CatalogEntry, stat: Statistics, name: str):
    base, part = name, ""
    for suffix in ("_plain", "_log"):
        if name.endswith(suffix):
            base, part = name[: -len(suffix)], suffix[1:]
            break
    if base == "F":
        return stat.F
    if base == "z":
        return stat.z
    if base == "w":
        return stat.w
    if base == "X_of_w":
        return stat.X_of_w
    if base == "phi":
        return map_g_inverse(stat).series
    if base == "phi_in_X":
        return fps.compose(map_g_inverse(stat).series, stat.w)
    if base == "xi":
        return xi(stat)
    if base in ("ln_phi", "entropy", "phi_entropy"):
        if base == "ln_phi":
            ls = ln_phi(stat)
        elif base == "entropy":
            ls = st.entropy(stat)
        else:
            ls = phi_entropy(stat, entry.registered_constant).series
        if part == "plain":
            return ls.plain
        if part == "log":
            return ls.logpart
        return ls
    if base == "gamma":
        return st.conjugate_polynomials(stat, min(8, stat.order))
    raise CatalogError(
        f"unknown quantity {name!r}; derived quantities: {DERIVED_QUANTITIES}"
    )


# -- free-energy recipes -------------------------------------------------------


def _F_boltzmann(order: int, p: Params) -> TruncatedSeries:
    return fps.identity(order)


def _F_fermi(order: int, p: Params) -> TruncatedSeries:
    return fps.from_function(
        lambda k: 0 if k == 0 else Fraction((-1) ** (k - 1), k), order
    )


def _F_bose(order: int, p: Params) -> TruncatedSeries:
    return fps.from_function(lambda k: 0 if k == 0 else Fraction(1, k), order)


def _F_acharya_swamy(order: int, p: Params) -> TruncatedSeries:
    eps = p["eps"]
    return fps.from_function(
        lambda k: 0 if k == 0 else Fraction((-1) ** (k - 1)) * eps ** (k - 1) / k,
        order,
    )


def _F_gentile(order: int, p: Params) -> TruncatedSeries:
    return st.gentile_statistics(p["p"], order).F


def _F_lah(order: int, p: Params) -> TruncatedSeries:
    return fps.from_function(lambda k: 0 if k == 0 else 1, order)


def _F_exponential(order: int, p: Params) -> TruncatedSeries:
    return fps.from_function(lambda k: 0 if k == 0 else Fraction(1, factorial(k)), order)


def _F_abel(order: int, p: Params) -> TruncatedSeries:
    a = p["a"]
    return fps.from_function(
        lambda k: 0 if k == 0 else (-a * k) ** (k - 1) / Fraction(factorial(k)), order
    )


def _gould_free_energy(a: Fraction, b: Fraction, order: int) -> TruncatedSeries:
    coeffs = [Fraction(0)]
    for k in range(1, order + 1):
        prod = Fraction(1)
        for j in range(1, k):
            prod *= a * k + j * b
        coeffs.append(Fraction((-1) ** (k - 1)) * prod / factorial(k))
    return TruncatedSeries(coeffs)


def _F_gould(order: int, p: Params) -> TruncatedSeries:
    return _gould_free_energy(p["a"], p["b"], order)


def _F_gould_as(order: int, p: Params) -> TruncatedSeries:
    return _gould_free_energy(Fraction(0), p["eps"], order)


def _F_gould_lambert(order: int, p: Params) -> TruncatedSeries:
    # b -> 0 limit of the two-parameter family: the product degenerates
    # to (ak)^{k-1}, the Lambert-curve free energy
    return _F_abel(order, p)


def _F_gould_framed_vertex(order: int, p: Params) -> TruncatedSeries:
    return _gould_free_energy(p["g"] - 1, Fraction(1), order)


def _F_gould_catalan_curve(order: int, p: Params) -> TruncatedSeries:
    return _gould_free_energy(p["a"], -2 * p["a"], order)


def mittag_leffler_free_energy(order: int, scaled: bool = True) -> TruncatedSeries:
    """log((1 + X/2)/(1 - X/2)) or, unscaled, log((1+X)/(1-X)).

    Only the scaled variant is normalized (unit linear coefficient), so
    only it can back a Statistics; the unscaled series is provided for
    reference.
    """
    if scaled:
        return fps.from_function(
            lambda k: Fraction(1, k * 2 ** (k - 1)) if k % 2 == 1 else 0, order
        )
    return fps.from_function(lambda k: Fraction(2, k) if k % 2 == 1 else 0, order)


def _F_mittag_leffler(order: int, p: Params) -> TruncatedSeries:
    return mittag_leffler_free_energy(order, scaled=True)


def _F_bessel(order: int, p: Params) -> TruncatedSeries:
    root = fps.pow_rational(fps.one(order) - 2 * fps.identity(order), Fraction(1, 2))
    return fps.one(order) - root


def _F_mott(order: int, p: Params) -> TruncatedSeries:
    return fps.from_function(
        lambda k: catalan((k - 1) // 2) if k % 2 == 1 else 0, order
    )


def _F_dilogarithm(order: int, p: Params) -> TruncatedSeries:
    return fps.from_function(lambda k: 0 if k == 0 else Fraction(1, k * k), order)


def _F_averaged_1(order: int, p: Params) -> TruncatedSeries:
    eps = p["eps"]
    return fps.from_function(
        lambda k: eps ** (k - 1) / Fraction(k) if k % 2 == 1 else 0, order
    )


def _F_averaged_2(order: int, p: Params) -> TruncatedSeries:
    eps = p["eps"]
    return fps.from_function(
        lambda k: (
            0
            if k == 0
            else Fraction((-1) ** (k - 1), 2 * k) * (eps ** (k - 1) + eps ** (1 - k))
        ),
        order,
    )


def _F_bell(order: int, p: Params) -> TruncatedSeries:
    t = p["t"]
    coeffs = [Fraction(0)]
    for k in range(1, order + 1):
        if t:
            tk = t[k - 1] if k - 1 < len(t) else Fraction(0)
        else:
            tk = Fraction(1)  # empty parameter list: all-ones coefficients
        coeffs.append(tk / factorial(k))
    return TruncatedSeries(coeffs)


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
    if p["p"] < 1:
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


_REGISTRY: dict[str, CatalogEntry] = {}


def _register(entry: CatalogEntry) -> CatalogEntry:
    _REGISTRY[entry.name] = entry
    return entry


_register(
    CatalogEntry(
        "boltzmann-gibbs",
        "classical statistics: z = e^X, weight w = X",
        _F_boltzmann,
        registered_constant=Fraction(1),
    )
)
_register(
    CatalogEntry(
        "fermi-dirac",
        "exclusion statistics: z = 1 + X",
        _F_fermi,
        registered_constant=Fraction(0),
    )
)
_register(CatalogEntry("bose-einstein", "z = 1/(1 - X)", _F_bose))
_register(
    CatalogEntry(
        "acharya-swamy",
        "z = (1 + eps X)^(1/eps), interpolating FD (eps=1) and BE (eps=-1)",
        _F_acharya_swamy,
        defaults={"eps": Fraction(1, 2)},
    )
)
_register(
    CatalogEntry(
        "gentile",
        "maximum occupancy p per state: z = 1 + X + ... + X^p",
        _F_gentile,
        defaults={"p": 2},
        validate=_validate_gentile,
    )
)
_register(
    CatalogEntry(
        "lah",
        "free energy X/(1-X); Lah-triangle polynomials, Catalan inverse",
        _F_lah,
    )
)
_register(
    CatalogEntry(
        "exponential",
        "free energy e^X - 1; Bell/Stirling polynomials, Cayley tree inverse",
        _F_exponential,
    )
)
_register(
    CatalogEntry(
        "abel",
        "Abel polynomials x(x-na)^(n-1); Lambert spectral curve X = Y e^{aY}",
        _F_abel,
        defaults={"a": Fraction(1)},
    )
)
_register(
    CatalogEntry(
        "gould",
        "two-parameter family generalizing exclusion-statistics counting",
        _F_gould,
        defaults={"a": Fraction(1), "b": Fraction(1)},
        validate=_validate_gould,
    )
)
_register(
    CatalogEntry(
        "gould-acharya-swamy",
        "gould specialization a=0, b=eps",
        _F_gould_as,
        defaults={"eps": Fraction(1, 2)},
    )
)
_register(
    CatalogEntry(
        "gould-lambert",
        "gould specialization b -> 0 (Lambert curve, equals the abel entry)",
        _F_gould_lambert,
        defaults={"a": Fraction(1)},
    )
)
_register(
    CatalogEntry(
        "gould-framed-vertex",
        "gould specialization a=g-1, b=1 (framed-vertex curve X = e^{gY} - e^{(g-1)Y})",
        _F_gould_framed_vertex,
        defaults={"g": Fraction(2)},
    )
)
_register(
    CatalogEntry(
        "gould-catalan-curve",
        "gould specialization b=-2a (Catalan curve after rescaling)",
        _F_gould_catalan_curve,
        defaults={"a": Fraction(1, 2)},
        validate=_validate_catalan_curve,
    )
)
_register(
    CatalogEntry(
        "mittag-leffler",
        "free energy log((1+X/2)/(1-X/2)); Catalan generating inverse",
        _F_mittag_leffler,
        notes="the unscaled log((1+X)/(1-X)) variant has w_1 = 2 and is exposed "
        "only through mittag_leffler_free_energy(order, scaled=False)",
    )
)
_register(
    CatalogEntry(
        "bessel",
        "free energy 1 - sqrt(1-2X); Bessel polynomials",
        _F_bessel,
    )
)
_register(
    CatalogEntry(
        "mott",
        "free energy (1 - sqrt(1-4X^2))/(2X); Mott polynomials",
        _F_mott,
        extra_quantities={"Y": _q_mott_Y},
        registered_constant=Fraction(0),
        notes="the even-power companion expansion 1 + 9X^2 + 50X^4 + ... is the "
        "ratio phi/X; the fixture stores the odd-power series",
    )
)
_register(
    CatalogEntry(
        "dilogarithm",
        "free energy sum X^n/n^2; kernel e^u - 1, Bernoulli xi expansion",
        _F_dilogarithm,
    )
)
_register(
    CatalogEntry(
        "averaged-as-1",
        "odd average of the one-parameter family: F = (log(1+eX) - log(1-eX))/(2e)",
        _F_averaged_1,
        defaults={"eps": Fraction(1, 3)},
        notes="eps = 1/2 reproduces the mittag-leffler entry",
    )
)
_register(
    CatalogEntry(
        "averaged-as-2",
        "parameter-inverted average: F = ((1/e)log(1+eX) + e log(1+X/e))/2",
        _F_averaged_2,
        defaults={"eps": Fraction(2)},
        validate=_validate_eps_nonzero,
    )
)
_register(
    CatalogEntry(
        "averaged-as-3",
        "shifted-logarithm average: F = (log(X+e) + log(X+1/e))/2",
        None,
        defaults={"eps": Fraction(2)},
        validate=_validate_eps_nonzero,
        extra_quantities={
            "X_of_w": _q_averaged_3_X_of_w,
            "X_of_w_scaled": _q_averaged_3_X_scaled,
            "phi": _q_averaged_3_phi,
            "u_over_phi": _q_averaged_3_u_over_phi,
        },
        notes="weight function has linear coefficient (eps+1/eps)/2 > 1 for "
        "eps != 1, outside the normalized space; series quantities only",
    )
)
_register(
    CatalogEntry(
        "bell-universal",
        "universal family F = sum t_j X^j/j!; conjugate polynomials are the "
        "partial Bell polynomials in the t_j",
        _F_bell,
        defaults={"t": tuple()},
        validate=_validate_bell,
        notes="an empty coefficient list means t_j = 1 for every j "
        "(the exponential entry)",
    )
)


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


class Fixture:
    """One frozen expected-coefficient record from data/fixtures.json."""

    __slots__ = (
        "entry",
        "quantity",
        "coeffs",
        "provenance",
        "params",
        "oeis",
        "transform",
        "min_prefix",
        "note",
    )

    def __init__(self, record: dict):
        self.entry = record["entry"]
        self.quantity = record["quantity"]
        raw = record["coeffs"]
        if raw and isinstance(raw[0], list):
            self.coeffs = [[as_rational(c) for c in row] for row in raw]
        else:
            self.coeffs = [as_rational(c) for c in raw]
        self.provenance = record["provenance"]
        self.params = {k: as_rational(v) for k, v in record.get("params", {}).items()}
        self.oeis = record.get("oeis")
        self.transform = record.get("transform", {})
        self.min_prefix = record.get("min_prefix", 0)
        self.note = record.get("note", "")

    def __repr__(self):
        return f"Fixture({self.entry}/{self.quantity})"

    def required_order(self) -> int:
        return len(self.coeffs) - 1

    def computed(self):
        return get(self.entry).quantity(
            self.quantity, self.required_order(), **dict(self.params)
        )

    def check(self) -> bool:
        value = self.computed()
        if self.quantity == "gamma":
            assert isinstance(value, PolynomialSequence)
            got = [
                [value[n].coefficient(k) for k in range(len(row))]
                for n, row in enumerate(self.coeffs)
            ]
            return got == self.coeffs
        assert isinstance(value, TruncatedSeries)
        if value.order < self.required_order():
            raise CatalogError(
                f"fixture {self.entry}/{self.quantity}: computed series order "
                f"{value.order} is shorter than the fixture"
            )
        return list(value.coeffs[: len(self.coeffs)]) == self.coeffs

    def integer_sequence(self) -> list[int]:
        """Apply the fixture's documented transform to produce the integer
        sequence compared against its OEIS reference."""
        tf = self.transform
        start = tf.get("start", 0)
        stride = tf.get("stride", 1)
        sign = tf.get("sign", "none")
        scale = tf.get("scale", "none")
        geometric = as_rational(tf.get("geometric", 1))
        coeffs = self.coeffs
        out = []
        k = start
        acc_scale = Fraction(1)
        while k < len(coeffs):
            c = coeffs[k] * acc_scale
            if scale == "factorial":
                c = coeffs[k] * factorial(k)
            if sign == "abs":
                c = abs(c)
            if c.denominator != 1:
                raise CatalogError(
                    f"fixture {self.entry}/{self.quantity}: transform did not "
                    f"produce an integer at index {k} ({c})"
                )
            out.append(int(c))
            k += stride
            acc_scale *= geometric
        return out


@lru_cache(maxsize=1)
def _fixture_data() -> dict:
    text = resources.files("umbral_stats").joinpath("data/fixtures.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=1)
def _fixture_records() -> tuple[Fixture, ...]:
    return tuple(Fixture(r) for r in _fixture_data()["fixtures"])


def fixtures(entry: str | None = None) -> list[Fixture]:
    """The frozen records, parsed once per process; callers must not mutate them."""
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
