"""Catalog entries: closed forms, fixtures, derived-value regeneration."""

import hashlib
import json
import random
from fractions import Fraction as F
from functools import lru_cache
from math import comb, factorial

import pytest

from oracles import (
    X_OF_W_CLOSED_FORMS,
    X_OF_W_PARAMETRIC_CLOSED_FORMS,
    bell_partial,
    bernoulli_numbers,
    catalan_numbers,
    stirling2,
)
from umbral_stats import catalog as cat
from umbral_stats import oeis
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats import verify
from umbral_stats.catalog import CatalogError
from umbral_stats.deformed_entropy import phi_from_x
from umbral_stats.series import LogSeries, TruncatedSeries
from umbral_stats.umbral import DeltaSeries, conjugate_sequence


class TestRegistry:
    def test_all_entries_listed(self):
        names = cat.list_entries()
        for expected in (
            "boltzmann-gibbs",
            "fermi-dirac",
            "bose-einstein",
            "acharya-swamy",
            "gentile",
            "lah",
            "exponential",
            "abel",
            "gould",
            "gould-acharya-swamy",
            "gould-lambert",
            "gould-framed-vertex",
            "gould-catalan-curve",
            "mittag-leffler",
            "bessel",
            "mott",
            "dilogarithm",
            "averaged-as-1",
            "averaged-as-2",
            "averaged-as-3",
            "bell-universal",
        ):
            assert expected in names

    def test_unknown_entry_rejected(self):
        with pytest.raises(CatalogError, match="unknown catalog entry"):
            cat.get("tsallis")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(CatalogError, match="takes no parameter"):
            cat.build("abel", 8, q=F(1))

    def test_gould_requires_nonzero_b(self):
        with pytest.raises(CatalogError, match="nonzero"):
            cat.build("gould", 8, b=F(0))

    def test_catalan_curve_requires_nonzero_a(self):
        with pytest.raises(CatalogError) as info:
            cat.build("gould-catalan-curve", 8, a=F(0))
        assert str(info.value) == "parameter a must be nonzero (b = -2a must be nonzero)"

    # averaged-as-3 lies off the space: the order is checked first
    @pytest.mark.parametrize("name", ["boltzmann-gibbs", "gentile", "abel", "bell-universal",
                                      "averaged-as-3"])
    @pytest.mark.parametrize("order", [0, -1, -7])
    def test_build_refuses_an_order_below_1(self, name, order):
        with pytest.raises(ValueError) as info:
            cat.build(name, order)
        assert type(info.value) is ValueError
        assert str(info.value) == f"order must be at least 1, got {order}"

    @pytest.mark.parametrize("entry, quantity", [
        # derived quantities
        ("lah", "F"), ("lah", "phi"), ("abel", "gamma"), ("lah", "ln_phi"),
        # extra quantities
        ("averaged-as-3", "X_of_w"), ("averaged-as-3", "u_over_phi"), ("mott", "Y"),
    ])
    @pytest.mark.parametrize("order", [0, -1])
    def test_quantity_refuses_an_order_below_1(self, entry, quantity, order):
        with pytest.raises(ValueError) as info:
            cat.get(entry).quantity(quantity, order)
        assert type(info.value) is ValueError
        assert str(info.value) == f"order must be at least 1, got {order}"

    def test_off_space_entry_has_one_message(self):
        entry = cat.get("averaged-as-3")
        message = (
            f"entry 'averaged-as-3' is not in the normalized statistics space "
            f"({entry.notes}); it supports only "
            "['X_of_w', 'X_of_w_scaled', 'phi', 'u_over_phi']"
        )
        for request in (lambda: entry.build(8), lambda: entry.quantity("entropy", 5),
                        lambda: entry.quantity("F", 5)):
            with pytest.raises(CatalogError) as info:
                request()
            assert str(info.value) == message

    def test_gentile_requires_positive_occupancy(self):
        with pytest.raises(CatalogError):
            cat.build("gentile", 8, p=0)

    def test_gentile_occupancy_must_be_an_integer(self):
        for p in (F(5, 2), 2.7, "5/2"):
            with pytest.raises(CatalogError, match="p must be a positive integer|p expects"):
                cat.build("gentile", 8, p=p)
        assert cat.build("gentile", 8, p=F(3)) == cat.build("gentile", 8, p=3)

    def test_bell_coefficients_must_be_a_list(self):
        with pytest.raises(CatalogError, match="t expects a list"):
            cat.build("bell-universal", 8, t=F(1))

    def test_bell_coefficients_reject_a_string(self):
        # a string is iterable, but of characters: "12" is not t = (1, 2)
        with pytest.raises(CatalogError, match="t expects a list"):
            cat.build("bell-universal", 8, t="12")

    def test_bell_first_coefficient_fixed(self):
        with pytest.raises(CatalogError, match="t_1"):
            cat.build("bell-universal", 8, t=[F(2)])

    def test_off_space_entry_rejects_build(self):
        with pytest.raises(CatalogError, match="not in the normalized"):
            cat.build("averaged-as-3", 8)

    def test_every_in_space_entry_builds(self):
        for name in cat.entries_in_space():
            stat = cat.build(name, 10)
            assert stat.F.coeffs[0] == 0 and stat.F.coeffs[1] == 1
            assert stat.w[1] == 1

    def test_classical_entries(self):
        assert cat.build("bose-einstein", 8).z == TruncatedSeries([1] * 9)
        assert cat.build("fermi-dirac", 8).z == TruncatedSeries([1, 1] + [0] * 7)
        assert cat.build("boltzmann-gibbs", 8).z == fps.exp_series(fps.identity(8))

    def test_unscaled_variant_not_normalizable(self):
        series = cat.mittag_leffler_free_energy(8, scaled=False)
        assert series[1] == 2
        with pytest.raises(ValueError):
            st.Statistics(series)

    def test_registered_constants(self):
        assert cat.get("boltzmann-gibbs").registered_constant == 1
        assert cat.get("fermi-dirac").registered_constant == 0
        assert cat.get("bose-einstein").registered_constant is None

    def test_an_entry_cannot_be_rebound(self):
        entry = cat.get("lah")
        for field in ("name", "summary", "coefficient", "defaults", "validate",
                      "registered_constant", "extra_quantities", "notes"):
            with pytest.raises(AttributeError):
                setattr(entry, field, None)
        assert cat.get("lah") is entry and entry.coefficient(3, {}) == 1

    def test_an_entry_without_optional_mappings_shares_no_writable_one(self):
        entry = cat.get("lah")
        assert entry.defaults == entry.extra_quantities == {}
        with pytest.raises(TypeError):
            entry.defaults["x"] = F(1)


class TestSpecializations:
    def test_gould_zero_a_is_one_parameter_family(self):
        eps = F(2, 5)
        assert cat.build("gould-acharya-swamy", 10, eps=eps) == cat.build(
            "acharya-swamy", 10, eps=eps
        )

    def test_gould_b_to_zero_is_abel(self):
        a = F(3, 4)
        assert cat.build("gould-lambert", 10, a=a) == cat.build("abel", 10, a=a)

    def test_framed_vertex_is_gould_slice(self):
        g = F(3)
        assert cat.build("gould-framed-vertex", 10, g=g) == cat.build(
            "gould", 10, a=g - 1, b=F(1)
        )

    def test_catalan_curve_is_gould_slice(self):
        a = F(1, 3)
        assert cat.build("gould-catalan-curve", 10, a=a) == cat.build(
            "gould", 10, a=a, b=-2 * a
        )

    def test_averaged_1_at_half_is_mittag_leffler(self):
        assert cat.build("averaged-as-1", 12, eps=F(1, 2)) == cat.build(
            "mittag-leffler", 12
        )

    def test_bell_default_is_exponential(self):
        assert cat.build("bell-universal", 10) == cat.build("exponential", 10)



# Every in-space entry's free energy at these orders, at its defaults and at
# four seeded parameter sets, pinned as one SHA-256 digest per entry of F's
# canonical pair (denominator, numerators), or of the error's type name.
DIGEST_ORDERS = (-1, 0, 1, 2, 3, 16, 64, 128)
F_DIGESTS = {
    "abel": "7f0867fe1c3385109a553def2a1e53894dc6e9802bb8c5e68a683b62965631b0",
    "acharya-swamy": "2c16bca7228fc34500504aed53ca9d47e23abe2393498339f23dbbc478713de7",
    "averaged-as-1": "6f8cede7b74868b8f440d86a22ff6abfa65c2a2a994a64b1b297576664ce7248",
    "averaged-as-2": "85f6c8ba9031311c73826d0d23dd46c07eb65d9dd0293d1bf702f45aa322f243",
    "bell-universal": "b80fe3726c1e77a4233f58a1492cae827702083a2d591fa3dcc7374e4e93df38",
    "bessel": "711586d3971412d7f6a77dd454cb8f3cd3e6bac67224b6c0f02f9b79bd7a1dcc",
    "boltzmann-gibbs": "138bd9acaceb8572a1dd44a5cc66385c74c14316b4aaaa0306bdfa1e2e9041f0",
    "bose-einstein": "e7b9bcf4e3543de38df14468603785e4ace6c595010a9c43871727507d3aac32",
    "dilogarithm": "71902da582bea65840d8f441f9a3402ee2fbf9d7f554050010dba5096cddd758",
    "exponential": "d33be1c1a4a7e82987f7573452d023f49fbe42fc5c8845c82bc40e9f5c09249d",
    "fermi-dirac": "4788bcc8960021ecd1bf3f138c67c3e2a62cb5f2cfb9fa94d4212dd0f1e76d00",
    "gentile": "9891da9ea4f400c7023858a86f89d0c86faaadb2d3512c4d77a8b83d5dbd461a",
    "gould": "f76f433b93f7cc87c99fa4c3ba4d17fae3c13cd57aa799de7cd13251093b429b",
    "gould-acharya-swamy": "92d9f5a03b6522fbf6285a2344706eb653a4630991468542551ca95263e5dd97",
    "gould-catalan-curve": "7dfb9fd3206796431b749f31b92565b5005fed928ea38da570e27b0b3be72f69",
    "gould-framed-vertex": "f9ff2142f3f9809007aa5b8738808e9e8769dc4d017224a44e3d1aed6be3864e",
    "gould-lambert": "7f1a3a7dd5afbfd0b65309abb170b4861f576d4dfa7b8b3e7117e1a0769e4465",
    "lah": "bf604263db2be35311b22db469b11e36c31b324e28b5927c756726faa2709529",
    "mittag-leffler": "c8ad960301119d06c244e3e867fbe49e73f820a16aba1e284a4135a74ca49bfb",
    "mott": "b042282de711f2b6c399a7b91a929811f7d13286eb74e701df83e397b1bbea8c",
}


def seeded_params(name: str) -> list[dict]:
    """The defaults ({}), then four seeded parameter sets if the entry has
    parameters: integer p, t lists of 1-7 terms, signed rationals elsewhere."""
    keys = cat.get(name).defaults
    if not keys:
        return [{}]
    rng = random.Random(f"catalog-digest/{name}")

    def signed():
        return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    def value(key):
        if key == "p":
            return rng.randint(1, 9)
        if key == "t":
            return [F(1)] + [signed() for _ in range(rng.randint(0, 6))]
        return signed()

    return [{}] + [{key: value(key) for key in keys} for _ in range(4)]


def free_energy_digest(name: str) -> str:
    outcomes = []
    for params in seeded_params(name):
        for n in DIGEST_ORDERS:
            try:
                free_energy = cat.build(name, n, **params).F
            except Exception as error:
                outcomes.append(type(error).__name__)
            else:
                outcomes.append([free_energy._den, list(free_energy._nums)])
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


class TestFreeEnergies:
    def test_digests_cover_every_in_space_entry(self):
        assert sorted(F_DIGESTS) == cat.entries_in_space()

    @pytest.mark.parametrize("name", sorted(F_DIGESTS))
    def test_free_energy_matches_digest(self, name, monkeypatch):
        # a cold build cache of the test's own, so that nothing here is
        # read from (or left in) the shared one
        monkeypatch.setattr(cat, "_cached_build", lru_cache(256)(cat._cached_build.__wrapped__))
        assert free_energy_digest(name) == F_DIGESTS[name]

    def test_bessel_is_one_minus_a_square_root(self):
        n = 128
        root = fps.pow_rational(fps.one(n) - 2 * fps.identity(n), F(1, 2))
        assert cat.build("bessel", n).F == fps.one(n) - root

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 40])
    def test_gentile_is_the_log_of_its_occupation_numbers(self, p):
        n = 32
        occupation = st.from_occupation([int(k <= p) for k in range(1, n + 1)])
        assert cat.build("gentile", n, p=p).F == occupation.F

    @pytest.mark.parametrize("p", [1, 2, 3, 7])
    def test_gentile_is_the_log_of_its_occupation_series(self, p):
        assert cat.build("gentile", 128, p=p).F == st.gentile_statistics(p, 128).F


# The order each derived quantity comes back at from a statistics of order n,
# as an offset from n, written out here apart from the losses in the catalog's
# quantity table.  ``quantity`` builds each statistics at n plus that loss and
# truncates nothing, so a wrong loss shows as a quantity of the wrong order.
DERIVED_ORDER_OFFSET = {
    "F": 0,
    "z": 0,
    "w": 0,
    "X_of_w": 0,
    "phi": -1,
    "phi_in_X": -1,
    "xi": 0,
    "ln_phi": -1,
    "entropy": 0,
    "phi_entropy": 0,
}


def cold_quantity_cache(monkeypatch):
    """A cold quantity memo of the test's own; the shared one is left as it is."""
    cached = lru_cache(256)(cat._cached_quantity.__wrapped__)
    monkeypatch.setattr(cat, "_cached_quantity", cached)
    return cached


class TestDerivedOrders:
    def test_every_series_quantity_is_listed(self):
        assert set(cat.DERIVED_QUANTITIES) == set(DERIVED_ORDER_OFFSET) | {"gamma"}

    @pytest.mark.parametrize("name", cat.entries_in_space())
    @pytest.mark.parametrize("n", [3, 11])
    def test_order_of_each_derived_quantity(self, name, n):
        # a fresh statistics, read twice: the second read comes from its memo
        stat = st.Statistics(cat.build(name, n).F, name)
        for _ in range(2):
            for quantity, offset in DERIVED_ORDER_OFFSET.items():
                value = cat._derived_quantity(stat, quantity)
                assert value.order == n + offset, quantity
                if isinstance(value, LogSeries):
                    for part in ("plain", "log"):
                        series = cat._derived_quantity(stat, f"{quantity}_{part}")
                        assert series.order == n + offset, f"{quantity}_{part}"
            assert len(cat._derived_quantity(stat, "gamma")) == min(8, n) + 1

    @pytest.mark.parametrize("n", [3, 11])
    def test_quantity_comes_back_at_the_order_asked(self, n):
        for name in cat.list_entries():
            entry = cat.get(name)
            names = list(entry.extra_quantities)
            if entry.in_space:
                names += [q for q in cat.DERIVED_QUANTITIES if q != "gamma"]
                names += [f"{q}_{part}" for q in ("ln_phi", "entropy", "phi_entropy")
                          for part in ("plain", "log")]
                # p_0..p_min(8, n): the degrees a statistics of order n determines
                assert len(entry.quantity("gamma", n)) == min(8, n) + 1, name
            for quantity in names:
                assert entry.quantity(quantity, n).order == n, f"{name}/{quantity}"

    def test_build_and_quantity_share_the_cached_statistics(self, monkeypatch):
        cached = lru_cache(256)(cat._cached_build.__wrapped__)
        monkeypatch.setattr(cat, "_cached_build", cached)
        cold_quantity_cache(monkeypatch)
        stat = cat.build("lah", 16)
        for quantity in ("F", "X_of_w", "entropy_plain", "gamma"):
            cat.get("lah").quantity(quantity, 16)
        info = cached.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        assert cat.get("lah").quantity("z", 16) is stat.z
        cat.get("lah").quantity("xi", 16)  # keeps every order: read at 16
        assert cached.cache_info().misses == 1
        cat.get("lah").quantity("phi", 16)  # loses an order: built at 17
        assert cached.cache_info().misses == 2

    def test_a_cached_statistics_cannot_be_broken(self, monkeypatch):
        """build hands out the cached object itself, so deleting its free
        energy must fail rather than break every later build."""
        cached = lru_cache(256)(cat._cached_build.__wrapped__)
        monkeypatch.setattr(cat, "_cached_build", cached)
        stat = cat.build("bose-einstein", 8)
        with pytest.raises(AttributeError):
            del cat.build("bose-einstein", 8).F
        again = cat.build("bose-einstein", 8)
        assert again is stat and cached.cache_info().hits == 2
        assert again.F == st.from_cluster([1] * 8).F


def fraction_sequence(fixture: cat.Fixture) -> list[int] | str:
    """oeis.integer_sequence on Fractions, or the text of its error."""
    tf = fixture.transform
    geometric = F(tf.get("geometric", 1))
    out, acc = [], F(1)
    for k in range(tf.get("start", 0), len(fixture.coeffs), tf.get("stride", 1)):
        c = fixture.coeffs[k] * (factorial(k) if tf.get("scale") == "factorial" else acc)
        if tf.get("sign") == "abs":
            c = abs(c)
        if c.denominator != 1:
            return (f"fixture {fixture.entry}/{fixture.quantity}: transform did not "
                    f"produce an integer at index {k} ({c})")
        out.append(int(c))
        acc *= geometric
    return out


class TestFixtures:
    def test_every_fixture_checks(self):
        for fixture in cat.fixtures():
            assert fixture.check(), f"{fixture.entry}/{fixture.quantity}"

    def test_every_sequence_link_passes_offline(self):
        for fixture in cat.fixtures():
            if fixture.oeis:
                check = oeis.check_fixture(fixture, fetch=False)
                assert check.passed, f"{fixture.entry}/{fixture.quantity}"

    def test_integer_sequences_match_fraction_arithmetic(self):
        """Every fixture transform (and three more) on every series fixture,
        against the transform done on Fractions term by term: the same
        integers, or the same CatalogError text."""
        records = [r for r in cat._fixture_data()["fixtures"]
                   if not isinstance(r["coeffs"][0], list)]
        transforms = {json.dumps(r.get("transform", {}), sort_keys=True) for r in records}
        transforms = [json.loads(t) for t in sorted(transforms)] + [
            {"geometric": "1/3"}, {"geometric": "-2", "sign": "abs", "start": 2},
            {"scale": "factorial", "geometric": "5", "stride": 3},
        ]
        outcomes = {"integers": 0, "errors": 0}
        for record in records:
            for transform in transforms:
                fixture = cat.Fixture.from_record({**record, "transform": transform})
                expected = fraction_sequence(fixture)
                if isinstance(expected, str):
                    outcomes["errors"] += 1
                    with pytest.raises(CatalogError) as info:
                        oeis.integer_sequence(fixture)
                    assert str(info.value) == expected
                else:
                    outcomes["integers"] += 1
                    assert oeis.integer_sequence(fixture) == expected
        assert min(outcomes.values()) > 50

    def test_a_fixture_cannot_be_rebound(self):
        fixture = cat.fixtures()[0]
        for field in ("entry", "quantity", "coeffs", "provenance", "params", "oeis",
                      "transform", "min_prefix", "note", "series"):
            with pytest.raises(AttributeError):
                setattr(fixture, field, None)
        assert cat.fixtures()[0] is fixture

    def test_fixture_coefficients_are_tuples(self):
        for fixture in cat.fixtures():
            assert type(fixture.coeffs) is tuple
            if fixture.quantity == "gamma":
                assert all(type(row) is tuple for row in fixture.coeffs)

    @pytest.mark.parametrize("field", ["params", "transform"])
    def test_fixture_mappings_refuse_item_assignment(self, field):
        for fixture in cat.fixtures():
            with pytest.raises(TypeError):
                getattr(fixture, field)["z"] = 1
            assert "z" not in getattr(fixture, field)

    def test_a_refused_assignment_leaves_the_fixtures_suite_passing(self):
        (fixture,) = [f for f in cat.fixtures("lah") if f.quantity == "X_of_w"]
        with pytest.raises(TypeError):
            fixture.params["z"] = 1
        assert verify.run("fixtures", 16, 0).passed
        assert dict(cat.fixtures("lah")[0].params) == {}

    def test_each_series_fixture_holds_its_series_when_handed_out(self):
        records = cat.fixtures()
        series = [f for f in records if f.quantity != "gamma"]
        assert series and all(f.series == TruncatedSeries(f.coeffs) for f in series)
        assert all(f.series is None for f in records if f.quantity == "gamma")

    def test_fixture_filter_validates_entry(self):
        with pytest.raises(CatalogError):
            cat.fixtures("unknown-entry")
        assert cat.fixtures("mott")

    def test_fixtures_are_parsed_once(self):
        first, second = cat.fixtures(), cat.fixtures()
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        assert [f for f in first if f.entry == "mott"] == cat.fixtures("mott")


class TestDerivedRegeneration:
    """Each DERIVED fixture is regenerated by an independent oracle."""

    def test_stirling_triangle(self):
        (fixture,) = [
            f for f in cat.fixtures("exponential") if f.quantity == "gamma"
        ]
        for n, row in enumerate(fixture.coeffs):
            assert row == tuple(F(stirling2(n, k)) for k in range(n + 1))

    def test_bernoulli_expansion(self):
        (fixture,) = [f for f in cat.fixtures("dilogarithm") if f.quantity == "xi"]
        B = bernoulli_numbers(len(fixture.coeffs))
        for k, c in enumerate(fixture.coeffs):
            assert c == (0 if k == 0 else B[k - 1] / factorial(k))

    @pytest.mark.parametrize("name", sorted(X_OF_W_CLOSED_FORMS))
    def test_x_of_w_matches_closed_form_at_order_64(self, name):
        coefficient = X_OF_W_CLOSED_FORMS[name]
        expected = [F(0)] + [coefficient(n) for n in range(1, 65)]
        assert list(cat.build(name, 64).X_of_w.coeffs) == expected

    @pytest.mark.parametrize("name", sorted(X_OF_W_PARAMETRIC_CLOSED_FORMS))
    def test_x_of_w_matches_closed_form_at_four_parameters_at_order_64(self, name):
        coefficient = X_OF_W_PARAMETRIC_CLOSED_FORMS[name]
        rng = random.Random(f"closed form of {name}")
        epsilons = set()
        while len(epsilons) < 4:
            eps = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            if eps != cat.get(name).defaults["eps"]:
                epsilons.add(eps)
        for eps in sorted(epsilons):
            p, q = eps.numerator, eps.denominator
            expected = [F(0)] + [coefficient(n, p, q) for n in range(1, 65)]
            assert list(cat.build(name, 64, eps=eps).X_of_w.coeffs) == expected, eps

    def test_catalan_fixtures(self):
        C = catalan_numbers(10)
        (lah_fix,) = [f for f in cat.fixtures("lah") if f.quantity == "X_of_w"]
        for n, c in enumerate(lah_fix.coeffs[1:], start=1):
            assert c == F((-1) ** (n - 1) * C[n])
        (mott_f,) = [f for f in cat.fixtures("mott") if f.quantity == "F"]
        for n, c in enumerate(mott_f.coeffs):
            assert c == (F(C[(n - 1) // 2]) if n % 2 == 1 else F(0))

    def test_mott_inverse_satisfies_algebraic_relation(self):
        # with S = sqrt(1-4X^2): 2 w X S + S == 1 must hold at X = X(w)
        (fixture,) = [f for f in cat.fixtures("mott") if f.quantity == "X_of_w"]
        n = len(fixture.coeffs) - 1
        X = TruncatedSeries(fixture.coeffs)
        S = fps.pow_rational(fps.one(n) - 4 * fps.mul(X, X), F(1, 2))
        w = fps.identity(n)
        lhs = 2 * fps.mul(fps.mul(w, X), S) + S
        assert lhs == fps.one(n)

    def test_mott_kernel_from_fixture_inverse(self):
        # phi = X/X' recomputed from the frozen X(w) fixture (one order shorter)
        (x_fix,) = [f for f in cat.fixtures("mott") if f.quantity == "X_of_w"]
        (phi_fix,) = [f for f in cat.fixtures("mott") if f.quantity == "phi"]
        phi = phi_from_x(TruncatedSeries(x_fix.coeffs))
        n = phi.series.order
        assert phi.series.coeffs == phi_fix.coeffs[: n + 1]

    def test_lah_inverse_closed_form(self):
        (fixture,) = [f for f in cat.fixtures("lah") if f.quantity == "X_of_w"]
        n = len(fixture.coeffs)
        w = fps.identity(n)
        closed = fps.shift_down(
            fps.one(n) + 2 * w - fps.pow_rational(fps.one(n) + 4 * w, F(1, 2))
        ) * F(1, 2)
        assert closed.coeffs[: len(fixture.coeffs)] == fixture.coeffs

    def test_mittag_leffler_inverse_closed_form(self):
        (fixture,) = [
            f for f in cat.fixtures("mittag-leffler") if f.quantity == "X_of_w"
        ]
        n = len(fixture.coeffs)
        w = fps.identity(n)
        closed = 2 * fps.shift_down(
            fps.pow_rational(fps.one(n) + fps.mul(w, w), F(1, 2)) - fps.one(n)
        )
        assert closed.coeffs[: len(fixture.coeffs)] == fixture.coeffs

    def test_abel_entropy_series(self):
        # -p log p + p log(1-ap) + p at a = 1: plain p - sum p^{k+1}/k
        (fixture,) = [
            f for f in cat.fixtures("abel") if f.quantity == "phi_entropy_plain"
        ]
        for k, c in enumerate(fixture.coeffs):
            assert c == (1 if k == 1 else (0 if k == 0 else F(-1, k - 1)))

    def test_gould_free_energy_product_formula(self):
        (fixture,) = [f for f in cat.fixtures("gould") if f.quantity == "F"]
        a = b = F(1)
        for k, c in enumerate(fixture.coeffs):
            if k == 0:
                assert c == 0
                continue
            prod = F(1)
            for j in range(1, k):
                prod *= a * k + j * b
            assert c == F((-1) ** (k - 1)) * prod / factorial(k)


class TestParameterPatterns:
    """Structural checks of parameterized coefficient patterns."""

    def test_wu_inversion_closed_form_random_parameters(self):
        rng = random.Random(13)
        n = 12
        w = fps.identity(n)
        for _ in range(5):
            a = F(rng.randint(-4, 4), rng.randint(1, 4))
            b = F(0)
            while b == 0:
                b = F(rng.randint(-4, 4), rng.randint(1, 4))
            stat = cat.build("gould", n, a=a, b=b)
            num = fps.pow_rational(fps.one(n) - a * w, a / b)
            den = fps.pow_rational(fps.one(n) - (a + b) * w, (a + b) / b)
            closed = fps.shift_up(fps.mul(num, fps.reciprocal(den)))
            assert stat.X_of_w.agrees_with(closed, n)

    def test_averaged_1_catalan_in_parameter(self):
        rng = random.Random(19)
        C = catalan_numbers(6)
        for _ in range(5):
            eps = F(rng.randint(1, 5), rng.randint(1, 5))
            stat = cat.build("averaged-as-1", 12, eps=eps)
            for n in range(6):
                assert stat.X_of_w[2 * n + 1] == F((-1) ** n * C[n]) * eps ** (2 * n)
                if 2 * n + 2 <= 12:
                    assert stat.X_of_w[2 * n + 2] == 0

    def test_averaged_2_polynomials_in_s(self):
        rng = random.Random(29)
        for _ in range(5):
            eps = F(rng.randint(1, 6), rng.randint(1, 6))
            if eps == 1:
                eps = F(2)
            s = (eps + 1 / eps) / 2
            stat = cat.build("averaged-as-2", 12, eps=eps)
            X = stat.X_of_w
            expected = [
                F(0),
                F(1),
                s,
                F(1),
                s * (-(s**2) + 2),
                -(s**2) + 2,
                s * (2 * s**4 - 6 * s**2 + 5),
                2 * s**4 - 6 * s**2 + 5,
                s * (-5 * s**6 + 20 * s**4 - 28 * s**2 + 14),
                -5 * s**6 + 20 * s**4 - 28 * s**2 + 14,
            ]
            for k, c in enumerate(expected):
                assert X[k] == c

    def test_averaged_2_central_binomial_pattern(self):
        # u(s-u)/phi(u): magnitudes C(n, floor(n/2)) times powers of s, s^2-1
        eps = F(3)
        s = (eps + 1 / eps) / 2
        entry = cat.get("averaged-as-2")
        phi = entry.quantity("phi", 12, eps=eps)
        m = phi.order
        su = fps.constant(s, m) - fps.identity(m)
        ratio = fps.mul(su, fps.reciprocal(fps.shift_down(phi)))
        s2 = s * s - 1
        assert ratio.coeffs[0] == s
        for j in range(9):  # term j of the expansion after the 1/u pole
            sign = 1 if j % 4 in (0, 3) else -1
            magnitude = comb(j, j // 2)
            s_power = s if j % 2 == 1 else F(1)
            expected = sign * magnitude * s_power * s2 ** (j // 2 + 1)
            assert ratio.coeffs[j + 1] == expected

    def test_averaged_3_polynomials_in_t(self):
        rng = random.Random(37)
        entry = cat.get("averaged-as-3")
        for _ in range(3):
            eps = F(rng.randint(2, 7), rng.randint(1, 3))
            if eps == 1:
                eps = F(3, 2)
            t = ((eps - 1 / eps) / (eps + 1 / eps)) ** 2
            scaled = entry.quantity("X_of_w_scaled", 12, eps=eps)
            expected = [
                F(0),
                1 - t,
                1 - t**2,
                1 + t**2 - 2 * t**3,
                1 + 4 * t**3 - 5 * t**4,
                1 - 2 * t**3 + 15 * t**4 - 14 * t**5,
                1 - 15 * t**4 + 56 * t**5 - 42 * t**6,
                1 + 5 * t**4 - 84 * t**5 + 210 * t**6 - 132 * t**7,
                1 - 420 * t**6 + 56 * t**5 + 792 * t**7 - 429 * t**8,
                1 - 14 * t**5 + 420 * t**6 - 1980 * t**7 + 3003 * t**8 - 1430 * t**9,
            ]
            for k, c in enumerate(expected):
                assert scaled[k] == c
            uophi = entry.quantity("u_over_phi", 12, eps=eps)
            u_expected = [
                F(1),
                t + 1,
                3 * t**2 + 1,
                10 * t**3 - 3 * t**2 + 1,
                35 * t**4 - 20 * t**3 + 1,
                126 * t**5 - 105 * t**4 + 10 * t**3 + 1,
            ]
            for k, c in enumerate(u_expected):
                assert uophi[k] == c

    def test_averaged_3_legendre_relation(self):
        # g := 2u(1-u)/phi - 1 satisfies g^2 (1 - 4t(u - u^2)) == 1
        eps = F(2)
        t = ((eps - 1 / eps) / (eps + 1 / eps)) ** 2
        phi = cat.get("averaged-as-3").quantity("phi", 14, eps=eps)
        m = phi.order - 1
        u = fps.identity(m)
        numerator = fps.shift_down(
            fps.mul(2 * fps.identity(m + 1), fps.one(m + 1) - fps.identity(m + 1))
        )
        lg = fps.mul(numerator, fps.reciprocal(fps.shift_down(phi)))
        g = lg - fps.one(lg.order)
        mask = fps.one(lg.order) - 4 * t * (u - fps.mul(u, u)).truncate(lg.order)
        assert fps.mul(fps.mul(g, g), mask) == fps.one(lg.order)

    def test_bell_conjugate_matrix_is_partial_bell(self):
        rng = random.Random(43)
        t = [F(1)] + [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(7)]
        stat = cat.build("bell-universal", 8, t=t)
        seq = conjugate_sequence(DeltaSeries(stat.F), 8)
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert seq[n].coefficient(k) == bell_partial(n, k, t), (n, k)

    def test_mott_xi_equals_w_times_Y(self):
        stat = cat.build("mott", 14)
        from umbral_stats.deformed_entropy import xi

        xi_series = xi(stat)
        Y = cat.get("mott").quantity("Y", 14)
        product = fps.mul(fps.identity(Y.order), Y)
        assert xi_series.agrees_with(product, min(xi_series.order, product.order))

    def test_exponential_cayley_functional_equation(self):
        # X(w) must satisfy X e^X = w, i.e. compose(w e^w--route) identity
        stat = cat.build("exponential", 12)
        X = stat.X_of_w
        lhs = fps.mul(X, fps.exp_series(X))
        assert lhs == fps.identity(12)


class TestQuantityApi:
    def test_expand_order_is_respected(self):
        series = cat.get("mott").quantity("phi_in_X", 7)
        assert series.order == 7
        assert [int(c) for c in series.coeffs] == [0, 1, 0, 9, 0, 50, 0, 245]

    def test_logseries_quantities(self):
        ls = cat.get("boltzmann-gibbs").quantity("entropy", 5)
        assert ls.plain == fps.identity(5)
        assert ls.logpart == -fps.identity(5)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(CatalogError, match="unknown quantity"):
            cat.get("abel").quantity("nonsense", 5)

    def test_part_suffix_needs_a_log_part(self):
        for name, quantity in (("lah", "F_plain"), ("lah", "gamma_log"), ("mott", "xi_log"),
                               ("mott", "Y_plain")):
            with pytest.raises(CatalogError, match="unknown quantity"):
                cat.get(name).quantity(quantity, 4)
        entropy = cat.get("lah").quantity("entropy", 4)
        assert cat.get("lah").quantity("entropy_log", 4) == entropy.logpart

    def test_second_request_returns_the_same_object(self, monkeypatch):
        cached = cold_quantity_cache(monkeypatch)
        entry = cat.get("acharya-swamy")
        for quantity in ("xi", "phi_entropy_plain", "gamma"):
            first = entry.quantity(quantity, 12, eps=F(1, 3))
            assert entry.quantity(quantity, 12, eps="1/3") is first, quantity
        assert entry.quantity("xi", 12, eps=F(1, 4)) != entry.quantity("xi", 12, eps=F(1, 3))
        phi = cat.get("averaged-as-3").quantity("phi", 6)
        assert cat.get("averaged-as-3").quantity("phi", 6) is phi
        assert cached.cache_info().misses == 5

    def test_off_space_quantities_limited(self):
        entry = cat.get("averaged-as-3")
        with pytest.raises(CatalogError, match="supports only"):
            entry.quantity("entropy", 5)
