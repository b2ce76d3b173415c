"""The library's error contract: a public function called with an argument
outside its domain raises ValueError or TypeError (or a subclass), never
ZeroDivisionError, IndexError, KeyError or a silent answer.

Each case below names an exported function and draws one out-of-domain
argument for it: a rational with a zero denominator, a degree past the
sequence or the order, a negative order (below 1 for a catalog request), an
empty list or a float where an exact rational is required.  A degree or an
order is also tried at each value just past the edge of its domain, which a
draw may miss.  Every case must raise.
"""

from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import umbral_stats as us
from umbral_stats import catalog

ORDER = 6

STAT = catalog.build("bose-einstein", ORDER)
SERIES = us.TruncatedSeries([0, 1, F(-1, 2), 3, 0, F(2, 7), 1])
DELTA = us.DeltaSeries(SERIES)
UNIT = us.InvertibleSeries(us.one(ORDER))
PHI = us.PhiSeries.from_t([F(1, 2), 0, F(-1, 3)], order=ORDER)
SEQ = us.conjugate_sequence(DELTA, 4)
W = us.occupation_polynomials(STAT, 4)

zero_denominators = hs.builds(
    lambda sign, num, zeros, pad: f"{pad}{sign}{num}/{'0' * zeros}{pad}",
    hs.sampled_from(["", "-", "+"]), hs.integers(0, 10**30), hs.integers(1, 3),
    hs.sampled_from(["", " "]),
)


class Outside(NamedTuple):
    """Arguments outside a domain: the values just past its edges, each called
    on every run, and a strategy that draws the rest."""

    edges: tuple
    draw: hs.SearchStrategy


negative = Outside((-1,), hs.integers(-40, -1))
below_1 = Outside((0, -1), hs.integers(-3, 0))


def past(size: int) -> Outside:
    """A degree outside 0..size-1."""
    return Outside((size, -1), hs.integers(size, size + 40) | negative.draw)


def requests(names: list) -> Outside:
    """A quantity name with an order below 1."""
    return Outside(tuple((name, n) for name in names for n in below_1.edges),
                   hs.tuples(hs.sampled_from(names), below_1.draw))


floats = hs.floats(allow_nan=False, allow_infinity=False)

CASES = {
    # zero denominators
    "as_rational": (zero_denominators, lambda t: us.as_rational(t)),
    "TruncatedSeries": (zero_denominators, lambda t: us.TruncatedSeries([0, 1, t])),
    "evaluate": (zero_denominators, lambda t: us.evaluate(SERIES, t)),
    "pow_rational": (zero_denominators, lambda t: us.pow_rational(us.one(ORDER), t)),
    "chi": (zero_denominators, lambda t: us.chi(PHI, t)),
    "haldane_wu_W-g": (zero_denominators, lambda t: us.haldane_wu_W(t, 2, 0)),
    "haldane_wu_W-beta": (zero_denominators, lambda t: us.haldane_wu_W(3, 2, t)),
    "mean_occupation": (zero_denominators, lambda t: us.mean_occupation(STAT, t)),
    "spectral_samples": (zero_denominators, lambda t: us.spectral_samples(STAT, [0, t])),
    "from_cluster": (zero_denominators, lambda t: us.from_cluster([1, t])),
    "from_occupation": (zero_denominators, lambda t: us.from_occupation([1, t])),
    "Polynomial": (zero_denominators, lambda t: us.Polynomial([1, t])),
    "Polynomial-call": (zero_denominators, lambda t: SEQ[3](t)),
    "scale": (zero_denominators, lambda t: SERIES.scale(t)),
    "PhiSeries.from_t": (zero_denominators, lambda t: us.PhiSeries.from_t([t])),
    "s_from_t": (zero_denominators, lambda t: us.s_from_t([1, t])),
    "t_from_s": (zero_denominators, lambda t: us.t_from_s([t])),
    # degrees past the sequence or the order
    "convolution_holds": (past(len(W)), lambda k: us.convolution_holds(W, 1, 2, k)),
    "occupation_recursion_holds": (
        past(ORDER + 1), lambda k: us.occupation_recursion_holds(STAT, 1, 2, k)),
    "occupation_polynomial": (past(ORDER + 1), lambda k: us.occupation_polynomial(STAT, k)),
    "occupation_polynomials": (past(ORDER + 1), lambda k: us.occupation_polynomials(STAT, k)),
    "conjugate_sequence": (past(ORDER + 1), lambda k: us.conjugate_sequence(DELTA, k)),
    "associated_sequence": (past(ORDER + 1), lambda k: us.associated_sequence(DELTA, k)),
    "sheffer_sequence": (past(ORDER + 1), lambda k: us.sheffer_sequence(UNIT, DELTA, k)),
    "conjugate_sheffer_sequence": (
        past(ORDER + 1), lambda k: us.conjugate_sheffer_sequence(UNIT, DELTA, k)),
    "connection_coefficients": (
        past(ORDER + 1), lambda k: us.connection_coefficients(DELTA, DELTA, k)),
    "a_coefficients": (past(ORDER), lambda k: us.a_coefficients(PHI, k)),
    "TruncatedSeries.agrees_with": (
        Outside((ORDER + 1, -1), hs.integers(ORDER + 1, 99) | negative.draw),
        lambda k: SERIES.agrees_with(SERIES, k)),
    # negative orders
    "zero": (negative, lambda n: us.zero(n)),
    "one": (negative, lambda n: us.one(n)),
    "identity": (negative, lambda n: us.identity(n)),
    "powers": (negative, lambda n: us.powers(SERIES, n)),
    "truncate": (negative, lambda n: SERIES.truncate(n)),
    "PhiSeries.from_t-order": (negative, lambda n: us.PhiSeries.from_t([1], order=n)),
    "haldane_wu_W-n": (negative, lambda n: us.haldane_wu_W(3, n, 0)),
    "group_compose_m": (negative, lambda m: us.group_compose_m(STAT, STAT, m)),
    "gentile_statistics": (hs.integers(-40, 0), lambda n: us.gentile_statistics(2, n)),
    # a quantity name with an order at or just below 0, where a derived or
    # extra quantity that gains back the orders it loses could still answer
    "CatalogEntry.quantity": (
        requests([*catalog.DERIVED_QUANTITIES, "Y"]),
        lambda request: catalog.get("mott").quantity(*request)),
    "CatalogEntry.quantity-extra": (
        requests(sorted(catalog.get("averaged-as-3").extra_quantities)),
        lambda request: catalog.get("averaged-as-3").quantity(*request)),
    # empty lists
    "TruncatedSeries-empty": (hs.just([]), lambda e: us.TruncatedSeries(e)),
    "from_cluster-empty": (hs.just([]), lambda e: us.from_cluster(e)),
    "from_occupation-empty": (hs.just([]), lambda e: us.from_occupation(e)),
    "PolynomialSequence-empty": (hs.just([]), lambda e: us.PolynomialSequence(e)),
    "convolution_holds-empty": (hs.integers(-3, 3), lambda k: us.convolution_holds([], 1, 2, k)),
    "max_entropy_distribution-empty": (
        floats, lambda a: us.max_entropy_distribution(STAT, [], a, 0.0)),
    "maxent_solve-empty": (floats, lambda target: us.maxent_solve(STAT, [], target)),
    # inexact rationals
    "as_rational-float": (floats, lambda x: us.as_rational(x)),
    "evaluate-float": (floats, lambda x: us.evaluate(SERIES, x)),
    "TruncatedSeries-float": (floats, lambda x: us.TruncatedSeries([0, 1, x])),
}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=hs.data())
def test_out_of_domain_arguments_raise_value_or_type_errors(name, data):
    strategy, call = CASES[name]
    argument = data.draw(strategy.draw if isinstance(strategy, Outside) else strategy)
    with pytest.raises((ValueError, TypeError)):
        call(argument)


EDGES = [(name, edge) for name, (strategy, _) in sorted(CASES.items())
         if isinstance(strategy, Outside) for edge in strategy.edges]


@pytest.mark.parametrize("name, edge", EDGES)
def test_the_edges_of_each_domain_raise_value_or_type_errors(name, edge):
    with pytest.raises((ValueError, TypeError)):
        CASES[name][1](edge)

