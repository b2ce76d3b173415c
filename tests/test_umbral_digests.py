"""Digests of every umbral output and every Polynomial operation.

Each operation runs on one fixed, seeded set of inputs at degrees 0-24,
drawn as in ``test_series_digests``: zero, integer, small-fraction,
64-bit-over-large-prime, sparse and abel coefficients.  The sequence
constructors (conjugate, associated, Sheffer, conjugate-Sheffer), the
operators (``apply_operator``, ``functional``, the two shifts,
``umbral_composition``), ``connection_coefficients``,
``occupation_polynomials`` and the identity checks are pinned by one
SHA-256 digest per operation over all its outputs, written as the CLI
writes polynomials ("p/q" strings), so a change to how polynomials are
stored or computed that alters any coefficient fails here.
"""

import random
from fractions import Fraction as F

import pytest

from test_series_digests import KINDS, _coefficients, _with, digest
from umbral_stats import statistics as st
from umbral_stats.series import TruncatedSeries
from umbral_stats.umbral import (
    DeltaSeries,
    InvertibleSeries,
    Polynomial,
    PolynomialSequence,
    apply_operator,
    associated_sequence,
    binomial_identity_holds,
    conjugate_sequence,
    conjugate_sheffer_sequence,
    connection_coefficients,
    first_binomial_failure,
    first_convolution_failure,
    functional,
    poly_to_json,
    sheffer_sequence,
    sheffer_shift_next,
    umbral_composition,
    umbral_shift_next,
)

SEED = 21
DEGREES = range(25)
SCALARS = (F(0), F(-1), F(7, 3), F(-(2**61 - 1), 8))
POINTS = (F(0), F(-1), F(1, 2), F(3, 2**31 - 1), F(-50, 7))
SLOPES = (F(1), F(-1), F(1, 2), F(-7, 3))

# digest(outputs()[op]) for every operation, as computed when written
DIGESTS = {
    "add": "f39edba8ffdc59e030ae1d1e4cb5b6f1eded30626126900f3158cd4401bb0f44",
    "apply_operator": "28f5c25d9c3ffd687c04b91d77a1947fa28a2f40467ed8a1b53c1f4a176fbcd4",
    "associated_sequence": "e13b87c3af0dafc25f93d7acba4295b5ab583e7e6660a0629d702dc8f36263cb",
    "binomial_identity_holds": "c02e4747b9556cbdc65077706e03e536cd2906295e5b5bce9f6544800018e1dc",
    "coefficient_matrix": "cc8c8d9e01d80ad81b77f53b637d247d779cc6ce9a4755fdaadeea768938761b",
    "conjugate_sequence": "4322b6fee1d97e5ff9b5a933479c3e03044d73f95c55901a9200932b176065f1",
    "conjugate_sheffer_sequence": "fba44a6fe83febb423efaf2db1d068083be433874368b48aaa8a388622616d40",
    "connection_coefficients": "6ca121b7823a1502999f9c6f70744fd25628da79a9ff88d90456eae682655393",
    "construct": "17f0e6d15b3e9cd7b818b47eb458285e7207c40d9eb0d4c8212f0f094aab514e",
    "degree": "46dc40c889fbff9bdc629f14c88340ad723594e447fcdc2850a99910f98b7efc",
    "diff": "0da7c53e2d12156be1720ba23586acb305184025d90048f087a1fc8d1abc78f8",
    "equal": "2d9ff2d551667585f87c6aa8affba2a2c40fa932ea4ee791202939a1e6381235",
    "evaluate": "7ae8f3b8e2f1e83a88dc148d659484711c060fcb98c0fe92c3cb8fb9ef2c73b8",
    "first_binomial_failure": "11b5af1d72d0c0308362975bb684b4d078bd3ecfff9e5029caabb00b986e8b37",
    "first_convolution_failure": "98b1eca4b99bba23894d01045ddcefc30378a5d74dd9b7ef196e95f09c5e530f",
    "functional": "c64d06c341f86e3f3ae42b47414f53401666c4f1e1a98a2529292fbef7de7306",
    "integral": "afad2a93cbbe70a2abae4a17e161a901160db776741c3b64954212b679817661",
    "mul": "ef4d25cdb103a7505dd2ccbd00e9c4048443a3981661a0abddfb443fa47f27e5",
    "neg": "ac1ef3a2fc0e09f56624aca63824574806f66a051d7977bd98b4c5faee0a3924",
    "occupation_polynomials": "aea9cd2b0969208710c899822c91bc246d5bd56fd93b2233885812657a2b4908",
    "scale": "4bbbf2a35907b2a647e3f7adf784adfa6f47a81ef6406d7013784d29be485947",
    "sheffer_sequence": "5ea8b7bb9411a31b3ac4e6de19dc25159ca48692729322bcd0bab0bb4d370e10",
    "sheffer_shift_next": "5ae10de1124b9a0282acfc2a42387b18592ea57c38503f1cb3ae5fb0b0ad3742",
    "shift_x": "b71d3ee388e71605741bbca279b4ef261d1578561073724281312d97de66d2f5",
    "str": "984a8c7a7eb0c6a845bb68958f5c3a2d289584346dd35152629844fb15951f9b",
    "sub": "4adbe8daad552d0e646d8bbe022841f24ba3e7d2ae9cc6b204ec75f3b08f5e38",
    "umbral_composition": "6febf8848c506c0a51539e575c5d24098962b488879fb7350b02a8ff60810bfb",
    "umbral_shift_next": "3d7acef6be31b414beed2ff0078d9d9852e4e14f19b1717ef0f469a3bc2a095b",
}


def inputs() -> list[tuple[int, str, list[F], list[F]]]:
    """(degree, kind, coefficients, second coefficients of a random degree <= 24)."""
    rng = random.Random(SEED)
    out = []
    for n in DEGREES:
        for kind in KINDS:
            m = rng.randint(0, 24)
            out.append((n, kind, _coefficients(rng, kind, n), _coefficients(rng, kind, m)))
    return out


def to_json(value):
    if isinstance(value, Polynomial):
        return poly_to_json(value)
    if isinstance(value, PolynomialSequence):
        return [poly_to_json(p) for p in value]
    if isinstance(value, F):
        return str(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    raise TypeError(f"no digest encoding for {type(value).__name__}")


def _padded(cs: list[F], n: int) -> list[F]:
    """cs cut or padded with zeros to n + 1 coefficients."""
    return (cs + [F(0)] * (n + 1))[: n + 1]


def outputs() -> dict[str, list]:
    """Every operation's outputs on :func:`inputs`, keyed by operation."""
    out: dict[str, list] = {}

    def record(op: str, value) -> None:
        out.setdefault(op, []).append(to_json(value))

    for i, (n, kind, cs, other) in enumerate(inputs()):
        p, q = Polynomial(cs), Polynomial(other)
        s = SCALARS[i % len(SCALARS)]
        record("construct", [p, Polynomial([str(c) for c in cs + [F(0)] * (i % 3)])])
        record("degree", [p.degree, p.is_zero(), [p.coefficient(k) for k in range(-1, n + 2)]])
        record("str", [str(p), repr(q)])
        record("add", [p + q, q + p, p + p])
        record("sub", [p - q, q - p, p - p])
        record("neg", -p)
        record("mul", [p * q, q * p, p * p])
        record("scale", [p.scale(c) for c in SCALARS] + [p * s, s * p, p * 3, 3 * p])
        record("shift_x", p.shift_x())
        record("diff", [p.diff(), p.diff().diff()])
        record("integral", [p.integral(), q.integral()])
        record("evaluate", [p(x) for x in POINTS] + [p(3), p("-2/5")])
        record("equal", [p == Polynomial(cs), p == q, p == p.scale(2)])

        # series of order max(n, 1), sequences of degree n
        order = max(n, 1)
        base = _padded(cs, order)
        F_ = DeltaSeries(_with(base, F(0), SLOPES[i % len(SLOPES)]))
        G = DeltaSeries(_with(_padded(other, order), F(0), SLOPES[(i + 1) % len(SLOPES)]))
        g = InvertibleSeries(_with(_padded(other, order), F(1)))
        h = TruncatedSeries(_padded(other, order))
        conj = conjugate_sequence(F_, n)
        record("conjugate_sequence", conj)
        record("coefficient_matrix", conj.coefficient_matrix())
        record("associated_sequence", associated_sequence(F_, n))
        record("sheffer_sequence", sheffer_sequence(g, F_, n))
        record("conjugate_sheffer_sequence", conjugate_sheffer_sequence(g, F_, n))
        record("connection_coefficients", connection_coefficients(F_, G, n))
        record("umbral_composition", umbral_composition(conj, conjugate_sequence(G, n)))
        record("apply_operator", [apply_operator(h, p), apply_operator(h, q), apply_operator(h, conj[n])])
        record("functional", [functional(h, p), functional(h, conj[n])])
        record("umbral_shift_next", [umbral_shift_next(F_, p), umbral_shift_next(F_, conj[n])])
        record("sheffer_shift_next", [sheffer_shift_next(g, F_, p), sheffer_shift_next(g, F_, conj[n])])
        stat = st.Statistics(_with(base, F(0), F(1)))
        W = st.occupation_polynomials(stat, n)
        record("occupation_polynomials", [W, st.occupation_polynomial(stat, n)])
        # one polynomial bumped by a seeded one of no higher degree
        k = i % (n + 1)
        bumped_W = W[:k] + [W[k] + Polynomial(other[: k + 1])] + W[k + 1:]
        bumped = PolynomialSequence(
            conj.polys[:k] + (conj[k] + Polynomial(other[:k]),) + conj.polys[k + 1:]
        )
        record("first_convolution_failure", [
            first_convolution_failure(W), first_convolution_failure(conj.polys),
            first_convolution_failure(bumped_W),
        ])
        record("first_binomial_failure", [
            first_binomial_failure(conj), first_binomial_failure(PolynomialSequence(W)),
            first_binomial_failure(bumped),
        ])
        record("binomial_identity_holds", [
            binomial_identity_holds(seq, a, b, k)
            for seq in (conj, PolynomialSequence(W), bumped)
            for a, b in ((POINTS[2], POINTS[4]), (POINTS[3], 2))
            for k in range(min(n, 6) + 1)
        ])
    return out


@pytest.fixture(scope="module")
def records():
    return outputs()


def test_digests_cover_every_operation(records):
    assert sorted(records) == sorted(DIGESTS)


@pytest.mark.parametrize("op", sorted(DIGESTS))
def test_operation_matches_digest(op, records):
    assert digest(records[op]) == DIGESTS[op]
