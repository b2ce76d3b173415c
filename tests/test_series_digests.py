"""Digests of every series kernel and helper on seeded inputs.

Each operation runs on one fixed, seeded set of inputs at orders 0-24:
zero series, integer series (least common denominator 1), small
fractions, 64-bit numerators over large prime denominators, sparse
series with runs of zeros, and the large-lcd weights of the abel
family, (-k)^(k-1)/k!.  Reciprocal and division also get negative and
fractional constant terms, inversion negative slopes.  The tests compare
one SHA-256 digest per operation of all its outputs, written as the CLI
writes series ("p/q" strings), so a change to how series are stored or
computed that alters any coefficient or order fails here.
"""

import hashlib
import json
import random
from fractions import Fraction as F
from math import factorial

import pytest

from umbral_stats import deformed_entropy as de
from umbral_stats import series as fps
from umbral_stats import statistics as st
from umbral_stats.series import LogSeries, TruncatedSeries

SEED = 17
ORDERS = range(25)
LARGE_DENOMINATORS = (2**61 - 1, 2**31 - 1, 10**9 + 7, 2**64)
SCALARS = (F(0), F(-1), F(7, 3), F(-(2**61 - 1), 8))
POINTS = (F(0), F(-1), F(1, 2), F(3, 2**31 - 1), F(-50, 7))
CONSTANTS = (F(1), F(-1), F(1, 2), F(-5, 3), F(3, 2**64))
SLOPES = (F(1), F(-1), F(1, 2), F(-7, 3))

# digest(outputs()[op]) for every operation, as computed when written
DIGESTS = {
    "add": "bd8125a8d46945260a8e17e96e3d77285e15ced9784053105fcbda573c9a554e",
    "compose": "3b72713a583770ebec1887f7ad80378c1e17f1d9901ca7846e994646fbd5fceb",
    "compose-outer": "705ae9f9b65cc17060066b2d79ca4e3fe5c94e3d855f3bba8d6e9ab8669ec501",
    "derivative": "a89fa032cf9f231df1a7419188f0df74ead7e1e7d1ac67ef091a30713ba11d98",
    "divide": "20cb3c2a6fb7e5d706d8c7d3a821bc282508cd646e5c3057bea587d04029128b",
    "equal": "76278b6d60226074deef44dbb1b6318716a6f7bc7797e684c8d359954295324d",
    "evaluate": "bfa5b5fe33917fc1a2830975bc1808783585c9bbfe5ec07f102bcded86bf89be",
    "exp_series": "a8f0f2701924c0046bd7d65ebbf19e123b151fe7b335ac5fd88c771aeb8d086c",
    "from_cluster": "e19affe662477a0700d277a18b2d527b47750b66db7874483f6d9de5172e1885",
    "from_weight": "3fc4e3e54148ecbaa51f2c81b167814351782772e31cb4cf011c4d66e7bac5aa",
    "h0_plain": "85e3fc8e320c957382791f83d76cccc9df8cddb95daca5eaccfd25eee1e5c8f6",
    "integrate_extend": "321fb0d4ad3747cc4f6a5d4542dc8709ad208d7bb8b453478c7d5bf45b9a4560",
    "lagrange_invert": "dd512b5f0a680f19aac6c9b7d2dfafa114abc961fb540bc4c885c5582907ae6e",
    "ln_phi": "af54eebedb8cdf059c993b14a58efb62fa2e67aafd98ad9fe7952f9c587ba6df",
    "log_series": "9b65b1217b44ba69af29f4b9437f10d15df722683f170c1f3f1460057c1d6c50",
    "logseries_compose": "395bdcd96b3b2d933aa16a2b6348c1332a075388b911de39c6154896cabcc99b",
    "logseries_derivative": "6d184f50b003814e206ce6c6ac4bd593db328f61e3fbfd26a4c63bb8c3ca15e7",
    "mul": "090d9296f9ac8ac4e07678032bb69b94671083231837be7e1eaf4b77beb7fe09",
    "mul-same-order": "4fb2eba6ffe09bddaab7e601d5e742fc3c1c82db847b4ddb29c3a82a869089ff",
    "neg": "d12e850bf08ccf0f76dab3a57ddf68df11979fb86b76ee86f6182f39e2ca9d44",
    "pow_rational": "5f16e61ad3808ae93fcdbe1c1d380eb85a151a457ca2839ba1faf171a5449a8b",
    "powers": "02b94b554c0637b3523965416a86fbbbeba83bf2ea26a804a4b41265af38f8da",
    "powers-delta": "b3c0bd09fc16fe39b4a9cb7fb57bf486ac7445c9f94123d92b677673adf1efab",
    "reciprocal": "1d013b2f672b2be85b6334257395eeb726242890c5506c81e1de3030bcf81f5e",
    "scale": "ba55098cc604aefa728c52cf115c981de48242615890bdec90ea1015e705fc3d",
    "shift_down": "38d151f272d114e73ddf787a39d59b9eb9b3e6ac14b2dc6be48595686e5212e2",
    "shift_up": "047d8b45685f9c9c322e5c7b325ed6942f574baaf3b5dd92de8d48343e86d086",
    "statistics-w": "ae5639102152226ea8f942db0533ce8d263566d9f5d4e3d72a8c45ac986874cb",
    "sub": "0fe300c90a17adced943cfb2c4eb2ef6543a573347cb87c2227c3bbee42deedd",
    "truncate": "27b1a4868c2e03c64430d7b54dfd418418d791038b08e637cb5d43eb12bb2b3b",
    "twist": "6c72a8582c8d5e703c5d375333c31687ab154a07eef2e97db3ff2caacc51e6e0",
    "x_from_phi": "401b4b5c273f6f391ff15ca670f57e1ca277d526a1e63e9382824334ee2382db",
}


def _coefficients(rng: random.Random, kind: str, n: int) -> list[F]:
    if kind == "zero":
        return [F(0)] * (n + 1)
    if kind == "int":
        return [F(rng.randint(-9, 9)) for _ in range(n + 1)]
    if kind == "small":
        return [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 11, 13))) for _ in range(n + 1)]
    if kind == "large":
        return [F(rng.randint(-(2**64), 2**64), rng.choice(LARGE_DENOMINATORS))
                for _ in range(n + 1)]
    if kind == "sparse":
        return [F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.3 else F(0)
                for _ in range(n + 1)]
    if kind == "abel":
        return [F(0)] + [F((-k) ** (k - 1), factorial(k)) for k in range(1, n + 1)]
    raise ValueError(kind)


KINDS = ("zero", "int", "small", "large", "sparse", "abel")


def _with(cs: list[F], *head: F) -> TruncatedSeries:
    """The series of ``cs`` with its first coefficients replaced by ``head``."""
    return TruncatedSeries(list(head) + cs[len(head):])


def inputs() -> list[tuple[int, str, list[F], list[F]]]:
    """(order, kind, coefficients, second coefficients of a random order <= 24)."""
    rng = random.Random(SEED)
    out = []
    for n in ORDERS:
        for kind in KINDS:
            m = rng.randint(0, 24)
            out.append((n, kind, _coefficients(rng, kind, n), _coefficients(rng, kind, m)))
    return out


def to_json(value):
    if isinstance(value, TruncatedSeries):
        return fps.series_to_json(value)
    if isinstance(value, LogSeries):
        return fps.logseries_to_json(value)
    if isinstance(value, F):
        return str(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, list):
        return [to_json(v) for v in value]
    raise TypeError(f"no digest encoding for {type(value).__name__}")


def outputs() -> dict[str, list]:
    """Every operation's outputs on :func:`inputs`, keyed by operation."""
    out: dict[str, list] = {}

    def record(op: str, value) -> None:
        out.setdefault(op, []).append(to_json(value))

    for i, (n, kind, cs, other) in enumerate(inputs()):
        a, b = TruncatedSeries(cs), TruncatedSeries(other)
        c = CONSTANTS[i % len(CONSTANTS)]
        slope = SLOPES[i % len(SLOPES)]
        unit = _with(cs, F(1))
        record("add", fps.add(a, b))
        record("sub", fps.sub(a, b))
        record("mul", fps.mul(a, b))
        record("mul-same-order", fps.mul(a, TruncatedSeries(cs[::-1])))
        record("scale", [fps.scale(a, s) for s in SCALARS])
        record("neg", -a)
        record("truncate", [a.truncate(k) for k in range(n + 1)])
        record("shift_up", fps.shift_up(a))
        record("integrate_extend", fps.integrate_extend(a))
        record("evaluate", [fps.evaluate(a, x) for x in POINTS])
        record("reciprocal", fps.reciprocal(_with(cs, c)))
        record("divide", fps.divide(a, _with(other, -c)))
        record("log_series", fps.log_series(unit))
        record("pow_rational", fps.pow_rational(unit, F(-1, 3)))
        record("powers", fps.powers(a, min(n, 8), None if i % 2 else TruncatedSeries(cs[::-1])))
        record("equal", [a == s for s in (TruncatedSeries(cs), b)])
        if n >= 1:
            delta = _with(cs, F(0))
            record("derivative", fps.derivative(a))
            record("shift_down", fps.shift_down(delta))
            record("exp_series", fps.exp_series(delta))
            record("compose", fps.compose(b, delta))
            record("compose-outer", fps.compose(a, _with(other, F(0), slope)))
            record("lagrange_invert", fps.lagrange_invert(_with(cs, F(0), slope)))
            record("powers-delta", fps.powers(_with(cs, F(0), slope), n))
            record("twist", [st._twist(_with(cs, F(0), F(1)), m) for m in range(4)])
            stat = st.Statistics(_with(cs, F(0), F(1)))
            record("statistics-w", stat.w)
            record("from_weight", st.from_weight(_with(cs, F(0), F(1))).F)
            record("from_cluster", st.from_cluster([F(1)] + other[2:]).F)
            phi = de.PhiSeries(_with(cs, F(0), F(1)))
            record("x_from_phi", de.x_from_phi(phi))
            record("ln_phi", de._ln_phi(unit))
            record("h0_plain", de._h0_plain(unit))
            u = _with(cs, F(0), F(1))
            ls = LogSeries(a, _with(cs[::-1], F(0)))
            record("logseries_derivative", fps.logseries_derivative(ls))
            record("logseries_compose", fps.logseries_compose(ls, u))
    return out


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def records():
    return outputs()


def test_digests_cover_every_operation(records):
    assert sorted(records) == sorted(DIGESTS)


@pytest.mark.parametrize("op", sorted(DIGESTS))
def test_operation_matches_digest(op, records):
    assert digest(records[op]) == DIGESTS[op]
