"""Integer-sequence cross-checks, offline-first.

Offline mode compares against reference terms embedded in the fixture
file; fetch mode performs a single HTTP GET of the b-file at the
canonical URL (https://oeis.org/Axxxxxx/bxxxxxx.txt) and parses
whitespace-separated "index value" lines, ignoring '#' comments.  A
network failure falls back to the offline terms with a warning.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from . import catalog as cat
from .series import as_rational

B_FILE_URL = "https://oeis.org/{sid}/b{digits}.txt"

_ID_RE = re.compile(r"^A(\d{6,7})$")


class SequenceCheck(NamedTuple):
    entry: str
    quantity: str
    sequence: str
    matching_prefix: int
    min_prefix: int
    passed: bool
    source: str  # "offline" or "fetch"
    computed: list[int]
    reference: list[int]


def parse_b_file(text: str) -> list[int]:
    """Parse "index value" lines of an OEIS b-file."""
    terms = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) < 2:
            raise ValueError(f"b-file line {lineno} is not 'index value': {line!r}")
        try:
            terms.append(int(parts[1]))
        except ValueError:
            raise ValueError(
                f"b-file line {lineno} has a non-integer value: {line!r}"
            ) from None
    return terms


def fetch_sequence(oeis_id: str, timeout: float = 10.0) -> list[int]:
    m = _ID_RE.match(oeis_id)
    if not m:
        raise ValueError(f"not an OEIS id: {oeis_id!r}")
    url = B_FILE_URL.format(sid=oeis_id, digits=m.group(1))
    import urllib.request  # only fetching needs it; it is slow to import

    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return parse_b_file(resp.read().decode("utf-8", errors="replace"))


def integer_sequence(fixture: cat.Fixture) -> list[int]:
    """Apply the fixture's documented transform to produce the integer
    sequence compared against its OEIS reference."""
    tf = fixture.transform
    start = tf.get("start", 0)
    stride = tf.get("stride", 1)
    sign = tf.get("sign", "none")
    scale = tf.get("scale", "none")
    geometric = as_rational(tf.get("geometric", 1))
    nums, den = fixture.series._nums, fixture.series._den
    out = []
    gp, gq = 1, 1  # geometric ** j, for the j-th term taken
    for k in range(start, len(nums), stride):
        if scale == "factorial":
            num, d = nums[k] * factorial(k), den
        else:
            num, d = nums[k] * gp, den * gq
        if sign == "abs":
            num = abs(num)
        value, rest = divmod(num, d)
        if rest:
            raise cat.CatalogError(
                f"fixture {fixture.entry}/{fixture.quantity}: transform did not "
                f"produce an integer at index {k} ({Fraction(num, d)})"
            )
        out.append(value)
        gp *= geometric.numerator
        gq *= geometric.denominator
    return out


def matching_prefix(computed: list[int], reference: list[int]) -> int:
    n = 0
    for a, b in zip(computed, reference):
        if a != b:
            break
        n += 1
    return n


def check_fixture(fixture: cat.Fixture, fetch: bool = False) -> SequenceCheck:
    """Compare a fixture's transformed coefficients against its sequence."""
    if not fixture.oeis:
        raise ValueError(
            f"fixture {fixture.entry}/{fixture.quantity} has no sequence reference"
        )
    source = "offline"
    reference = cat.offline_sequence(fixture.oeis)
    if fetch:
        try:
            reference = fetch_sequence(fixture.oeis)
            source = "fetch"
        except OSError as exc:  # URLError is an OSError
            # network trouble only; a b-file parse failure propagates
            print(
                f"warning: could not fetch {fixture.oeis} ({exc}); "
                "falling back to embedded terms",
                file=sys.stderr,
            )
    computed = integer_sequence(fixture)
    offset = int(fixture.transform.get("seq_offset", 0))
    reference = reference[offset : offset + len(computed)]
    absolute = fixture.transform.get("sign") == "abs"
    prefix = matching_prefix(computed, [abs(b) if absolute else b for b in reference])
    return SequenceCheck(
        entry=fixture.entry,
        quantity=fixture.quantity,
        sequence=fixture.oeis,
        matching_prefix=prefix,
        min_prefix=fixture.min_prefix,
        passed=prefix >= max(fixture.min_prefix, 1),
        source=source,
        computed=computed,
        reference=reference,
    )


def check_entry_quantity(
    entry: str, quantity: str, oeis_id: str | None = None, fetch: bool = False
) -> SequenceCheck:
    """Find the fixture for (entry, quantity) and run the sequence check."""
    for fixture in cat.fixtures(entry):
        if fixture.quantity == quantity and fixture.oeis:
            if oeis_id is not None and fixture.oeis != oeis_id:
                raise ValueError(
                    f"fixture for {entry}/{quantity} references {fixture.oeis}, "
                    f"not {oeis_id}"
                )
            return check_fixture(fixture, fetch=fetch)
    raise ValueError(f"no sequence-linked fixture for {entry}/{quantity}")
