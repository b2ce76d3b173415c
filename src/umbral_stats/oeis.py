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
from typing import NamedTuple

from . import catalog as cat

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


def matching_prefix(
    computed: list[int], reference: list[int], absolute: bool, seq_offset: int = 0
) -> int:
    ref = reference[seq_offset:]
    n = 0
    for a, b in zip(computed, ref):
        if absolute:
            a, b = abs(a), abs(b)
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
    computed = fixture.integer_sequence()
    absolute = fixture.transform.get("sign") == "abs"
    offset = int(fixture.transform.get("seq_offset", 0))
    prefix = matching_prefix(computed, reference, absolute, offset)
    return SequenceCheck(
        entry=fixture.entry,
        quantity=fixture.quantity,
        sequence=fixture.oeis,
        matching_prefix=prefix,
        min_prefix=fixture.min_prefix,
        passed=prefix >= max(fixture.min_prefix, 1),
        source=source,
        computed=computed,
        reference=reference[offset : offset + len(computed)],
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
