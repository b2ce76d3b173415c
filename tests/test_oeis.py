"""Integer-sequence client: b-file parsing and prefix matching."""

import io
import urllib.error
import urllib.request

import pytest

from umbral_stats import catalog as cat
from umbral_stats import oeis


class TestBFileParsing:
    def test_parses_index_value_lines(self):
        text = "# comment\n0 1\n1 1\n2 2\n3 5\n"
        assert oeis.parse_b_file(text) == [1, 1, 2, 5]

    def test_skips_blank_lines(self):
        assert oeis.parse_b_file("\n1 7\n\n2 9\n") == [7, 9]

    def test_error_names_offending_line(self):
        with pytest.raises(ValueError, match="line 2"):
            oeis.parse_b_file("1 2\nbogus\n")
        with pytest.raises(ValueError, match="non-integer"):
            oeis.parse_b_file("1 x\n")

    def test_rejects_malformed_id(self):
        with pytest.raises(ValueError, match="not an OEIS id"):
            oeis.fetch_sequence("108")


def linked(oeis_id: str, coeffs: list, transform: dict) -> cat.Fixture:
    """A sequence-linked record of the fixtures file's form."""
    return cat.Fixture.from_record({
        "entry": "lah", "quantity": "phi", "coeffs": coeffs, "provenance": "test",
        "oeis": oeis_id, "transform": transform, "min_prefix": len(coeffs),
    })


class TestPrefixMatching:
    def test_plain_match(self):
        assert oeis.matching_prefix([1, 2, 3], [1, 2, 3, 4]) == 3

    def test_stops_at_mismatch(self):
        assert oeis.matching_prefix([1, 2, 9], [1, 2, 3]) == 2

    def test_absolute_comparison(self):
        # A002420 begins 1, -2, -2, -4, -10: compared unsigned, reported signed
        check = oeis.check_fixture(linked("A002420", [1, -2, 2, 4, -10], {"sign": "abs"}))
        assert check.computed == [1, 2, 2, 4, 10]
        assert check.reference == [1, -2, -2, -4, -10]
        assert check.matching_prefix == 5 and check.passed
        check = oeis.check_fixture(linked("A002420", [1, -2, 2, 4, -10], {}))
        assert check.matching_prefix == 2 and not check.passed

    def test_reference_offset(self):
        # A000108 from its second term: 1, 2, 5, 14
        check = oeis.check_fixture(linked("A000108", [1, 2, 5, 14], {"seq_offset": 1}))
        assert check.reference == check.computed == [1, 2, 5, 14]
        assert check.matching_prefix == 4 and check.passed
        check = oeis.check_fixture(linked("A000108", [1, 2, 5, 14], {}))
        assert check.reference == [1, 1, 2, 5]
        assert check.matching_prefix == 1 and not check.passed


class TestFixtureChecks:
    def test_offline_check_passes(self):
        check = oeis.check_entry_quantity("mitt" + "ag-leffler", "X_of_w")
        assert check.passed and check.source == "offline"
        assert check.sequence == "A000108"

    def test_network_failure_falls_back_to_embedded_terms(self, monkeypatch, capsys):
        def unreachable(oeis_id):
            raise urllib.error.URLError("unreachable")

        monkeypatch.setattr(oeis, "fetch_sequence", unreachable)
        check = oeis.check_entry_quantity("lah", "X_of_w", fetch=True)
        assert check.passed and check.source == "offline"
        assert "falling back to embedded terms" in capsys.readouterr().err

    def test_fetched_b_file_is_the_reference(self, monkeypatch):
        # the b-file is served in process; nothing reaches the network
        terms = cat.offline_sequence("A000108")
        b_file = "# Catalan numbers\n" + "".join(f"{n} {a}\n" for n, a in enumerate(terms))
        urls = []

        def urlopen(url, timeout):
            urls.append(url)
            return io.BytesIO(b_file.encode())

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        check = oeis.check_entry_quantity("lah", "X_of_w", "A000108", fetch=True)
        assert urls == ["https://oeis.org/A000108/b000108.txt"]
        assert check.passed and check.source == "fetch"
        assert check.reference == check.computed

    def test_explicit_mismatched_id_rejected(self):
        with pytest.raises(ValueError, match="references"):
            oeis.check_entry_quantity("mott", "Y", "A000108")

    def test_no_sequence_reference(self):
        (fixture,) = [f for f in cat.fixtures("gould") if f.quantity == "F"]
        with pytest.raises(ValueError, match="no sequence reference"):
            oeis.check_fixture(fixture)

    def test_unknown_embedded_sequence(self):
        with pytest.raises(cat.CatalogError, match="no embedded terms"):
            cat.offline_sequence("A999999")
