"""Mutation check: every verdict and the kernels behind it must be able to fail.

Each mutant below is one exact string replacement in one file of
``src/umbral_stats``; the string must occur exactly once in that file, so a
mutant whose code has moved stops the run instead of silently testing
nothing.  For each mutant the runner copies ``src/`` and ``tests/`` into a
temporary directory, applies the replacement there and runs the tier-1
tests on the copy with ``-x``.  A mutant is killed when the tests fail.
The unmutated copy is run first and must pass.  Nothing is written inside
the checkout.

Run from anywhere, with pytest and hypothesis installed::

    python tests/mutants.py

It prints one line per mutant, killed or survived, with the seconds it
took, and exits nonzero if any mutant survives.  Pytest does not collect
this file.  Mutation analysis: DeMillo, Lipton & Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/umbral_stats
    old: str
    new: str


MUTANTS = (
    # -- every verdict forced to "holds" --
    Mutant("entropy_gradient_holds-true", "deformed_entropy.py",
           "    return not any(diff._nums[1 : n + 1])",
           "    return True"),
    Mutant("main_theorem_holds-true", "deformed_entropy.py",
           "    return st.entropy(stat).agrees_with(rhs, rhs.order)",
           "    return True"),
    Mutant("convolution_holds-true", "statistics.py",
           "    return W[k](x + y) == sum(W[i](x) * W[k - i](y) for i in range(k + 1))",
           "    return True"),
    Mutant("occupation_recursion_holds-true", "statistics.py",
           "    return convolution_holds(occupation_polynomials(stat, k), n1, n2, k)",
           "    return True"),
    Mutant("binomial_identity_holds-true", "umbral.py",
           "    return lhs == rhs",
           "    return True"),
    Mutant("_first_convolution_failure-none", "umbral.py",
           "    return least if least <= N else None",
           "    return None"),
    Mutant("first_convolution_failure-none", "umbral.py",
           "    return _first_convolution_failure([(p._nums, p._den) for p in W], [1] * len(W))",
           "    return None"),
    Mutant("first_binomial_failure-none", "umbral.py",
           "    return _first_convolution_failure(\n"
           "        [(p._nums, p._den) for p in seq], [factorial(n) for n in range(len(seq))]\n"
           "    )",
           "    return None"),
    Mutant("Fixture.check-series-true", "catalog.py",
           "        return value == self.series",
           "        return True"),
    Mutant("Fixture.check-gamma-true", "catalog.py",
           "            return tuple(map(tuple, value.coefficient_matrix())) == self.coeffs",
           "            return True"),
    Mutant("TruncatedSeries.agrees_with-true", "series.py",
           "        return all(x * db == y * da for x, y in zip(self._nums[: n + 1], other._nums[: n + 1]))",
           "        return True"),
    Mutant("TruncatedSeries.agrees_with-ignores-through", "series.py",
           "        n = min(self.order, other.order) if through is None else through\n"
           "        if n > min(self.order, other.order):",
           "        n = min(self.order, other.order)\n"
           "        if n > min(self.order, other.order):"),
    Mutant("_CheckedSeries.agrees_with-true", "series.py",
           "        return self.series.agrees_with(other.series, through)",
           "        return True"),
    Mutant("LogSeries.agrees_with-true", "series.py",
           "        return self.plain.agrees_with(other.plain, n) and self.logpart.agrees_with(\n"
           "            other.logpart, n\n"
           "        )",
           "        return True"),
    Mutant("EntropyDensity.agrees_with-true", "deformed_entropy.py",
           "        return through <= min(self.order, other.order) and super().agrees_with(\n"
           "            other, through\n"
           "        )",
           "        return True"),
    Mutant("ShefferPair.agrees_with-true", "umbral.py",
           "        return self.g.series.agrees_with(other.g.series, through) and (\n"
           "            self.f.series.agrees_with(other.f.series, through)\n"
           "        )",
           "        return True"),
    # the duality suite's m=0 reduction compares through the twist
    Mutant("group_compose_m-skips-the-twist-at-m-0", "statistics.py",
           "        raise ValueError(\"twist exponent must be non-negative\")\n",
           "        raise ValueError(\"twist exponent must be non-negative\")\n"
           "    if m == 0:\n"
           "        return group_compose(v, w)\n"),
    # -- the fixtures and their sequence links --
    Mutant("Fixture.check-asks-one-order-short", "catalog.py",
           "quantity(self.quantity, len(self.coeffs) - 1, **self.params)",
           "quantity(self.quantity, len(self.coeffs) - 2, **self.params)"),
    Mutant("check_fixture-ignores-seq_offset", "oeis.py",
           "    offset = int(fixture.transform.get(\"seq_offset\", 0))",
           "    offset = 0"),
    Mutant("check_fixture-compares-the-signed-reference", "oeis.py",
           "matching_prefix(computed, [abs(b) if absolute else b for b in reference])",
           "matching_prefix(computed, reference)"),
    # -- the kernels --
    Mutant("truncate-off-by-one", "series.py",
           "        return _canonical(self._nums[: order + 1], self._den)",
           "        return _canonical(self._nums[: order + 2], self._den)"),
    Mutant("compose-table-limit-off-by-one", "series.py",
           "    last = next((k for k in range(n, 0, -1) if o[k]), 0)",
           "    last = next((k for k in range(n - 1, 0, -1) if o[k]), 0)"),
    Mutant("compose-horner-drops-d", "series.py",
           "        out = [x * d + c * r for x, r in zip(out, row)]",
           "        out = [x + c * r for x, r in zip(out, row)]"),
    # right when the inner denominator is 1 or the outer series has full degree
    Mutant("compose-divides-by-d-to-the-order", "series.py",
           "    return _canonical(out, outer._den * d**last)",
           "    return _canonical(out, outer._den * d**n)"),
    # the sign still moves to the numerators; only the gcd is skipped
    Mutant("_reduced-skips-reduction", "series.py",
           "    g = gcd(den, *nums)",
           "    g = 1"),
    Mutant("lagrange_invert-sign-flip", "series.py",
           "        return d * ((m == 1) * Q - acc), Q * A1**m",
           "        return d * ((m == 1) * Q + acc), Q * A1**m"),
    Mutant("divide-sign-flip", "series.py",
           "        return A[m] * db * Q - da * acc, da * B[0] * Q",
           "        return A[m] * db * Q + da * acc, da * B[0] * Q"),
    # the one triangular-recurrence driver behind exp, divide, inversion and X
    Mutant("_solve-skips-rescaling", "series.py",
           "            Y = [y * f for y in Y]\n"
           "            Q *= f",
           "            Q *= f"),
    # the values stay right; the denominator may be left negative
    Mutant("_solve-keeps-negative-den", "series.py",
           "        if den < 0:\n"
           "            g = -g\n"
           "        num, den = num // g, den // g",
           "        num, den = num // g, den // g"),
    Mutant("exp_series-off-by-one", "series.py",
           "        for k in range(m):\n"
           "            if B[k]:\n"
           "                acc += B[k] * Y[m - 1 - k]",
           "        for k in range(m - 1):\n"
           "            if B[k]:\n"
           "                acc += B[k] * Y[m - 1 - k]"),
    # log 1 = 1 at order 0, where no derivative exists
    Mutant("log_series-order-0-is-one", "series.py",
           "if a.order else constant(0)",
           "if a.order else one(0)"),
    Mutant("x_from_phi-sign-flip", "deformed_entropy.py",
           "        return -acc, (M - 1) * d * Q",
           "        return acc, (M - 1) * d * Q"),
    # -- what series and polynomials share, in series._Exact --
    Mutant("integrate_extend-off-by-one", "series.py",
           "        L = lcm(*range(1, len(nums) + 1))",
           "        L = lcm(*range(1, len(nums)))"),
    Mutant("_antiderivative-index-from-2", "series.py",
           "for k, c in enumerate(nums, 1)]",
           "for k, c in enumerate(nums, 2)]"),
    Mutant("scale-drops-denominator", "series.py",
           "        return self._make([p * x for x in self._nums], self._den * c.denominator)",
           "        return self._make([p * x for x in self._nums], self._den)"),
    # one trailing zero is left wherever there were any
    Mutant("_polynomial-strips-one-zero-short", "umbral.py",
           "    while k and not nums[k - 1]:\n"
           "        k -= 1",
           "    while k > 1 and not nums[k - 1] and not nums[k - 2]:\n"
           "        k -= 1"),
    # -- input checks --
    # the CLI no longer reaches this check: an empty --energies field is
    # malformed; maxent_solve reaches it through max_entropy_distribution
    Mutant("max_entropy_distribution-accepts-no-level", "deformed_entropy.py",
           "    if not energies:\n"
           "        raise ValueError(\"maxent needs at least one energy level\")\n",
           ""),
    Mutant("as_rational-lets-a-zero-denominator-through", "series.py",
           "        try:\n"
           "            return Fraction(value)\n"
           "        except ZeroDivisionError:\n"
           "            raise ValueError(f\"zero denominator in {value!r}\") from None\n",
           "        return Fraction(value)\n"),
    Mutant("binomial_identity_holds-accepts-any-degree", "umbral.py",
           "    if not 0 <= n < len(seq):\n",
           "    if False:\n"),
    Mutant("convolution_holds-accepts-any-degree", "statistics.py",
           "    if not 0 <= k < len(W):\n",
           "    if False:\n"),
    # "1" + "2" is the point 12; "1/2" + "1/3" is no rational
    Mutant("convolution_holds-adds-its-points-uncoerced", "statistics.py",
           "    x, y = as_rational(x), as_rational(y)\n",
           ""),
    # a negative degree read from a kept sequence returned [] or a wrong polynomial
    Mutant("_conjugate_through-reads-a-negative-degree-from-the-memo", "statistics.py",
           "    if seq is None or not 0 <= n < len(seq):",
           "    if seq is None or len(seq) <= n:"),
    Mutant("series_from_json-reads-its-fields-unchecked", "series.py",
           "    try:\n"
           "        coeffs, order = data[\"coeffs\"], data[\"order\"]\n"
           "    except KeyError as missing:\n"
           "        raise ValueError(f\"series record has no {missing} field\") from None\n",
           "    coeffs, order = data[\"coeffs\"], data[\"order\"]\n"),
    Mutant("CatalogEntry._key-accepts-an-order-below-1", "catalog.py",
           "        if order < 1:\n"
           "            raise ValueError(f\"order must be at least 1, got {order}\")\n",
           ""),
    Mutant("CatalogEntry.quantity-keys-without-the-order-check", "catalog.py",
           "_cached_quantity(self.name, name, order, self._key(order, params))",
           "_cached_quantity(self.name, name, order, "
           "tuple(sorted(self.resolve_params(params).items())))"),
    Mutant("_cached_build-builds-an-off-space-entry", "catalog.py",
           "    if not entry.in_space:\n"
           "        raise CatalogError(\n"
           "            f\"entry {name!r} is not in the normalized statistics space \"\n"
           "            f\"({entry.notes or 'weight function not normalized'}); \"\n"
           "            f\"it supports only {sorted(entry.extra_quantities)}\"\n"
           "        )\n",
           ""),
    # the same sequence, built through a prefactor of 1
    Mutant("conjugate_sheffer_sequence-builds-a-prefactor-for-g-one", "umbral.py",
           "    is_one = s._den == 1 and s._nums[0] == 1 and not any(s._nums[1:])",
           "    is_one = False"),
    Mutant("shift_down-accepts-a-constant-term", "series.py",
           "    if a._nums[0]:\n"
           "        raise ValueError(\"cannot divide by X: nonzero constant term\")\n",
           ""),
    Mutant("DeltaSeries-accepts-a-zero-linear-term", "umbral.py",
           "        if series.order < 1 or not series._nums[1]:",
           "        if series.order < 1:"),
    # -- the CLI's comma lists and their echo --
    Mutant("parse_rationals-skips-empty-fields", "cli.py",
           "    return [parse_rational(part) for part in text.split(\",\")]",
           "    return [parse_rational(part) for part in text.split(\",\") if part]"),
    Mutant("maxent-skips-empty-levels", "cli.py",
           "    energies = [parse_float(e) for e in args.energies.split(\",\")]",
           "    energies = [parse_float(e) for e in args.energies.split(\",\") if e]"),
    Mutant("expand-echoes-t-as-a-python-list", "cli.py",
           "{k: \",\".join(map(str, v)) if k == \"t\" else str(v)",
           "{k: str(v)"),
    # UMBRAL_ORDER read as an int, past --order's own check
    Mutant("UMBRAL_ORDER-bypasses-order_arg", "cli.py",
           "    order = os.environ.get(\"UMBRAL_ORDER\") or str(fps.DEFAULT_ORDER)",
           "    order = int(os.environ.get(\"UMBRAL_ORDER\") or fps.DEFAULT_ORDER)"),
)


def mutated(mutant: Mutant, src: Path) -> str:
    """The mutant's file under ``src`` with its string replaced; the string
    must occur there exactly once."""
    text = (src / "umbral_stats" / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: its string occurs {count} times "
                         f"in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def tier1_fails(mutant: Mutant | None) -> bool:
    """Run tier-1 with -x on a fresh copy, mutated by ``mutant`` if given."""
    with tempfile.TemporaryDirectory(prefix="umbral-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        if mutant is not None:
            (work / "src" / "umbral_stats" / mutant.file).write_text(
                mutated(mutant, work / "src"))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        env.pop("UMBRAL_ORDER", None)
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return result.returncode != 0


def main() -> int:
    for mutant in MUTANTS:  # every string is checked before any run
        mutated(mutant, ROOT / "src")
    start = time.perf_counter()
    if tier1_fails(None):
        print("the unmutated copy fails tier-1; no mutant can be judged")
        return 2
    print(f"baseline passed {time.perf_counter() - start:6.1f} s", flush=True)
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        killed = tier1_fails(mutant)
        print(f"{'killed' if killed else 'SURVIVED':8} {time.perf_counter() - start:6.1f} s"
              f"  {mutant.name}", flush=True)
        if not killed:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
