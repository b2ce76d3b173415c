"""The benchmark's workloads: what each operation is and what it returns.

``cli-cold`` and ``identities-o16`` are the workloads of BENCHMARK.json.
``build-o48`` runs the same way but is not listed there, so that the listed
ones can run longer within an hour for a full comparison (see README.md).  Its
layers are measured by the other two at order 16; it is kept for measuring
high-order kernel work by hand.

A workload turns ``(seed, seconds)`` into a fixed list of operations
(``plan``), imports and warms what it needs (``setup``), runs one operation
through the package's public interface (``run``) and turns the result into
plain JSON (``record``) for the checks in ``checks.py``, which run in
another process.  This module imports nothing from ``umbral_stats`` at module
level, so that set-up time covers the package import, and nothing from
``oracle``, so that the references do not weigh on the measured process.

Every list is stratified: a run is made of whole rounds, each round holds
every kind of operation the same number of times, and the seed only picks
the instances and their order.  Runs with different seeds therefore do the
same mix of work.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import ceil

ORDER = 16  # the package's default truncation order
BUILD_ORDER = 48

# the in-space catalog entries (every one the package can build a Statistics for)
ENTRIES = (
    "boltzmann-gibbs", "fermi-dirac", "bose-einstein", "acharya-swamy", "gentile",
    "lah", "exponential", "abel", "gould", "gould-acharya-swamy", "gould-lambert",
    "gould-framed-vertex", "gould-catalan-curve", "mittag-leffler", "bessel", "mott",
    "dilogarithm", "averaged-as-1", "averaged-as-2", "bell-universal",
)
PARAMETERS = {
    "acharya-swamy": ("eps",),
    "gould-acharya-swamy": ("eps",),
    "averaged-as-1": ("eps",),
    "averaged-as-2": ("eps",),
    "abel": ("a",),
    "gould-lambert": ("a",),
    "gould-catalan-curve": ("a",),
    "gould-framed-vertex": ("g",),
    "gould": ("a", "b"),
}
CLASSICAL = ("bose-einstein", "fermi-dirac", "boltzmann-gibbs")


def small_rational(rng: random.Random) -> Fraction:
    """A nonzero rational of height at most 3."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def draw_params(rng: random.Random, entry: str) -> dict:
    """Seeded small-height parameters for a catalog entry ({} if it has none)."""
    if entry == "gentile":
        return {"p": rng.randint(1, 12)}
    if entry == "bell-universal":
        return {"t": (Fraction(1),) + tuple(small_rational(rng) for _ in range(3))}
    return {name: small_rational(rng) for name in PARAMETERS.get(entry, ())}


def params_key(entry: str, params: dict) -> tuple:
    return entry, tuple(sorted((k, str(v)) for k, v in params.items()))


def rounds_for(seconds: float, ops_per_second: float, per_round: int) -> int:
    return max(1, round(seconds * ops_per_second / per_round))


def strs(values) -> list[str]:
    return [str(c) for c in values]


def coeffs(series) -> list[str]:
    return strs(series.coeffs)


# -- cli-cold --------------------------------------------------------------------


def _param_args(params: dict, flag: str = "--param") -> list[str]:
    out = []
    for key, value in params.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        out += [flag, f"{key}={text}"]
    return out


# (entry, quantity, sequence): sequence-linked fixtures whose sequence has a
# closed form in oracle.SEQUENCES
OEIS_REQUESTS = (
    ("lah", "X_of_w", "A000108"),
    ("lah", "phi", "A002420"),
    ("exponential", "X_of_w", "A000169"),
    ("mittag-leffler", "X_of_w", "A000108"),
    ("mott", "w", "A001700"),
    ("mott", "F", "A000108"),
)
OTHER_QUANTITIES = ("F", "z", "w", "X_of_w", "phi", "phi_in_X", "ln_phi", "entropy")


class CliCold:
    """One fresh ``python -m umbral_stats.cli`` process per operation."""

    name = "cli-cold"
    in_process = False
    # "verify-fixtures", the slowest request, comes twice a round so that the
    # tail percentile falls inside its cluster rather than at its edge
    kinds = (
        "expand-phi_entropy", "expand-xi", "expand-other", "dual", "compose",
        "polyseq-conjugate", "polyseq-associated", "polyseq-sheffer",
        "spectral", "maxent", "oeis-check", "verify-fixtures", "verify-fixtures",
    )
    ops_per_second = 4.8

    def plan(self, seed: int, seconds: float) -> list[dict]:
        rng = random.Random(seed)
        rounds = rounds_for(seconds, self.ops_per_second, len(self.kinds))
        ops = [self._request(kind, rng) for kind in self.kinds * rounds]
        rng.shuffle(ops)
        return ops

    def _request(self, kind: str, rng: random.Random) -> dict:
        entry = rng.choice(ENTRIES)
        params = draw_params(rng, entry)
        op = {"kind": kind, "entry": entry, "params": params}
        stat = ["--stat", entry] + _param_args(params)
        if kind.startswith("expand"):
            quantity = kind[len("expand-"):]
            if quantity == "other":
                quantity = rng.choice(OTHER_QUANTITIES)
            op["quantity"] = quantity
            argv = ["expand", *stat, "--quantity", quantity]
        elif kind == "dual":
            argv = ["dual", *stat]
        elif kind == "compose":
            entry2 = rng.choice(ENTRIES)
            params2 = draw_params(rng, entry2)
            op.update(entry2=entry2, params2=params2, m=rng.randint(0, 2))
            argv = ["compose", *stat, "--stat2", entry2, *_param_args(params2, "--param2"),
                    "--m", str(op["m"])]
        elif kind.startswith("polyseq"):
            op["n"] = n = rng.randint(5, 8)
            argv = ["polyseq", *stat, "--kind", kind[len("polyseq-"):], "--n", str(n)]
            if kind == "polyseq-sheffer":
                op["g"] = g = [Fraction(1)] + [rng.choice((0, 1, -1, Fraction(1, 2))) for _ in range(n)]
                argv += ["--g-coeffs", ",".join(map(str, g))]
        elif kind == "spectral":
            op["points"] = pts = [Fraction(rng.randint(-4, 4), 10) for _ in range(3)]
            # "--points=..." because argparse takes a leading "-2/5" for an option
            argv = ["spectral", *stat, "--points=" + ",".join(map(str, pts))]
        elif kind == "maxent":
            # three levels and a target energy between the ground level and
            # the uniform mean, where the damped Newton solve converges; not
            # Fermi-Dirac, whose solve overflows from the default start
            op["entry"] = entry = rng.choice(("boltzmann-gibbs", "bose-einstein"))
            op["params"] = {}
            e1 = Fraction(rng.randint(2, 4), 4)
            energies = [Fraction(0), e1, e1 + Fraction(rng.randint(2, 4), 4)]
            target = sum(energies) / 3 * Fraction(rng.randint(2, 3), 4)
            op.update(energies=energies, target=target)
            argv = ["maxent", "--stat", entry, "--energies", ",".join(map(str, energies)),
                    "--energy-target", str(target)]
        elif kind == "oeis-check":
            op["entry"], op["quantity"], op["sequence"] = rng.choice(OEIS_REQUESTS)
            op["params"] = {}
            argv = ["oeis-check", "--entry", op["entry"], "--quantity", op["quantity"],
                    "--sequence", op["sequence"]]
        else:
            argv = ["verify", "--suite", "fixtures"]
        op["argv"] = argv
        return op


# -- identities-o16 ----------------------------------------------------------------


class IdentitiesO16:
    """The paper's identities at order 16, on catalog entries and random instances."""

    name = "identities-o16"
    in_process = True
    kinds = (
        "main-catalog", "main-random", "gradient-catalog", "gradient-random",
        "xi-catalog", "xi-random", "dual-random", "dual-classical", "tau-random",
        "group-law", "inversion", "occupation", "binomial-type",
        "verify-binomial", "verify-fixtures",
    )
    ops_per_second = 16.5

    def plan(self, seed: int, seconds: float) -> list[dict]:
        rng = random.Random(seed)
        # one parameter set per entry, so that catalog entries repeat and hit the cache
        self.pool = [(e, draw_params(rng, e)) for e in ENTRIES]
        rounds = rounds_for(seconds, self.ops_per_second, len(self.kinds))
        ops = []
        for kind in self.kinds * rounds:
            entry, params = rng.choice(self.pool)
            op = {"kind": kind, "entry": entry, "params": params, "seed": rng.randrange(2**32)}
            if kind == "occupation":
                op.update(n1=rng.randint(0, 4), n2=rng.randint(0, 4), k=rng.randint(1, 8),
                          x=small_rational(rng), y=small_rational(rng))
            elif kind == "binomial-type":
                op.update(n=rng.randint(4, 8), a=small_rational(rng), b=small_rational(rng))
            elif kind == "dual-classical":
                op.update(entry=rng.choice(CLASSICAL), params={})
            ops.append(op)
        rng.shuffle(ops)
        return ops

    def setup(self) -> None:
        from umbral_stats import catalog, deformed_entropy, series, statistics, umbral, verify

        self.cat, self.de, self.fps = catalog, deformed_entropy, series
        self.st, self.um, self.verify = statistics, umbral, verify
        catalog.fixtures()
        for entry, params in self.pool:
            catalog.build(entry, ORDER, **params)

    def run(self, op: dict):
        kind, verify = op["kind"], self.verify
        cat, de, st, um = self.cat, self.de, self.st, self.um
        rng = random.Random(op["seed"])
        if kind in ("main-catalog", "gradient-catalog", "xi-catalog", "occupation",
                    "binomial-type", "dual-classical"):
            stat = cat.build(op["entry"], ORDER, **op["params"])
        if kind == "main-catalog":
            return de.main_theorem_holds(stat, cat.get(op["entry"]).registered_constant), stat
        if kind == "main-random":
            stat = verify.random_statistics(rng, ORDER)
            return de.main_theorem_holds(stat), stat
        if kind == "gradient-catalog":
            return de.entropy_gradient_holds(stat), stat
        if kind == "gradient-random":
            phi = verify.random_phi(rng, ORDER)
            return de.entropy_gradient_holds(phi), phi
        if kind == "xi-catalog":
            return de.xi(stat)
        if kind == "xi-random":
            phi = verify.random_phi(rng, ORDER)
            return de.xi(phi), phi
        if kind == "dual-random":
            stat = verify.random_statistics(rng, ORDER)
            image = st.dual(stat)
            return stat, image, st.dual(image)
        if kind == "dual-classical":
            return st.dual(stat)
        if kind == "tau-random":
            phi = verify.random_phi(rng, ORDER)
            return phi, de.tau(de.tau(phi))
        if kind == "group-law":
            a, b, c = (verify.random_statistics(rng, ORDER, name) for name in "abc")
            left = st.group_compose(st.group_compose(a, b), c)
            return (a, b, c), left, st.group_compose(a, st.group_compose(b, c))
        if kind == "inversion":
            lead = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)))
            s = [Fraction(0), lead] + [verify.random_rational(rng) for _ in range(ORDER - 1)]
            return s, self.fps.lagrange_invert(self.fps.TruncatedSeries(s))
        if kind == "occupation":
            holds = st.occupation_recursion_holds(stat, op["n1"], op["n2"], op["k"])
            return holds, [st.occupation_polynomial(stat, i) for i in range(op["k"] + 1)]
        if kind == "binomial-type":
            seq = um.conjugate_sequence(um.DeltaSeries(stat.F), op["n"])
            return [um.binomial_identity_holds(seq, op["a"], op["b"], m) for m in range(op["n"] + 1)], seq
        return verify.run(kind[len("verify-"):], ORDER, op["seed"] % 1000)

    def record(self, op: dict, out) -> dict:
        """The parts of an output that the check reads, as strings."""
        kind = op["kind"]
        if kind in ("main-catalog", "main-random", "gradient-catalog"):
            holds, stat = out
            return {"holds": holds, "F": coeffs(stat.F), "w": coeffs(stat.w), "X": coeffs(stat.X_of_w)}
        if kind == "gradient-random":
            return {"holds": out[0], "phi": coeffs(out[1].series)}
        if kind == "xi-catalog":
            return {"xi": coeffs(out)}
        if kind == "xi-random":
            return {"xi": coeffs(out[0]), "phi": coeffs(out[1].series)}
        if kind == "dual-random":
            stat, image, back = out
            return {"F": coeffs(stat.F), "w": coeffs(stat.w), "dual_w": coeffs(image.w),
                    "back_F": coeffs(back.F)}
        if kind == "dual-classical":
            return {"F": coeffs(out.F)}
        if kind == "tau-random":
            return {"phi": coeffs(out[0].series), "back": coeffs(out[1].series)}
        if kind == "group-law":
            (a, b, c), left, right = out
            return {"w": [coeffs(s.w) for s in (a, b, c)], "left_w": coeffs(left.w),
                    "left_F": coeffs(left.F), "right_F": coeffs(right.F)}
        if kind == "inversion":
            return {"s": strs(out[0]), "t": coeffs(out[1])}
        if kind == "occupation":
            return {"holds": out[0], "W": [coeffs(p) for p in out[1]]}
        if kind == "binomial-type":
            return {"holds": out[0], "p": [coeffs(p) for p in out[1]]}
        return {"passed": out.passed, "checks": len(out.results),
                "each_passed": all(r.passed for r in out.results)}


# -- build-o48 -----------------------------------------------------------------------


# After every entry once, a run repeats only families whose build cost hardly
# depends on their parameters, two light ones for each heavy one (0.1-0.25 s
# against about 1 s).  The median then falls inside the light builds and the
# tail inside the heavy ones, whatever the seed, instead of in the gap between.
REPEATS = (
    "averaged-as-1", "gould-catalan-curve", "abel", "bell-universal", "averaged-as-1",
    "gould-lambert", "gould-catalan-curve", "bell-universal", "gentile",
)


class BuildO48:
    """One in-space catalog entry built at order 48 per operation, read as JSON.

    Every key (entry, parameters) is new in the run, so every build misses the
    catalog cache: the entries without parameters appear once each and the
    parameterised families get distinct seeded parameters.
    """

    name = "build-o48"
    in_process = True
    ops_per_second = 1.9

    def plan(self, seed: int, seconds: float) -> list[dict]:
        rng = random.Random(seed)
        total = max(1, ceil(seconds * self.ops_per_second))
        slots = list(ENTRIES[:total])
        slots += [REPEATS[i % len(REPEATS)] for i in range(total - len(slots))]
        seen = set()
        ops = []
        for entry in slots:
            for _ in range(1000):
                params = draw_params(rng, entry)
                if params_key(entry, params) not in seen:
                    break
            else:
                sys.exit(f"{self.name}: too few distinct parameter sets for {entry}")
            seen.add(params_key(entry, params))
            ops.append({"entry": entry, "params": params})
        rng.shuffle(ops)
        return ops

    def setup(self) -> None:
        from umbral_stats import catalog, statistics

        self.cat, self.st = catalog, statistics
        catalog.fixtures()

    def run(self, op: dict):
        stat = self.cat.build(op["entry"], BUILD_ORDER, **op["params"])
        return self.st.statistics_to_json(stat)

    def record(self, op: dict, out) -> dict:
        return out


WORKLOADS = {w.name: w for w in (CliCold, IdentitiesO16, BuildO48)}
