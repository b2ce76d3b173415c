"""Output checks for every operation of every workload.

Each check compares an operation's record (see ``workloads.record``) with a
computation made here by ``oracle``, or with a property the method must
have, and raises :class:`CheckError` on the first difference.  The checks
run in the benchmark's parent process, after the measured process has ended.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb, factorial

import oracle as ref
from workloads import BUILD_ORDER, ORDER, params_key


class CheckError(Exception):
    """An output differs from its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def strip(cs) -> list[Fraction]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def check_prefix(got, want, label: str) -> None:
    """``got`` (Fractions or "p/q" strings) equals the first len(got) terms of ``want``."""
    got = ref.rats(got)
    expect(len(want) >= len(got), f"{label}: reference too short")
    for k, (a, b) in enumerate(zip(got, want)):
        expect(a == b, f"{label}: coefficient {k} is {a}, expected {b}")


def check_statistics(js: dict, order: int, expected_w, label: str) -> None:
    """A statistics record (``statistics_to_json``) is consistent and has the expected w.

    w = X F'(X), z = exp F (by z' = F'z), w(X(t)) = t (by an exact
    composition written in oracle), and the cluster list repeats w.
    """
    F, w, X = (ref.rats(js[key]["coeffs"]) for key in ("F", "w", "X_of_w"))
    z = [Fraction(1)] + ref.rats(js["W"])
    expect(len(F) == len(w) == len(z) == len(X) == order + 1, f"{label}: order is not {order}")
    check_prefix(w, expected_w, f"{label} w")
    expect(w == [k * c for k, c in enumerate(F)], f"{label}: w != X F'")
    expect(ref.is_exp(F, z), f"{label}: z is not exp(F)")
    expect(ref.compose(w, X, order) == ref.identity(order), f"{label}: w(X(t)) != t")
    expect(ref.rats(js["w_cluster"]) == w[1:], f"{label}: cluster coefficients differ from w")


class Checker:
    def __init__(self):
        self._refs = {}

    def reference(self, entry: str, params: dict, order: int) -> ref.Reference:
        key = (params_key(entry, params), order)
        if key not in self._refs:
            self._refs[key] = ref.Reference(entry, params, order)
        return self._refs[key]


# -- cli-cold --------------------------------------------------------------------

OEIS_ABSOLUTE = {("lah", "X_of_w"), ("lah", "phi"), ("exponential", "X_of_w"),
                 ("mittag-leffler", "X_of_w")}
DUAL_PARTNER = {"bose-einstein": "fermi-dirac", "fermi-dirac": "bose-einstein",
                "boltzmann-gibbs": "boltzmann-gibbs"}


class CliChecker(Checker):
    def check(self, op: dict, out: dict) -> None:
        expect(out["code"] == 0, f"exit code {out['code']}: {out['stderr'][-300:]}")
        payload = json.loads(out["stdout"])["payload"]
        kind = op["kind"]
        if kind.startswith("expand"):
            self._expand(op, payload)
        elif kind in ("dual", "compose"):
            self._statistics(op, payload)
        elif kind.startswith("polyseq"):
            self._polyseq(op, payload)
        elif kind == "spectral":
            # partial sums of z and F at the requested points
            r = self.reference(op["entry"], op["params"], ORDER)
            samples = payload["samples"]
            expect(len(samples) == len(op["points"]), "spectral: sample count")
            for sample, x in zip(samples, op["points"]):
                expect(ref.rat(sample["X"]) == x, "spectral: X differs from the request")
                expect(ref.rat(sample["z"]) == ref.poly_eval(r.z, x), f"spectral: z({x})")
                expect(ref.rat(sample["Y"]) == ref.poly_eval(r.F, x), f"spectral: Y({x})")
        elif kind == "maxent":
            self._maxent(op, payload)
        elif kind == "oeis-check":
            self._oeis(op, payload)
        else:
            expect(payload["passed"] and payload["checks"], "verify: no checks or not passed")
            expect(all(c["passed"] for c in payload["checks"]), "verify: a check failed")

    def _expand(self, op: dict, payload: dict) -> None:
        # the quantities lose up to two orders on the way, so the reference
        # is computed two orders higher and compared through order 16
        plain, logpart = self.reference(op["entry"], op["params"], ORDER + 2).quantity(op["quantity"])
        label = f"expand {op['entry']} {op['quantity']}"
        if logpart is None:
            expect(payload["order"] == ORDER and len(payload["coeffs"]) == ORDER + 1, f"{label}: order")
            check_prefix(payload["coeffs"], plain, label)
        else:
            for part, want in (("plain", plain), ("log", logpart)):
                expect(len(payload[part]["coeffs"]) == ORDER + 1, f"{label}: order")
                check_prefix(payload[part]["coeffs"], want, f"{label} {part}")
        if op["quantity"] == "phi_entropy":
            expect("normalization" in payload, f"{label}: no normalization note")

    def _statistics(self, op: dict, js: dict) -> None:
        r = self.reference(op["entry"], op["params"], ORDER)
        if op["kind"] == "dual":
            expect(js["name"] == f"dual({op['entry']})", "dual: name")
            # the dual's weight is the inverse of w, so its inverse is w
            check_prefix(js["X_of_w"]["coeffs"], r.w, "dual: X(w) of the dual is w")
            expected_w = r.X
            partner = DUAL_PARTNER.get(op["entry"])
            if partner:
                check_prefix(js["F"]["coeffs"], ref.free_energy(partner, {}, ORDER), f"dual of {op['entry']}")
        else:
            m = op["m"]
            w2 = self.reference(op["entry2"], op["params2"], ORDER).w
            expected_w = ref.compose(ref.twist(r.w, m), ref.twist(w2, m), ORDER)
        check_statistics(js, ORDER, expected_w, op["kind"])

    def _polyseq(self, op: dict, payload: dict) -> None:
        n = op["n"]
        F = self.reference(op["entry"], op["params"], ORDER).F
        if op["kind"] == "polyseq-sheffer":
            want = ref.sheffer_polynomials(op["g"], F, n)
        else:
            # the associated sequence of the inverse of F is the conjugate sequence of F
            want = ref.conjugate_polynomials(F, n)
        got = [ref.rats(p["coeffs"]) for p in payload["polynomials"]]
        expect(len(got) == n + 1, "polyseq: length")
        for m, (a, b) in enumerate(zip(got, want)):
            expect(a == strip(b), f"polyseq {op['kind']} p_{m}")
        if op["kind"] == "polyseq-conjugate" and op["entry"] in ("lah", "exponential"):
            number = ref.lah_number if op["entry"] == "lah" else ref.stirling2
            for m, p in enumerate(got):
                expect(p == strip(number(m, k) for k in range(m + 1)), f"polyseq {op['entry']} p_{m}")

    def _maxent(self, op: dict, payload: dict) -> None:
        expect(payload["converged"], "maxent: not converged")
        w = [float(c) for c in self.reference(op["entry"], {}, ORDER).w]
        a, b = payload["a"], payload["b"]
        energies = [float(e) for e in op["energies"]]
        p = [ref.poly_eval_float(w, math.exp(-(a + b * e))) for e in energies]
        expect(abs(sum(p) - 1) < 1e-9, "maxent: number residual")
        expect(abs(sum(x * e for x, e in zip(p, energies)) - float(op["target"])) < 1e-9,
               "maxent: energy residual")
        expect(len(payload["p"]) == len(p) and all(abs(x - y) < 1e-9 for x, y in zip(p, payload["p"])),
               "maxent: p differs")

    def _oeis(self, op: dict, payload: dict) -> None:
        prefix = payload["matching_prefix"]
        absolute = (op["entry"], op["quantity"]) in OEIS_ABSOLUTE
        norm = abs if absolute else (lambda v: v)
        computed, reference = payload["computed"], payload["reference"]
        expect(payload["passed"] and prefix >= max(payload["min_prefix"], 1), "oeis: not passed")
        expect([norm(v) for v in computed[:prefix]] == [norm(v) for v in reference[:prefix]],
               "oeis: computed prefix differs from the reference")
        expect(ref.is_window_of(reference, op["sequence"], absolute),
               f"oeis: reference terms are not {op['sequence']}")
        expect(ref.is_window_of(computed[:prefix], op["sequence"], absolute),
               f"oeis: computed terms are not {op['sequence']}")


# -- identities-o16 ----------------------------------------------------------------


class IdentitiesChecker(Checker):
    def check(self, op: dict, rec: dict) -> None:
        kind, entry, params = op["kind"], op["entry"], op["params"]
        identity = ref.identity(ORDER)
        if kind in ("main-catalog", "main-random", "gradient-catalog"):
            # both identities reduce to X(w) being the inverse of w = X F'
            expect(rec["holds"] is True, f"{kind} fails for {entry}")
            F, w, X = (ref.rats(rec[key]) for key in ("F", "w", "X"))
            if kind != "main-random":
                check_prefix(F, ref.free_energy(entry, params, ORDER), f"{kind} F of {entry}")
            expect(w == [k * c for k, c in enumerate(F)], f"{kind}: w != X F'")
            expect(ref.compose(w, X, ORDER) == identity, f"{kind}: w(X(t)) != t")
        elif kind == "gradient-random":
            expect(rec["holds"] is True, "entropy gradient identity fails")
            phi = ref.rats(rec["phi"])
            expect(phi[:2] == [0, 1] and len(phi) == ORDER + 1, "gradient: kernel is not p + O(p^2)")
        elif kind == "xi-catalog":
            check_prefix(rec["xi"], self.reference(entry, params, ORDER).xi, f"xi of {entry} is not F(X)")
        elif kind == "xi-random":
            # xi' = u / phi(u), so xi' * (phi/u) = 1
            xi, phi = ref.rats(rec["xi"]), ref.rats(rec["phi"])
            n = len(xi) - 2
            expect(n >= ORDER - 2, "xi: order too low")
            one = ref.mul(ref.deriv(xi), phi[1:], n)
            expect(one == ref.one(n) and xi[0] == 0, "xi' phi != u")
        elif kind == "dual-random":
            expect(rec["back_F"] == rec["F"], "dual is not an involution")
            check_prefix(rec["dual_w"], ref.reversion(ref.rats(rec["w"]), ORDER), "dual w is not the inverse")
        elif kind == "dual-classical":
            check_prefix(rec["F"], ref.free_energy(DUAL_PARTNER[entry], {}, ORDER), f"dual of {entry}")
        elif kind == "tau-random":
            phi, back = rec["phi"], rec["back"]
            n = min(len(phi), len(back))
            expect(n >= ORDER - 1 and back[:n] == phi[:n], "tau is not an involution")
        elif kind == "group-law":
            expect(rec["left_F"] == rec["right_F"], "group law is not associative")
            a, b, c = (ref.rats(w) for w in rec["w"])
            ab = ref.compose(a, b, ORDER)
            check_prefix(rec["left_w"], ref.compose(ab, c, ORDER), "group law: w")
        elif kind == "inversion":
            s, t = ref.rats(rec["s"]), ref.rats(rec["t"])
            expect(ref.compose(s, t, ORDER) == identity, "s(t(x)) != x")
            expect(ref.compose(t, s, ORDER) == identity, "t(s(x)) != x")
        elif kind == "occupation":
            self._occupation(op, rec)
        elif kind == "binomial-type":
            self._binomial(op, rec)
        else:
            expect(rec["passed"] and rec["checks"] and rec["each_passed"], f"{kind} failed")

    def _occupation(self, op: dict, rec: dict) -> None:
        n1, n2, k, x, y = op["n1"], op["n2"], op["k"], op["x"], op["y"]
        expect(rec["holds"] is True, f"occupation recursion fails for {op['entry']}")
        W = [ref.rats(p) for p in rec["W"]]
        expect(len(W) == k + 1, "occupation: polynomial count")
        z = self.reference(op["entry"], op["params"], ORDER).z
        power = ref.one(ORDER)
        for _ in range(n1 + n2):
            power = ref.mul(power, z, ORDER)
        expect(ref.poly_eval(W[k], Fraction(n1 + n2)) == power[k], f"W_{k}(N) != [X^{k}] z^N")
        vandermonde = sum(ref.poly_eval(W[i], x) * ref.poly_eval(W[k - i], y) for i in range(k + 1))
        expect(vandermonde == ref.poly_eval(W[k], x + y), "Chu-Vandermonde fails")

    def _binomial(self, op: dict, rec: dict) -> None:
        n, a, b, entry = op["n"], op["a"], op["b"], op["entry"]
        expect(rec["holds"] == [True] * (n + 1), f"binomial type fails for {entry}")
        polys = [ref.rats(p) for p in rec["p"]]
        F = ref.free_energy(entry, op["params"], ORDER)
        for m in range(n + 1):
            lhs = ref.poly_eval(polys[m], a + b)
            rhs = sum(comb(m, i) * ref.poly_eval(polys[i], a) * ref.poly_eval(polys[m - i], b)
                      for i in range(m + 1))
            expect(lhs == rhs, f"p_{m}(a+b) binomial expansion")
            expect((polys[m] + [0, 0])[1] == factorial(m) * F[m], f"[x] p_{m} != m! F_{m}")
        if entry in ("lah", "exponential"):
            number = ref.lah_number if entry == "lah" else ref.stirling2
            for m, p in enumerate(polys):
                expect(p == strip(number(m, i) for i in range(m + 1)), f"{entry} p_{m}")


# -- build-o48 -----------------------------------------------------------------------


class BuildChecker(Checker):
    def check(self, op: dict, js: dict) -> None:
        entry, params, n = op["entry"], op["params"], BUILD_ORDER
        expect(js["name"] == entry and js["order"] == n, f"{entry}: name or order")
        F = ref.free_energy(entry, params, n)
        check_prefix(js["F"]["coeffs"], F, f"{entry} F")
        closed = ref.occupation_closed_form(entry, params, n)
        if closed is not None:
            check_prefix(js["W"], closed[1:], f"{entry} z")
        check_statistics(js, n, [k * c for k, c in enumerate(F)], entry)


CHECKERS = {"cli-cold": CliChecker, "identities-o16": IdentitiesChecker, "build-o48": BuildChecker}
