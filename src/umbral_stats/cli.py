"""Command-line front end.

    umbral-stats expand --stat bose-einstein --quantity w --order 5
    umbral-stats dual --stat bose-einstein
    umbral-stats compose --stat bose-einstein --stat2 fermi-dirac --m 0
    umbral-stats polyseq --stat exponential --kind conjugate --n 4
    umbral-stats spectral --stat fermi-dirac --points 1/3,1/2
    umbral-stats maxent --stat boltzmann-gibbs --energies 0,1 --energy-target 1/4
    umbral-stats verify --suite all --order 16 --seed 0
    umbral-stats oeis-check --entry lah --quantity X_of_w --sequence A000108

Default truncation order is 16, overridable per command with --order or
globally with the UMBRAL_ORDER environment variable; oeis-check takes no
--order, since its fixture's length fixes it.  Output is JSON by
default; --format csv/pretty are available for series-like payloads.
Exit status is 0 only if the requested computation (and any checks)
succeeded.

Each subcommand's handler ``cmd_*(args)`` computes and prints nothing to
stdout: it returns ``(parameters, payload)``, or ``(parameters, payload,
exit_code)`` when the code can be nonzero (maxent, verify, oeis-check).
:func:`main` times the handler and emits the one record
``{"command", "parameters", "payload", "elapsed_seconds"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import catalog as cat
from . import oeis
from . import series as fps
from . import statistics as st
from . import verify as verify_mod
from .deformed_entropy import MaxentConvergenceError, maxent_solve
from .series import LogSeries, TruncatedSeries
from .umbral import (
    DeltaSeries,
    InvertibleSeries,
    conjugate_sheffer_sequence,
    poly_to_json,
)

EXPAND_QUANTITIES = tuple(q for q in cat.DERIVED_QUANTITIES if q != "gamma")


# Highest truncation order the CLI accepts (--order, polyseq --n and
# UMBRAL_ORDER), and highest compose --m.  Cost grows steeply with both: the
# slowest requests measured are compose --m 128 at order 128, 6-9 s for
# bose-einstein with fermi-dirac and about 80 s for abel with abel, while
# expand acharya-swamy eps=1/3 phi_entropy takes 0.2 s at order 64 and
# 0.8 s at order 128 (2-core VM, see README).
MAX_ORDER = 128


def order_arg(text: str, low: int = 1) -> int:
    """argparse type for --order and --n: an integer in low..MAX_ORDER."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not low <= value <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"{value} is outside {low}..{MAX_ORDER}")
    return value


def twist_arg(text: str) -> int:
    """argparse type for compose --m: an integer in 0..MAX_ORDER."""
    return order_arg(text, low=0)


def default_order() -> int:
    """UMBRAL_ORDER if set, else 16.  Text that is not an integer is ignored
    with a warning; an integer outside 1..MAX_ORDER raises ValueError."""
    env = os.environ.get("UMBRAL_ORDER")
    if env is None:
        return fps.DEFAULT_ORDER
    try:
        value = int(env)
    except ValueError:
        print(f"warning: ignoring invalid UMBRAL_ORDER={env!r}", file=sys.stderr)
        return fps.DEFAULT_ORDER
    if not 1 <= value <= MAX_ORDER:
        raise ValueError(f"UMBRAL_ORDER={env!r} is outside 1..{MAX_ORDER}")
    return value


# Most digits a rational argument may carry in its numerator or denominator,
# counted as written, with a decimal exponent adding its zeros: "1e999" and
# "0.5e-998" pass, "1e1000" and "1e-1000" do not.  The bound is for
# magnitude, as MAX_ORDER is for cost.  It is checked before Fraction sees
# the text, whose conversion grows with the exponent (Fraction("1e2000000")
# alone takes 0.75 s on a 2-core VM), and it leaves room for rationals too
# large for a float, which maxent reports as errors.  Cost still grows with
# the digits: expand acharya-swamy eps=1e999 phi_entropy takes 0.2-0.3 s at
# order 16 and 2.4-3.4 s at order 32 (2-core VM).  Results can exceed
# Python's int-to-str limit, which main lifts.
MAX_DIGITS = 1000

# Fraction's own grammar, with underscores between digits.  Left to re's
# cache, so that only commands that parse a rational compile it (about 1 ms).
_RATIONAL = r"""\s*[-+]?(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:/(?P<den>\d+(_\d+)*)
    |(?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)\s*\Z"""


def parse_rational(text: str) -> Fraction:
    """An exact rational from "p/q" or decimal text; ValueError if malformed,
    or if its numerator or denominator would exceed MAX_DIGITS digits."""
    match = re.match(_RATIONAL, text, re.VERBOSE | re.IGNORECASE)
    if match is None:
        raise ValueError(f"not a rational number: {text!r}")
    num, den, decimal, exp = (
        (match[g] or "").replace("_", "") for g in ("num", "den", "decimal", "exp")
    )
    if len(exp.lstrip("+-").lstrip("0")) > len(str(MAX_DIGITS)):
        digits = MAX_DIGITS + 1  # the exponent alone exceeds the bound
    else:
        # decimal text is int(num + decimal) * 10**shift; p/q text has shift 0
        shift = int(exp or 0) - len(decimal)
        digits = max(
            len(num) + len(decimal) + max(shift, 0), len(den), 1 + max(-shift, 0)
        )
    if digits > MAX_DIGITS:
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise ValueError(
            f"{shown!r} needs more than {MAX_DIGITS} digits in its numerator "
            "or denominator"
        )
    return fps.as_rational(text)


def parse_params(pairs: list[str] | None) -> dict:
    params: dict = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        # t is the one list parameter
        params[key] = parse_rationals(value) if key == "t" else parse_rational(value)
    return params


def parse_rationals(text: str) -> list[Fraction]:
    """Every comma-separated field as a rational; an empty field is malformed."""
    return [parse_rational(part) for part in text.split(",")]


def parse_float(text: str) -> float:
    """A rational from text as a float; ValueError if malformed or out of range."""
    try:
        return float(parse_rational(text))
    except OverflowError:
        raise ValueError(f"{text!r} is too large for a float") from None


def emit(record: dict, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(record, stream, indent=1)
        stream.write("\n")
        return
    payload = record["payload"]
    if fmt == "csv":
        _emit_csv(payload, stream)
        return
    _emit_pretty(payload, stream)


def _emit_csv(payload, stream) -> None:
    if isinstance(payload, dict) and "coeffs" in payload:
        stream.write("index,coefficient\n")
        for k, c in enumerate(payload["coeffs"]):
            stream.write(f"{k},{c}\n")
    elif isinstance(payload, dict) and "plain" in payload and "log" in payload:
        stream.write("index,plain,log\n")
        plain = payload["plain"]["coeffs"]
        logc = payload["log"]["coeffs"]
        for k, (a, b) in enumerate(zip(plain, logc)):
            stream.write(f"{k},{a},{b}\n")
    elif isinstance(payload, dict) and "samples" in payload:
        stream.write("X,z,Y\n")
        for row in payload["samples"]:
            stream.write(f"{row['X']},{row['z']},{row['Y']}\n")
    elif isinstance(payload, dict) and "polynomials" in payload:
        stream.write("n,k,coefficient\n")
        for n, poly in enumerate(payload["polynomials"]):
            for k, c in enumerate(poly["coeffs"]):
                stream.write(f"{n},{k},{c}\n")
    else:
        raise ValueError("this payload has no CSV rendering; use --format json")


def _emit_pretty(payload, stream) -> None:
    if isinstance(payload, dict) and "pretty" in payload:
        stream.write(payload["pretty"] + "\n")
    else:
        json.dump(payload, stream, indent=2)
        stream.write("\n")


# -- command handlers ----------------------------------------------------------


def _statistics(args, stat="stat", param="param", order=None):
    """The catalog statistics named by option ``stat``, built with the
    parameters of option ``param`` at ``order`` (default: --order)."""
    params = parse_params(getattr(args, param))
    return cat.get(getattr(args, stat)).build(order or args.order, **params)


def cmd_expand(args):
    params = parse_params(args.param)
    entry = cat.get(args.stat)
    value = entry.quantity(args.quantity, args.order, **params)
    # every expand quantity is a series or a log-series
    to_json = fps.logseries_to_json if isinstance(value, LogSeries) else fps.series_to_json
    payload = {**to_json(value), "pretty": str(value)}
    if args.quantity == "phi_entropy":
        constant = entry.registered_constant
        payload["normalization"] = (
            "constant-normalized: the linear constant F(X(1)) - log X(1) is "
            + (f"registered as {constant}" if constant is not None else "not evaluated")
        )
    return {"stat": args.stat, "quantity": args.quantity, "order": args.order,
            "params": {k: ",".join(map(str, v)) if k == "t" else str(v)
                       for k, v in params.items()}}, payload


def cmd_dual(args):
    image = st.dual(_statistics(args))
    return {"stat": args.stat, "order": args.order}, st.statistics_to_json(image)


def cmd_compose(args):
    a = _statistics(args)
    b = _statistics(args, "stat2", "param2")
    result = st.group_compose_m(a, b, args.m)
    return ({"stat": args.stat, "stat2": args.stat2, "m": args.m, "order": args.order},
            st.statistics_to_json(result))


def cmd_polyseq(args):
    if args.g_coeffs and args.kind != "sheffer":
        raise ValueError("--g-coeffs applies to --kind sheffer only")
    stat = _statistics(args, order=max(args.order, args.n))
    # The conjugate sequence of F, which is the associated sequence of F's
    # inverse, is the Sheffer sequence of g = 1.  g is a polynomial: the
    # coefficients not given are 0.
    cs = parse_rationals(args.g_coeffs) if args.g_coeffs else [1]
    g = InvertibleSeries(TruncatedSeries(cs + [0] * (stat.order + 1 - len(cs))))
    seq = conjugate_sheffer_sequence(g, DeltaSeries(stat.F), args.n)
    payload = {
        "polynomials": [poly_to_json(p) for p in seq],
        "pretty": "\n".join(f"p_{n} = {p}" for n, p in enumerate(seq)),
    }
    return {"stat": args.stat, "kind": args.kind, "n": args.n}, payload


def cmd_spectral(args):
    samples = st.spectral_samples(_statistics(args), parse_rationals(args.points))
    payload = {"samples": [{"X": str(s.X), "z": str(s.z), "Y": str(s.Y)}
                           for s in samples]}
    return {"stat": args.stat, "points": args.points, "order": args.order}, payload


def cmd_maxent(args):
    stat = _statistics(args)
    energies = [parse_float(e) for e in args.energies.split(",")]
    try:
        sol = maxent_solve(stat, energies,
                           energy_target=parse_float(args.energy_target),
                           number_target=parse_float(args.number_target),
                           a0=parse_float(args.a0), b0=parse_float(args.b0))
        code = 0
    except MaxentConvergenceError as exc:
        sol = exc.last
        code = 1
    if not all(map(math.isfinite, (sol.a, sol.b, *sol.p, *sol.residuals))):
        raise ValueError(f"maxent did not converge: the last iterate is not finite "
                         f"(a={sol.a}, b={sol.b}, residuals={list(sol.residuals)})")
    return {"stat": args.stat, "energies": args.energies,
            "energy_target": args.energy_target,
            "number_target": args.number_target}, sol._asdict(), code


def cmd_verify(args):
    report = verify_mod.run(args.suite, order=args.order, seed=args.seed)
    rerun = f"(--order {args.order} --seed {args.seed})"
    for failure in report.failures():
        line = f"FAIL {failure.suite}:{failure.name} {failure.detail}"
        print(f"{line.rstrip()} {rerun}", file=sys.stderr)
    return ({"suite": args.suite, "order": args.order, "seed": args.seed},
            report.to_json(), 0 if report.passed else 1)


def cmd_oeis_check(args):
    check = oeis.check_entry_quantity(
        args.entry, args.quantity, args.sequence, fetch=args.fetch
    )
    return ({"entry": args.entry, "quantity": args.quantity,
             "mode": "fetch" if args.fetch else "offline"},
            check._asdict(), 0 if check.passed else 1)


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a word made of "-" and a digit, or "-."
    and a digit, and whatever follows, as a value, never as an option.

    argparse takes only integers and plain decimals such as "-1" or "-0.5"
    for negative values, so "--energy-target -1/4" or "--points -1/3,0"
    would end in "expected one argument".  No option of this CLI starts
    with "-" and a digit, and "-x" stays an unknown option.  Subparsers
    are built with the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="umbral-stats",
        description="exact series engine for interpolating statistics, "
        "polynomial sequences, and deformed entropy",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order = default_order()

    def output_format(p):
        p.add_argument("--format", choices=("json", "csv", "pretty"),
                       default="json")

    def common(p, stat=True):
        if stat:
            p.add_argument("--stat", required=True,
                           help=f"catalog entry ({', '.join(cat.list_entries())})")
            p.add_argument("--param", action="append", metavar="K=V",
                           help="entry parameter, repeatable (e.g. --param eps=1/2)")
        p.add_argument("--order", type=order_arg, default=order,
                       help=f"truncation order, 1..{MAX_ORDER} "
                       "(env UMBRAL_ORDER, default 16)")
        output_format(p)

    p = sub.add_parser("expand", help="emit a truncated expansion")
    common(p)
    p.add_argument("--quantity", required=True, choices=EXPAND_QUANTITIES)
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("dual", help="the dual statistics")
    common(p)
    p.set_defaults(handler=cmd_dual)

    p = sub.add_parser("compose", help="group composition of two statistics")
    common(p)
    p.add_argument("--stat2", required=True)
    p.add_argument("--param2", action="append", metavar="K=V")
    p.add_argument("--m", type=twist_arg, default=0,
                   help=f"twist exponent, 0..{MAX_ORDER} (default 0)")
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("polyseq", help="polynomial sequence of an entry")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=("conjugate", "associated", "sheffer"),
                   help="conjugate: the conjugate sequence of F; associated: "
                   "the associated sequence of F's compositional inverse, "
                   "which is the same conjugate sequence of F; sheffer: the "
                   "Sheffer sequence of g and F's compositional inverse")
    p.add_argument("--n", type=order_arg, required=True,
                   help=f"highest degree, 1..{MAX_ORDER}")
    p.add_argument("--g-coeffs", default="",
                   help="sheffer only: ordinary coefficients of the polynomial g, "
                   "e.g. 1,0,1/2; those not given are 0 (default: g = 1)")
    p.set_defaults(handler=cmd_polyseq)

    p = sub.add_parser("spectral", help="sample the plane curves z=z(X), e^Y=z(X)")
    common(p)
    p.add_argument("--points", required=True, help="comma-separated rationals")
    p.set_defaults(handler=cmd_spectral)

    p = sub.add_parser("maxent", help="stationary occupation via Newton multipliers")
    common(p)
    p.add_argument("--energies", required=True, help="comma-separated rationals")
    p.add_argument("--energy-target", required=True)
    p.add_argument("--number-target", default="1")
    p.add_argument("--a0", default="0", help="starting a (default 0)")
    p.add_argument("--b0", default="0", help="starting b (default 0)")
    p.set_defaults(handler=cmd_maxent)

    p = sub.add_parser("verify", help="run property/fixture suites")
    common(p, stat=False)
    p.add_argument("--suite", default="all",
                   choices=("all",) + verify_mod.SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("oeis-check", help="compare a fixture against its sequence")
    output_format(p)
    p.add_argument("--entry", required=True)
    p.add_argument("--quantity", required=True)
    p.add_argument("--sequence", default=None, help="expected OEIS id (optional)")
    p.add_argument("--fetch", action="store_true",
                   help="fetch the b-file over HTTP instead of embedded terms")
    p.set_defaults(handler=cmd_oeis_check)

    return parser


def main(argv: list[str] | None = None, stream=None) -> int:
    out = stream or sys.stdout
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # 3.10.7+
    try:
        args = build_parser().parse_args(argv)
        # Arguments are bounded (MAX_ORDER, MAX_DIGITS), so every result of
        # a request may print, however long; the int-to-str limit is lifted
        # for the request only and restored for callers in this process.
        if limit is not None:
            sys.set_int_max_str_digits(0)
        t0 = time.perf_counter()
        parameters, payload, *code = args.handler(args)
        record = {
            "command": args.command,
            "parameters": parameters,
            "payload": payload,
            "elapsed_seconds": round(time.perf_counter() - t0, 6),
        }
        emit(record, args.format, out)
        out.flush()
        return code[0] if code else 0
    except (ValueError, cat.CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the flush
        # at interpreter exit cannot raise again (the recipe in the Python
        # docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
