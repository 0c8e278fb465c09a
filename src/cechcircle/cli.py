"""Command-line surface: chi-curve, spikes, census, classify, verify.

One table, COMMANDS, gives each command (each `verify` theorem is one, as in
`verify a1`) its one-line summary, handler and flags.  `main` reads the
command's words, builds one parser with that command's flags alone, parses
the rest of argv and calls the handler; `build_parser`, which lists the
commands, is built only for --help and a missing or unknown command.

All numeric output is printed with 17 significant digits so runs are
reproducible across platforms.  `classify` reads its point file and --t as
exact decimals, so ties are decided exactly; the Monte Carlo commands take
--t as a float, since random samples have no ties.  Exit codes: 0
success/PASS, also when the reader of stdout closes it early, 1 runtime
failure, internal error or FAIL, 2 usage error.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

from .circle import load_point_file, parse_decimal
from .classify import classify
from .errors import CechCircleError, InternalInconsistencyError
from .exact import expected_euler_char, spike_analysis
from .montecarlo import (
    run_census,
    verify_theorem_a1,
    verify_theorem_a2,
    verify_theorem_b,
    verify_theorem_elder_c,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_table(columns: list[str], rows, fmt: str, output: str | None):
    """Rows as CSV with a header line, or as a JSON list; either may be
    empty.  Each row is written as soon as the iterable yields it."""
    with open(output, "w") if output else contextlib.nullcontext(sys.stdout) as out:
        if fmt == "json":
            opening = "["
            for row in rows:
                item = {k: (_fmt(v) if isinstance(v, float) else v) for k, v in row.items()}
                out.write(opening + "\n  " + json.dumps(item, indent=2).replace("\n", "\n  "))
                opening = ","
            out.write("[]\n" if opening == "[" else "\n]\n")
            return
        writer = csv.DictWriter(out, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def cmd_chi_curve(args) -> int:
    """Stream the rows of the endpoint-inclusive grid t_min + i * width, so
    that any --steps prints its first rows at once; every check comes first."""
    if args.n < 1:
        raise CechCircleError("--n must be >= 1")
    if args.steps < 1:
        raise CechCircleError("--steps must be >= 1")
    if not (0 < args.t_min and args.t_max < 0.5):
        raise CechCircleError("grid values must lie in (0, 1/2)")
    last = args.steps - 1
    if last == 0 and args.t_min != args.t_max:
        raise CechCircleError("--steps 1 requires t-min == t-max")
    width = (args.t_max - args.t_min) / max(last, 1)
    if last and not width > 2**-51:  # then rounding keeps the grid strictly increasing
        raise CechCircleError("t grid must be strictly increasing, with a spacing above 2^-51")
    columns = ["n", "t", "chi", "chi_normalized"]

    def rows():
        for i in range(args.steps):
            t = args.t_min + i * width if i < last else args.t_max
            chi = expected_euler_char(args.n, t)
            yield {"n": args.n, "t": t, "chi": chi, "chi_normalized": chi / args.n}

    _write_table(columns, rows(), args.format, args.output)
    return EXIT_OK


def cmd_spikes(args) -> int:
    if args.n < 1:
        raise CechCircleError("--n must be >= 1")
    if args.max_m < 2:
        raise CechCircleError("--max-m must be >= 2")
    if not 0 < args.epsilon < 1:
        raise CechCircleError("--epsilon must be in (0, 1)")
    columns = ["m", "center_t", "a_mn", "b_mn", "omega_m", "alpha_lo", "alpha_hi"]
    rows = []
    # spike_analysis needs n > 2m^2 (hence m^2 < n), i.e. m <= isqrt((n - 1) // 2)
    for m in range(2, min(args.max_m, math.isqrt((args.n - 1) // 2)) + 1):
        spike = spike_analysis(m, args.n, args.epsilon)
        rows.append(dict(zip(columns, (
            m, spike.center_t, spike.a_mn, spike.b_mn, spike.omega_m, *spike.window_rho))))
    if not rows:
        print("warning: no spike rows satisfy the preconditions", file=sys.stderr)
    _write_table(columns, rows, args.format, args.output)
    return EXIT_OK


def cmd_census(args) -> int:
    census = run_census(args.n, args.t, args.trials, args.seed, workers=args.threads)
    _emit(census.to_json() + "\n", args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    config = load_point_file(args.input)
    ht = classify(config, args.t)
    payload = {
        "type": ht.to_json(),
        "display": ht.display(),
        "betti": list(ht.betti()),
        "euler_characteristic": ht.euler_characteristic(),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK




def _report(report, output: str | None) -> int:
    """Write a `verify` report; PASS exits 0, FAIL 1."""
    _emit(report.to_json() + "\n", output)
    print("PASS" if report.passed else "FAIL", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_RUNTIME


INT = {"type": int, "required": True}
FLOAT = {"type": _finite_float, "required": True}
FORMAT = {"--format": {"choices": ["csv", "json"], "default": "csv"}}
TRIALS = {"--trials": INT, "--seed": INT, "--threads": {"type": int, "default": 1,
    "help": "worker processes for the trials (default: 1); results do not depend on it"}}

# command -> (summary, handler, flags); every command also takes --output.
# Handlers look up run_census and verify_theorem_* when they run.
COMMANDS = {
    "chi-curve": ("expected Euler characteristic on a t grid", cmd_chi_curve, {
        "--n": INT, "--t-min": FLOAT, "--t-max": FLOAT, "--steps": INT, **FORMAT}),
    "spikes": ("spike analytics for m = 2..M", cmd_spikes, {
        "--n": INT, "--max-m": INT, "--epsilon": {"type": _finite_float, "default": 0.1}, **FORMAT}),
    "census": ("seeded homotopy-type census", cmd_census, {
        "--n": INT, "--t": FLOAT, **TRIALS}),
    "classify": ("homotopy type of a point file", cmd_classify, {
        "--input": {"required": True}, "--t": {"type": parse_decimal, "required": True}}),
    "verify a1": ("E[chi] against the closed form", lambda a: _report(
        verify_theorem_a1(a.n, a.t, a.trials, a.seed, a.threads), a.output), {
        "--n": INT, "--t": FLOAT, **TRIALS}),
    "verify a2": ("Betti sandwich", lambda a: _report(verify_theorem_a2(
        a.k, a.n, a.trials, a.seed, margin=a.margin, workers=a.threads), a.output), {
        "--k": INT, "--n": INT, "--margin": {"type": _finite_float, "default": 0.05}, **TRIALS}),
    "verify b": ("odd-sphere plateau", lambda a: _report(verify_theorem_b(
        a.k, a.n, a.t, a.trials, a.seed, a.threads), a.output), {
        "--k": INT, "--n": INT, "--t": FLOAT, **TRIALS}),
    "verify c": ("even-wedge spike window", lambda a: _report(verify_theorem_elder_c(
        a.k, a.n, a.trials, a.seed, delta=a.delta, slack=a.slack, workers=a.threads), a.output), {
        "--k": INT, "--n": INT, "--delta": {"type": _finite_float},
        "--slack": {"type": _finite_float, "default": 0.1}, **TRIALS}),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of `cechcircle` itself: its --help lists the commands.
    `main` builds it only when argv names no known command."""
    parser = argparse.ArgumentParser(
        prog="cechcircle",
        usage="cechcircle [-h] COMMAND [flags]",
        description="Random Cech complexes on the circle: exact curves, "
        "homotopy classification,\nseeded Monte Carlo censuses.",
        epilog="commands:\n" + "".join(f"  {name:<11} {entry[0]}\n" for name, entry in COMMANDS.items())
        + "\n`cechcircle COMMAND --help` lists the flags of one command.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", nargs="+", metavar="COMMAND", help="one of the commands below")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    words = 2 if argv[:1] == ["verify"] else 1
    name = " ".join(argv[:words])
    if name not in COMMANDS:
        parser = build_parser()
        parser.parse_args(argv[:words])  # exits: 0 on --help, 2 without a command
        parser.error(f"unknown command {name!r}; choose from {', '.join(COMMANDS)}")
    summary, handler, flags = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"cechcircle {name}", description=summary)
    for flag, spec in {**flags, "--output": {}}.items():
        parser.add_argument(flag, **spec)
    args = parser.parse_args(argv[words:])
    try:
        return handler(args)
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except CechCircleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args.output is None:
            # the reader of stdout has gone (`chi-curve ... | head`): stop
            # quietly, and let the interpreter's last flush go to /dev/null
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_OK
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
