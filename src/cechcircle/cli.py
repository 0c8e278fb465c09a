"""Command-line surface: chi-curve, spikes, census, classify, verify.

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
THEOREMS = {
    "a1": "E[chi] against the closed form",
    "a2": "Betti sandwich",
    "b": "odd-sphere plateau",
    "c": "even-wedge spike window",
}


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


def _workers(args) -> int:
    """--threads, else CECHCIRCLE_THREADS, else 1; a positive integer."""
    source = "CECHCIRCLE_THREADS" if args.threads is None else "--threads"
    raw = os.environ.get(source, "1") if args.threads is None else str(args.threads)
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise CechCircleError(f"{source} must be a positive integer, got {raw!r}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cechcircle",
        description="Random Cech complexes on the circle: exact curves, "
        "homotopy classification, seeded Monte Carlo censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi-curve", help="expected Euler characteristic on a t grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-min", type=_finite_float, required=True)
    p.add_argument("--t-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output")

    p = sub.add_parser("spikes", help="spike analytics for m = 2..M")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--epsilon", type=_finite_float, default=0.1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output")

    p = sub.add_parser("census", help="seeded homotopy-type census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--no-cross-check", action="store_true",
                   help="skip the per-trial Euler characteristic cross-check")
    p.add_argument("--output")

    p = sub.add_parser("classify", help="homotopy type of a point file")
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=parse_decimal, required=True)
    p.add_argument("--output")

    p = sub.add_parser("verify", help="statistical theorem verification")
    p.add_argument("theorem", choices=THEOREMS,
                   help="; ".join(f"{name}: {what}" for name, what in THEOREMS.items()))
    p.add_argument("flags", nargs=argparse.REMAINDER,
                   help="the theorem's flags; see `cechcircle verify THEOREM --help`")
    return parser


def theorem_parser(theorem: str) -> argparse.ArgumentParser:
    """The flags of one `verify` theorem, and no others.  Only the theorem
    that runs gets a parser: the four as nested subparsers of `build_parser`
    made every command's parser half as dear again to build (0.63 to
    0.91 ms on a 2-core Xeon VM)."""
    q = argparse.ArgumentParser(prog=f"cechcircle verify {theorem}", description=THEOREMS[theorem])
    q.add_argument("--n", type=int, required=True)
    if theorem != "a1":
        q.add_argument("--k", type=int, required=True)
    if theorem != "c":
        q.add_argument("--t", type=_finite_float, required=theorem != "a2")
    if theorem == "a2":
        q.add_argument("--margin", type=_finite_float, default=0.05)
    if theorem == "c":
        q.add_argument("--delta", type=_finite_float)
        q.add_argument("--slack", type=_finite_float, default=0.1)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--threads", type=int, default=None,
                   help="worker processes for the trials "
                   "(default: CECHCIRCLE_THREADS, else 1); results do not depend on it")
    q.add_argument("--output")
    return q


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
    workers = _workers(args)
    census = run_census(
        args.n, args.t, args.trials, args.seed,
        workers=workers, cross_check=not args.no_cross_check,
    )
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


def cmd_verify(args) -> int:
    theorem_parser(args.theorem).parse_args(args.flags, namespace=args)
    workers = _workers(args)
    if args.theorem == "a1":
        report = verify_theorem_a1(args.n, args.t, args.trials, args.seed, workers)
    elif args.theorem == "a2":
        report = verify_theorem_a2(
            args.k, args.n, args.trials, args.seed, t=args.t, margin=args.margin,
            workers=workers,
        )
    elif args.theorem == "b":
        report = verify_theorem_b(args.k, args.n, args.t, args.trials, args.seed, workers)
    else:
        report = verify_theorem_elder_c(
            args.k, args.n, args.trials, args.seed,
            delta=args.delta, slack=args.slack, workers=workers,
        )
    _emit(report.to_json() + "\n", args.output)
    print("PASS" if report.passed else "FAIL", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_RUNTIME


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "chi-curve": cmd_chi_curve,
        "spikes": cmd_spikes,
        "census": cmd_census,
        "classify": cmd_classify,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
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
