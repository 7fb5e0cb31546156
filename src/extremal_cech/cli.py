"""Command-line front end.

Subcommands: generate, filtration, betti, persistence, radii, oracle,
verify.  Exit codes: 0 success / all PASS, 1 claim or check FAIL, 2 usage
error (argparse default, a parameter `construct.build` refuses: a missing
k, a 3d k other than 1, an even delta other than auto, an h with a kind
other than suspended or not positive and finite; a --delta other than
auto with --points, a mosaic of more than `construct.MAX_SIMPLICES`
simplices, built, loaded or swept by a verify suite, a non-finite
--radius, an even --radius not below the top-cell value, a --radius less
than abs_eps below the least value of a class, nothing selected
to verify, verify --all with --n or --k or with another suite (--theorem,
--suspension, --radii, --hypotheses), verify --theorem 2.1 or --radii
with a --k below 2, verify --theorem 3.1 with a --k other than 1, verify
--suspension with a --k other than 2, bad or
unreadable input files, a point-file header that
`construct.build` refuses or does not reproduce, a point-file delta or h
that the file's coordinates do not have, unwritable output files), 3
numeric or consistency failure (class overlap or a simplex the build
finds not critical at the one delta built, affinely degenerate simplex,
subset budget), 141 (128 + SIGPIPE)
when the reader of stdout has gone, with nothing on stderr.
`generate` writes the point set alone and validates nothing, so it never
exits 3; every other command that builds validates through
`construct.validate`, a loaded set included, so one
failure prints one message.

Outputs are deterministic: identical invocations produce byte-identical
files; nothing embeds timestamps.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import complexgen, construct, homology, oracle
from .geometry import DEFAULT_TOL, AffineDegeneracyError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process SIGPIPE ended


def _add_construction_args(p, kinds=construct.KINDS):
    p.add_argument("--kind", choices=kinds, required=True)
    p.add_argument("--k", type=int, default=None, help="circle-count parameter")
    p.add_argument("--n", type=int, required=True, help="points-per-circle parameter")
    p.add_argument("--delta", default="auto",
                   help="arc half-width; 'auto' is 0.1/n capped at 0.01")


def _parse_delta(value):
    return "auto" if value == "auto" else float(value)


def _build_validated(args):
    return construct.build_validated(args.kind, k=args.k, n=args.n,
                                     delta=_parse_delta(args.delta))


def _cmd_generate(args) -> int:
    ps = construct.build(args.kind, args.k, args.n, _parse_delta(args.delta), args.h)
    construct.save_points(ps, args.output)
    print(f"wrote {len(ps)} points to {args.output}")
    return EXIT_OK


def _load_matching(args) -> construct.PointSet:
    """The point-set file given with --points, checked against the flags.
    Its header fixes delta, so a --delta other than auto is refused."""
    if args.delta != "auto":
        raise ValueError(f"--delta {args.delta} is given, but the header of "
                         f"{args.points} fixes delta")
    ps = construct.load_points(args.points)
    k = args.k if args.k is not None else ps.k
    if (ps.kind, ps.k, ps.n) != (args.kind, k, args.n):
        raise ValueError(f"{args.points} holds kind={ps.kind} k={ps.k} n={ps.n}, "
                         f"but the flags say kind={args.kind} k={k} n={args.n}")
    return ps


def _cmd_filtration(args) -> int:
    if args.points:
        fc, _ = construct.validate(_load_matching(args))
    else:
        _, fc, _ = _build_validated(args)
    complexgen.save_filtration(fc, args.output)
    print(f"wrote {len(fc)} simplices to {args.output}")
    return EXIT_OK


def _cmd_betti(args) -> int:
    if math.isnan(args.radius):
        raise ValueError("--radius must be a number, not nan")
    if math.isinf(args.radius):
        raise ValueError(f"--radius must be finite, not {args.radius}")
    construct.check_below_even_top(args.kind, args.radius)
    _, fc, thresholds = _build_validated(args)
    # the slack completes a class the radius reaches, but must start none
    before = {th.above: format(th.rho, ".17g") for th in thresholds}
    for cls, (lo, _, _) in sorted(fc.class_ranges().items()):
        if args.radius < lo <= args.radius + DEFAULT_TOL.abs_eps:
            raise ValueError(f"radius {args.radius!r} is less than abs_eps below class {cls}, "
                             f"which the slack would start; radii prints "
                             f"{before.get(cls, 'no threshold')} before that class")
    vec = homology.betti_of_subcomplex(fc, args.radius, reduced=not args.unreduced,
                                       eps=DEFAULT_TOL.abs_eps)
    if args.p is not None:
        if not 0 <= args.p < len(vec):
            raise ValueError(f"--p {args.p} is outside 0..{len(vec) - 1}")
        print(vec[args.p])
    else:
        print(" ".join(str(b) for b in vec))
    return EXIT_OK


def _cmd_persistence(args) -> int:
    _, fc, _ = _build_validated(args)
    pd = homology.reduce(fc)
    homology.save_diagram(pd, args.output)
    print(f"wrote {len(pd)} pairs to {args.output}")
    if args.svg:
        homology.diagram_svg(pd, args.svg)
        print(f"wrote scatter to {args.svg}")
    return EXIT_OK


def _cmd_radii(args) -> int:
    _, fc, thresholds = _build_validated(args)
    print("touch short count      min_value             max_value")
    for cls, (lo, hi, count) in sorted(fc.class_ranges().items()):
        print(f"{cls[0]:5d} {cls[1]:5d} {count:5d} {format(lo, '.17g'):>22s} "
              f"{format(hi, '.17g'):>22s}")
    print("thresholds:")
    for th in thresholds:
        print(f"  after {th.below}: {format(th.rho, '.17g')}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    ps, fc, thresholds = _build_validated(args)
    maxdim = args.maxdim if args.maxdim is not None else ps.dim
    rep = oracle.enumeration_matches_oracle(ps, maxdim, budget=args.budget)
    print(f"enumeration vs empty-sphere oracle (maxdim {maxdim}): "
          f"{rep.n_enumerated} enumerated, {rep.n_oracle} oracle, "
          f"{len(rep.missing)} missing, {len(rep.extra)} extra -> "
          f"{'PASS' if rep.ok else 'FAIL'}")
    if args.diff_csv and (rep.missing or rep.extra):
        with open(args.diff_csv, "w") as fh:
            fh.write("side,vertices\n")
            for v in rep.missing:
                fh.write(f"missing,{' '.join(map(str, v))}\n")
            for v in rep.extra:
                fh.write(f"extra,{' '.join(map(str, v))}\n")
    ok = rep.ok
    pmax = min(ps.dim - 1, fc.max_dim())
    for eq in oracle.cech_equals_alpha_betti(ps, [th.rho for th in thresholds], pmax,
                                             fc=fc, budget=args.budget):
        print(f"cech vs alpha at rho={eq.radius:.9g}: {eq.cech_vector} vs "
              f"{eq.alpha_vector} -> {'PASS' if eq.ok else 'FAIL'}")
        ok &= eq.ok
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_verify(args) -> int:
    from . import verify  # only this command reads it, so the others skip compiling it

    if args.all and (args.n, args.k) != (None, None):
        raise ValueError("--all runs a fixed claim set and takes no --n or --k")
    if args.all and (args.theorem or args.suspension or args.radii or args.hypotheses):
        raise ValueError("--all runs every suite and takes no --theorem, --suspension, "
                         "--radii or --hypotheses")
    if args.theorem == "3.1" and args.k not in (None, 1):
        raise ValueError(f"--k {args.k} is not 1, the only k of theorem 3.1")

    def k_or(default):
        return default if args.k is None else args.k

    n = 2 if args.n is None else args.n
    claims = []
    if args.theorem == "3.1":
        claims += verify.verify_betti_3d(n)
    elif args.theorem == "2.1":
        claims += verify.verify_betti_even(k_or(2), n)
    elif args.theorem == "4.1":
        claims += verify.verify_betti_odd(k_or(1), n)
    if args.suspension:
        claims += verify.verify_suspension(k_or(2), n)
    if args.radii:
        claims += verify.verify_radius_formulas(k_or(2), n)
    if args.hypotheses:
        claims += verify.verify_hypotheses(k_or(1), n)
    if args.all:
        claims += verify.verify_betti_3d(2)
        claims += verify.verify_betti_even(2, 5)
        claims += verify.verify_betti_odd(1, 2)
        claims += verify.verify_betti_odd(2, 2)
        claims += verify.verify_radius_formulas(2, 5)
        claims += verify.verify_hypotheses(1, 2)
        claims += verify.verify_suspension(2, 2)
    if not claims:
        raise ValueError("nothing selected; pass --theorem/--suspension/"
                         "--radii/--hypotheses/--all")
    for line in verify.claims_lines(claims):
        print(line)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(verify.claims_csv(claims))
    n_fail = sum(1 for c in claims if c.status == verify.FAIL)
    print(f"{len(claims)} claims, {n_fail} failures")
    return EXIT_OK if n_fail == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal-cech",
        description="Extremal point sets for Cech/Alpha complexes: generation, "
                    "filtrations, persistence, and claim verification.")
    # full option names only: abbreviated, generate's --h reads as --help elsewhere
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("generate", help="write a point-set CSV")
    _add_construction_args(p)
    p.add_argument("--h", type=float, default=None,
                   help="apex height (suspended kind only, default 0.5)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("filtration", help="write the radius-sorted filtration")
    _add_construction_args(p, kinds=construct.MOSAIC_KINDS)
    p.add_argument("--points", help="read a point-set CSV instead of constructing")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_filtration)

    p = sub.add_parser("betti", help="Betti numbers of the alpha sublevel complex")
    _add_construction_args(p, kinds=construct.MOSAIC_KINDS)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--p", type=int, default=None, help="print one Betti number only")
    p.add_argument("--unreduced", action="store_true")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("persistence", help="write the persistence diagram CSV")
    _add_construction_args(p, kinds=construct.MOSAIC_KINDS)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--svg", help="also write a births-vs-deaths SVG scatter")
    p.set_defaults(func=_cmd_persistence)

    p = sub.add_parser("radii", help="print per-class radius ranges and thresholds")
    _add_construction_args(p, kinds=construct.MOSAIC_KINDS)
    p.set_defaults(func=_cmd_radii)

    p = sub.add_parser("oracle", help="brute-force cross checks")
    _add_construction_args(p, kinds=construct.MOSAIC_KINDS)
    p.add_argument("--maxdim", type=int, default=None)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    p.add_argument("--diff-csv", help="dump the symmetric difference, if any")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run claim suites")
    p.add_argument("--theorem", choices=("2.1", "3.1", "4.1"),
                   help="Betti-number suite for the even/3d/odd family")
    p.add_argument("--suspension", action="store_true")
    p.add_argument("--radii", action="store_true")
    p.add_argument("--hypotheses", action="store_true")
    p.add_argument("--all", action="store_true")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="default 2")
    p.add_argument("--csv", help="also write claim results as CSV")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: nothing is left to say, so the
        # final flush writes to devnull, and the exit is SIGPIPE's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (AffineDegeneracyError, RuntimeError) as exc:
        # NotCriticalError, OverlapError and BudgetExceededError are
        # RuntimeErrors, as are the package's consistency checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        # a bad parameter, or an input file that cannot be read or an
        # output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
