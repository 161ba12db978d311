"""Command-line interface: classify germs, export Lefschetz study data.

Commands:
    morinclass classify FILE [--trace] [--point ...] [--numeric [--tol-rank R] [--tol-zero Z]]
    morinclass lefschetz slice --b2 R [--grid N] [--range lo:hi] [--out FILE]
    morinclass lefschetz slice --all-paper-slices [--outdir DIR]
    morinclass lefschetz noncusp
    morinclass lefschetz witness --params a1,a2,b1,b2

Any mathematical outcome (including degeneracies) exits 0 with a JSON
report; only parse and I/O problems, bad options and slice values beyond
the float range exit nonzero, with status 2 and an `error: ...` line.  An
option that the chosen mode would ignore is a bad option.

Only `classify --numeric` and `lefschetz slice` load numpy, on first use.
"""

import argparse
import json
import re
import sys
from pathlib import Path

from . import lefschetz
from .criteria import classify
from .germ import MalformedGermError
from .parsing import ParseError, parse_germ_document, parse_rational
from .rationals import format_rational

EXIT_OK = 0
EXIT_ERROR = 2

# options whose value may start with "-", as in `--b2 -1/2`, which argparse
# would read as an option of its own
SIGNED_VALUE_OPTIONS = ("--b2", "--params", "--point", "--range")


def label_to_dict(label):
    out = {"kind": label.kind}
    if label.k is not None:
        out["k"] = label.k
    if label.signature is not None:
        out["signature"] = list(label.signature)
    if label.reason is not None:
        out["reason"] = label.reason
    return out


def report_to_dict(report, include_trace=False):
    trace = report.trace
    out = {
        "label": label_to_dict(report.label),
        "m": trace.get("m"),
        "n": trace.get("n"),
        "rank_df0": trace.get("rank_df0"),
    }
    for key in ("nondegeneracy", "h_at_0", "h_derivs_at_0", "condition_b",
                "theta_column", "theta_at_0", "frame"):
        if key in trace:
            out[key] = trace[key]
    if include_trace and "lambdas" in trace:
        out["trace"] = {"lambdas": trace["lambdas"]}
        if "h" in trace:
            out["trace"]["h"] = trace["h"]
    out["warnings"] = []
    return out


def verdict_to_dict(verdict):
    return {
        "label": label_to_dict(verdict.label),
        "point": list(verdict.point),
        "residual": verdict.residual,
        "margins": [
            {"name": m.name, "value": m.value, "threshold": m.threshold}
            for m in verdict.margins
        ],
    }


def _emit(payload):
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _fail(message):
    """Report a parse, I/O or option problem: one `error:` line, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def cmd_classify(args):
    if not args.numeric and (args.tol_rank is not None or args.tol_zero is not None):
        return _fail("--tol-rank and --tol-zero need --numeric")
    if args.numeric and args.trace:
        return _fail("--trace needs the exact path: --numeric writes no trace")
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(f"cannot read {args.file}: {exc}")
    try:
        doc = parse_germ_document(text)
        germ = doc.to_germ()
        germ.check_wellformed()
    except (ParseError, MalformedGermError) as exc:
        return _fail(exc)

    point = doc.base_point
    if args.point:
        try:
            point = tuple(parse_rational(v) for v in args.point.split(","))
        except ParseError:
            return _fail(f"bad --point value {args.point!r}")
        if len(point) != len(doc.source_vars):
            return _fail(f"--point needs {len(doc.source_vars)} coordinates")

    if args.numeric:
        from .numeric import Tolerances, numeric_classify

        given = {"rank_tol": args.tol_rank, "zero_tol": args.tol_zero}
        try:
            tol = Tolerances(**{k: v for k, v in given.items() if v is not None})
        except ValueError as exc:
            return _fail(f"bad --tol-* value: {exc}")
        try:
            at = [float(v) for v in point or (0,) * len(doc.source_vars)]
        except OverflowError:
            return _fail("base point is out of the float range of --numeric")
        try:
            verdict = numeric_classify(germ, at, tol)
        except (OverflowError, ValueError) as exc:  # FloatRangeError among them
            return _fail(exc)
        payload = {"numeric": True, "verdict": verdict_to_dict(verdict)}
        _emit(payload)
        return EXIT_OK

    work = germ
    translated_at = None
    if point and any(v != 0 for v in point):
        work = germ.translate(point)
        translated_at = [format_rational(v) for v in point]
    report = classify(work, trace=args.trace)
    payload = report_to_dict(report, include_trace=args.trace)
    if translated_at:
        payload["base_point"] = translated_at
    _emit(payload)
    return EXIT_OK


def _parse_range(text):
    lo, _, hi = text.partition(":")
    return parse_rational(lo), parse_rational(hi)


def cmd_lefschetz_slice(args):
    if args.all_paper_slices and (args.b2 is not None or args.out is not None):
        return _fail("--all-paper-slices takes neither --b2 nor --out")
    if not args.all_paper_slices and args.outdir is not None:
        return _fail("--outdir needs --all-paper-slices (--out names one slice's file)")
    try:
        rng = _parse_range(args.range)
    except ParseError:
        return _fail(f"bad --range value {args.range!r} (expected lo:hi)")
    if rng[0] >= rng[1]:
        return _fail(f"bad --range value {args.range!r} (expected lo < hi)")
    if args.grid < 2:
        return _fail("--grid must be at least 2")
    jobs = []
    if args.all_paper_slices:
        outdir = Path(args.outdir or ".")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _fail(f"cannot create {outdir}: {exc}")
        for b2 in lefschetz.STANDARD_SLICE_VALUES:
            jobs.append((b2, outdir / lefschetz.slice_filename(b2)))
    else:
        if args.b2 is None:
            return _fail("--b2 is required (or use --all-paper-slices)")
        try:
            b2 = parse_rational(args.b2)
        except ParseError:
            return _fail(f"bad --b2 value {args.b2!r}")
        jobs.append((b2, Path(args.out) if args.out else None))
    for b2, path in jobs:
        try:
            grid = lefschetz.emit_slice(b2, args.grid, rng)
        except MemoryError:
            return _fail(f"--grid {args.grid} is too large: "
                         f"{args.grid}^3 grid points do not fit in memory")
        except ValueError as exc:  # a value beyond the float range
            return _fail(exc)
        # the default name once the values are floats: a huge b2 takes long to write out
        path = path or Path(lefschetz.slice_filename(b2))
        try:
            lefschetz.write_slice_csv(grid, path)
        except OSError as exc:
            return _fail(f"cannot write {path}: {exc}")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_lefschetz_noncusp(_args):
    locus = lefschetz.noncusp_polynomials()
    for i, comp in enumerate(locus.components, start=1):
        print(f"n{i} = {comp.render()}")
    return EXIT_OK


def cmd_lefschetz_witness(args):
    try:
        params = tuple(parse_rational(v) for v in args.params.split(","))
        if len(params) != 4:
            raise ValueError
    except ValueError:
        return _fail("--params needs four rationals a1,a2,b1,b2")
    report = lefschetz.witness_verify(params)
    payload = {
        "params": [format_rational(v) for v in report.params],
        "component_values": [format_rational(v) for v in report.component_values],
        "on_locus": report.on_locus,
        "witness": [format_rational(v) for v in report.witness] if report.witness else None,
        "witness_label": label_to_dict(report.witness_label) if report.witness_label else None,
        "counterexample_candidate": report.counterexample_candidate,
        "singular_candidates": [
            {"name": name, "point": [format_rational(v) for v in pt], "label": label_to_dict(lab)}
            for name, pt, lab in report.candidates
        ],
    }
    _emit(payload)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morinclass",
        description="Exact fold/cusp/Morin classification of polynomial map germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a germ file")
    p_classify.add_argument("file")
    p_classify.add_argument(
        "--trace", action="store_true",
        help="build the lambda/h polynomials, which a fold otherwise skips, and include them",
    )
    p_classify.add_argument("--point", help="classify at a translated base point a,b,...")
    p_classify.add_argument("--numeric", action="store_true", help="threshold classification")
    p_classify.add_argument("--tol-rank", type=float)
    p_classify.add_argument("--tol-zero", type=float)
    p_classify.set_defaults(func=cmd_classify)

    p_lef = sub.add_parser("lefschetz", help="Lefschetz bifurcation study")
    lef_sub = p_lef.add_subparsers(dest="lefschetz_command", required=True)

    p_slice = lef_sub.add_parser("slice", help="export a slice of the published displays as CSV")
    p_slice.add_argument("--b2", help="rational value of b2, e.g. 1/4")
    p_slice.add_argument("--grid", type=int, default=101, help="nodes per axis")
    p_slice.add_argument("--range", default="-1:1", help="axis range lo:hi")
    p_slice.add_argument("--out", help="output CSV path")
    p_slice.add_argument("--all-paper-slices", action="store_true",
                         help="write the five standard slices b2 in {-1/2,-1/4,0,1/4,1/2}")
    p_slice.add_argument("--outdir", help="directory for --all-paper-slices (default: .)")
    p_slice.set_defaults(func=cmd_lefschetz_slice)

    p_noncusp = lef_sub.add_parser(
        "noncusp",
        help="print the five published non-cusp displays "
        "(the locus itself is a1=b1=0 or a2=b2=0)",
    )
    p_noncusp.set_defaults(func=cmd_lefschetz_noncusp)

    p_witness = lef_sub.add_parser("witness", help="witness search at parameter values")
    p_witness.add_argument("--params", required=True, help="a1,a2,b1,b2 as rationals")
    p_witness.set_defaults(func=cmd_lefschetz_witness)
    return parser


def _attach_signed_values(argv):
    """Join `--b2 -1/2` into `--b2=-1/2` for the options of SIGNED_VALUE_OPTIONS."""
    out = []
    for token in argv:
        if out and out[-1] in SIGNED_VALUE_OPTIONS and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
