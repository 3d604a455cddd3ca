"""Command line front end.

Subcommands:

- ``poly``: interval enumerators of the rotation lattice on trees of size n,
  optionally specialized, or the two-variable view with its triangle table.
- ``series``: solve one of the catalytic equation systems as an exact
  truncated series; restricted modes also report the algebraic residual.
- ``verify``: run the verification suites and summarize the reports.
- ``table``: joint distribution of two interval statistics, read from the
  cached interval histogram; csv output writes one row per interval
  instead, formatting the row text once per interval class and writing it
  in blocks of ``BLOCK_PIECES`` rows, so no record is built or held.
- ``trees``: enumerate the trees of a given size with canopy and
  left-border composition.

Exit status: 0 on success, 1 when a verification or residual check fails,
2 on usage errors.
"""

import argparse
import contextlib
import json
import sys
from itertools import islice

from . import tamari, verify
from .series import (BICUBIC_RESIDUAL_COEFFS, SYNC_RESIDUAL_COEFFS, Mode,
                     SystemConfig, residual, solve)
from .poset import INTERVAL_VARS

STAT_FIELDS = tamari.IntervalClass._fields[:7]


# pieces joined per write: about 50 KB of ``table --format csv`` rows
BLOCK_PIECES = 2048


def _write(pieces, path):
    """Write the text made of ``pieces`` (streamed, so it need not be held
    whole) to ``path``, or to stdout, joining up to ``BLOCK_PIECES`` pieces
    per ``write``.  Stdout always gets one more newline, as ``print`` adds;
    a file gets one only if the last piece does not end in one.  The newline
    goes out with the last block, so a single piece is a single ``write``."""
    pieces = iter(pieces)
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
        block = list(islice(pieces, BLOCK_PIECES))
        while True:
            last = block[-1] if block else ""
            text = "".join(block)
            block = list(islice(pieces, BLOCK_PIECES))
            if not block:
                break
            out.write(text)
        if not path or not last.endswith("\n"):
            text += "\n"
        out.write(text)


def _json_dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def _poly_csv(p):
    lines = ["coeff," + ",".join(p.vars)]
    for exp in sorted(p.terms):
        lines.append(",".join([str(p.terms[exp])] + [str(e) for e in exp]))
    return "\n".join(lines)


def _matrix_lines(matrix):
    width = max((len(str(c)) for row in matrix for c in row), default=1)
    out = []
    for row in matrix:
        out.append("  ".join(str(c).rjust(width) if c else ".".rjust(width) for c in row))
    return out


def _parse_spec(parser, text):
    bindings = {}
    for item in text.split(","):
        if "=" not in item:
            parser.error(f"bad substitution {item!r}; expected var=integer")
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in INTERVAL_VARS:
            parser.error(f"unknown variable {name!r}; choose from {INTERVAL_VARS}")
        if name in bindings:
            parser.error(f"variable {name!r} substituted twice")
        try:
            bindings[name] = int(value)
        except ValueError:
            parser.error(f"substitution value {value!r} is not an integer")
    return bindings


def _cmd_poly(parser, args):
    if args.two_var:
        if args.spec is not None:
            parser.error("--spec does not apply to --two-var")
        lattice_poly = tamari.valence_polynomial(args.n)
        _, matrix = verify.interval_triangle(args.n)
        if args.format == "json":
            _write([_json_dump({"valence": lattice_poly.to_json(),
                                "interval_triangle": matrix})], args.output)
        elif args.format == "csv":
            _write([_poly_csv(lattice_poly)], args.output)
        else:
            lines = [str(lattice_poly),
                     "interval triangle (a exponent rightward, abar exponent upward):"]
            lines += _matrix_lines(matrix)
            _write(["\n".join(lines)], args.output)
        return 0
    p = tamari.interval_valence_polynomial(args.n)
    if args.spec is not None:
        bindings = _parse_spec(parser, args.spec)
        remaining = tuple(v for v in INTERVAL_VARS if v not in bindings)
        p = p.substitute(bindings, remaining)
    if args.format == "json":
        _write([_json_dump(p.to_json())], args.output)
    elif args.format == "csv":
        _write([_poly_csv(p)], args.output)
    else:
        _write([str(p)], args.output)
    return 0


def _cmd_series(parser, args):
    config = SystemConfig(Mode(args.mode), args.N)
    out = solve(config)
    at_unit = out.intervals_at_unit()
    restricted = config.mode in (Mode.SYNCHRONOUS_RESTRICTED, Mode.BICUBIC_RESTRICTED)
    res_zero = None
    counts = None
    if restricted:
        coeffs = (SYNC_RESIDUAL_COEFFS if config.mode is Mode.SYNCHRONOUS_RESTRICTED
                  else BICUBIC_RESIDUAL_COEFFS)
        res_zero = residual(at_unit, coeffs).is_zero()
        counts = at_unit.constant_values()[1:]
    if args.format == "json":
        doc = {
            "mode": config.mode.value,
            "N": config.N,
            "universe": list(config.universe),
            "intervals": out.intervals.to_json(),
            "indecomposable": out.indecomposable.to_json(),
            "intervals_at_unit": at_unit.to_json(),
        }
        if restricted:
            doc["counts"] = counts
            doc["residual_zero"] = res_zero
        _write([_json_dump(doc)], args.output)
    else:
        lines = [f"mode {config.mode.value}, truncation t^{config.N}"]
        lines.append("intervals:")
        lines.append(str(out.intervals))
        lines.append("indecomposable:")
        lines.append(str(out.indecomposable))
        lines.append("intervals with catalytic variables at 1:")
        lines.append(str(at_unit))
        if restricted:
            lines.append("counts: " + ", ".join(str(c) for c in counts))
            lines.append(f"algebraic residual through t^{config.N - 1}: "
                         + ("0" if res_zero else "NONZERO"))
        _write(["\n".join(lines)], args.output)
    return 0 if res_zero in (None, True) else 1


def _cmd_verify(parser, args):
    suites = args.suite.split(",") if args.suite != "all" else ["all"]
    try:
        reports = verify.run_suites(suites, args.max_n)
    except ValueError as exc:
        parser.error(str(exc))
    ok = all(r.status != "fail" for r in reports)
    if args.format == "json":
        _write([_json_dump([r.to_dict() for r in reports])], args.output)
    else:
        skipped = sum(r.status == "skip" for r in reports)
        verdict = "all suites passed" if ok else "FAILURES PRESENT"
        if ok and skipped:
            verdict += f" ({skipped} skipped)"
        _write([verify.summarize_reports(reports) + "\n" + verdict], args.output)
    return 0 if ok else 1


def _cmd_table(parser, args):
    first, _, second = args.pair.partition(",")
    first, second = first.strip(), second.strip()
    if first not in STAT_FIELDS or second not in STAT_FIELDS:
        parser.error(f"bad statistic pair {args.pair!r}; choose two of {STAT_FIELDS}")
    if "q" in (first, second) and args.n > 7:
        parser.error("the chain statistic q is supported for n <= 7")
    if args.format == "csv":
        _write(tamari.interval_csv(args.n), args.output)
        return 0
    histogram = tamari.interval_histogram(args.n).counts
    table = verify.distribution_table(histogram, first, second)
    total = sum(table.values())
    size = max(max(i for i, _ in table), max(j for _, j in table)) + 1
    matrix = verify.table_to_matrix(table, size)
    if args.format == "json":
        _write([_json_dump({"n": args.n, "pair": [first, second],
                            "matrix": matrix, "total": total})], args.output)
    else:
        lines = [f"intervals of the size-{args.n} lattice by ({first}, {second}); "
                 f"{first} rightward from 0, {second} upward from 0"]
        lines += _matrix_lines(matrix)
        lines.append(f"total {total}")
        _write(["\n".join(lines)], args.output)
    return 0


def _cmd_trees(parser, args):
    trees = tamari.enumerate_trees(args.n)
    rows = [{"index": i,
             "tree": tamari.encode(t),
             "canopy": tamari.canopy(t),
             "composition": list(tamari.composition(t))}
            for i, t in enumerate(trees)]
    if args.format == "json":
        _write([_json_dump(rows)], args.output)
    elif args.format == "csv":
        lines = ["index,tree,canopy,composition"]
        for r in rows:
            comp = " ".join(str(c) for c in r["composition"])
            lines.append(f"{r['index']},\"{r['tree']}\",{r['canopy']},{comp}")
        _write(["\n".join(lines)], args.output)
    else:
        lines = [f"{r['index']}\t{r['tree']}\t{r['canopy']}\t"
                 + ",".join(str(c) for c in r["composition"]) for r in rows]
        _write(["\n".join(lines)], args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="intervalence",
        description="Exact interval enumerators of rotation lattices on binary trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", metavar="PATH", default=None)

    p_poly = sub.add_parser("poly", help="interval enumerator polynomials")
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--two-var", action="store_true",
                        help="two-variable lattice valence view with triangle table")
    p_poly.add_argument("--spec", metavar="VAR=INT[,VAR=INT...]", default=None,
                        help="integer substitutions into x, y, ybar, xbar")
    common(p_poly, ("text", "json", "csv"))

    p_series = sub.add_parser("series", help="solve a catalytic equation system")
    p_series.add_argument("--mode", choices=[m.value for m in Mode], required=True)
    p_series.add_argument("--N", type=int, default=9,
                          help="exclusive truncation order of t (default 9)")
    common(p_series, ("text", "json"))

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          help="comma-separated suite ids, or 'all' (default)")
    p_verify.add_argument("--max-n", type=int, default=5, dest="max_n")
    common(p_verify, ("text", "json"))

    p_table = sub.add_parser("table", help="joint distribution of two statistics")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--pair", default="dy,dybar",
                         help="two statistic names, comma separated (default dy,dybar)")
    common(p_table, ("text", "json", "csv"))

    p_trees = sub.add_parser("trees", help="enumerate trees of a given size")
    p_trees.add_argument("--n", type=int, required=True)
    common(p_trees, ("text", "json", "csv"))

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("poly", "table", "trees") and not 1 <= args.n <= 9:
        parser.error("tree size n must satisfy 1 <= n <= 9")
    if args.command == "series" and not 1 <= args.N <= 12:
        parser.error("truncation order N must satisfy 1 <= N <= 12")
    if args.command == "verify" and not 1 <= args.max_n <= 8:
        parser.error("--max-n must satisfy 1 <= max-n <= 8")
    handlers = {
        "poly": _cmd_poly,
        "series": _cmd_series,
        "verify": _cmd_verify,
        "table": _cmd_table,
        "trees": _cmd_trees,
    }
    try:
        return handlers[args.command](parser, args)
    except OSError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
