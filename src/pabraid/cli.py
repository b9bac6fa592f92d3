"""Command-line interface.

Subcommands: ``dilatation``, ``table``, ``salem-boyd``, ``verify``,
``horseshoe``.  All decimal output is rounded to 10 significant digits and
every enclosure is printed with its exact rational endpoints, so identical
invocations produce byte-identical output.

Exit codes: 0 success; 1 a verify check failed; 2 invalid parameters or
input; 3 internal cross-validation (oracle) disagreement.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import families, horseshoe, spectral
from .families import Family, FamilyParams, OracleMismatchError, format_float
from .poly import IntPolynomial, SalemBoydSpec, Sign, salem_boyd
from .spectral import ConvergenceError, NoRealRootError, largest_real_root, mahler_measure, count_outside_unit

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_ORACLE_MISMATCH = 3

# below double precision the polished witness can fall outside its enclosure
_MIN_PRECISION_BITS = 53

_CSV_HEADER = "family,m,n,class,lambda,log_lambda"


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="enclosure width target (default 1e-9)")
    parser.add_argument("--precision", type=int, default=128, metavar="BITS",
                        help="working precision for witnesses and root sets (default 128, 53 to 1024)")


def _format_flags(parser: argparse.ArgumentParser) -> None:
    """``--format`` and ``--csv`` write one value, so the last of them wins."""
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    parser.add_argument("--csv", action="store_const", dest="format", const="csv", help="shorthand for --format csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pabraid",
        description="Certified dilatations of the two-parameter pseudo-Anosov braid families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dil = sub.add_parser("dilatation", help="dilatation of one family member")
    p_dil.add_argument("family", choices=("beta", "sigma"))
    p_dil.add_argument("m", type=int)
    p_dil.add_argument("n", type=int)
    _common_flags(p_dil)
    _format_flags(p_dil)

    p_table = sub.add_parser("table", help="sweep a rectangle of parameters")
    p_table.add_argument("family", choices=("beta", "sigma"))
    p_table.add_argument("m_range", help="inclusive range, e.g. 1..3")
    p_table.add_argument("n_range", help="inclusive range, e.g. 1..8")
    _common_flags(p_table)
    _format_flags(p_table)

    p_sb = sub.add_parser("salem-boyd", help="shifted-combination sweep of a monic base polynomial")
    p_sb.add_argument("poly_file", help="file holding ascending comma-separated coefficients")
    p_sb.add_argument("n_max", type=int)
    p_sb.add_argument("--sign", choices=("plus", "minus"), default="plus")
    _common_flags(p_sb)
    _format_flags(p_sb)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--depth", choices=("quick", "full"), default="quick")
    _common_flags(p_verify)

    p_hs = sub.add_parser("horseshoe", help="match a periodic-orbit code to family parameters")
    p_hs.add_argument("code", help="binary string")
    _common_flags(p_hs)

    return parser


def _check_common_flags(args) -> None:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    if not _MIN_PRECISION_BITS <= args.precision <= spectral._MAX_PREC_BITS:
        raise ValueError(
            f"--precision must be {_MIN_PRECISION_BITS} to {spectral._MAX_PREC_BITS} bits, got {args.precision}"
        )


def _parse_range(text: str) -> range:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"malformed range {text!r}; expected a..b")
    lo, hi = int(parts[0]), int(parts[1])
    if lo < 1:
        raise ValueError("range endpoints must be >= 1")
    if hi < lo:
        raise ValueError(f"empty range {text!r}; expected a..b with a <= b")
    return range(lo, hi + 1)


def _print_result(result: families.DilatationResult, fmt: str) -> None:
    print(",".join(result.to_csv_row()) if fmt == "csv" else _dumps(result.to_json_data()))


def _cmd_dilatation(args) -> int:
    params = FamilyParams(Family(args.family), args.m, args.n)
    _print_result(families.dilatation(params, args.tol, args.precision), args.format)
    return EXIT_OK


def _cmd_table(args) -> int:
    m_range = _parse_range(args.m_range)
    n_range = _parse_range(args.n_range)
    family = Family(args.family)
    if args.format == "csv":
        print(_CSV_HEADER)
    for m in m_range:
        for n in n_range:
            _print_result(families.dilatation(FamilyParams(family, m, n), args.tol, args.precision), args.format)
    return EXIT_OK


def _cmd_salem_boyd(args) -> int:
    try:
        text = Path(args.poly_file).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read polynomial file: {exc}") from exc
    base = IntPolynomial.from_text(text)
    if not base.is_monic():
        raise ValueError("base polynomial must be monic")
    if args.n_max < 0:
        raise ValueError("n_max must be >= 0")
    sign = Sign(args.sign)
    if args.format == "csv":
        print("n,mahler,lambda,outside,on_circle")
    for n in range(args.n_max + 1):
        q = salem_boyd(SalemBoydSpec(base, n, sign))
        row = _salem_boyd_row(q, args)
        row["n"] = n
        _emit_sb_row(row, args.format)
    final = _salem_boyd_row(base, args)
    final["n"] = "base"
    _emit_sb_row(final, args.format)
    return EXIT_OK


def _salem_boyd_row(f: IntPolynomial, args) -> dict:
    row: dict = {"n": None, "mahler": None, "lambda": None, "outside": None, "on_circle": None}
    if f.is_zero() or f.degree == 0:
        return row
    row["mahler"] = format_float(mahler_measure(f, tol=min(args.tol, 1e-8), prec=args.precision))
    census = count_outside_unit(f, tol=1e-9, prec=args.precision)
    row["outside"] = census.outside
    row["on_circle"] = census.on_circle
    try:
        enc = largest_real_root(f, None, args.tol, args.precision)
        row["lambda"] = format_float(enc.witness)
    except NoRealRootError:
        pass
    return row


def _emit_sb_row(row: dict, fmt: str) -> None:
    if fmt == "csv":
        cells = [str(row["n"])]
        for key in ("mahler", "lambda", "outside", "on_circle"):
            value = row[key]
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(f"{value:.10g}")
            else:
                cells.append(str(value))
        print(",".join(cells))
    else:
        print(_dumps(row))


def _cmd_verify(args) -> int:
    from . import verify  # the check registry loads only for this command

    report = verify.run_verify(args.depth, args.tol, args.precision)
    print(_dumps(report.to_json_data()))
    return EXIT_OK if report.passed == report.total else EXIT_CHECK_FAILED


def _cmd_horseshoe(args) -> int:
    orbit = horseshoe.canonicalize(args.code)
    match = horseshoe.code_to_family(args.code)
    data = {
        "code": orbit.word,
        "canonical": orbit.canonical,
        "family": None,
        "lambda": None,
    }
    if match is not None:
        data["family"] = {"m": match.m, "n": match.n, "form": match.form}
        result = families.dilatation(
            FamilyParams(Family.SIGMA, match.m, match.n), args.tol, args.precision
        )
        data["lambda"] = format_float(result.root.witness)
    print(_dumps(data))
    return EXIT_OK


_COMMANDS = {
    "dilatation": _cmd_dilatation,
    "table": _cmd_table,
    "salem-boyd": _cmd_salem_boyd,
    "verify": _cmd_verify,
    "horseshoe": _cmd_horseshoe,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_common_flags(args)
        return _COMMANDS[args.command](args)
    except OracleMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
