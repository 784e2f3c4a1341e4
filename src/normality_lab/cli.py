"""Command-line front end: seeded, reproducible experiments with CSV/JSON out.

Subcommands: validate, classify, fourier, decay, orbit, digits, beta-orbit,
power-orbit, normality, correlations, spacings, martingale.  Exit codes:
0 success, 2 validation failure, 3 precision/budget exhaustion, 4 bad
configuration.  CSV output starts with '# key=value' metadata lines (tool
version, seed, system hash, parameters) and is byte-identical for identical
(config, seed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import __version__, experiments as exp
from .errors import (
    ConfigParseError,
    NormalityLabError,
    PrecisionError,
    ValidationError,
)
from .fourier import MAX_BANDS
from .ifs import load_system
from .sampling import MAX_DIGITS, MAX_PRECISION_BITS

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECISION = 3
EXIT_CONFIG = 4


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 4)."""

    def error(self, message):
        raise ConfigParseError(message)


def _checked(convert, ok, requirement: str):
    """argparse `type`: `convert` the text, then require `ok(value)`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_nonnegative_int = _checked(int, lambda v: v >= 0, ">= 0")
# resource caps: --q-max sizes arrays of that many frequencies, ball
# iteration works on integers of at least --precision-bits bits (its other
# cap, length x working precision, is checked once beta is known), and a
# --length that may not go through digits() (whose bit cap bounds the
# orbit source) sizes a sequence of that many values
_MAX_Q = 10 ** 5
_q_max = _checked(int, lambda v: v <= _MAX_Q, f"<= {_MAX_Q}")
_capped_length = _checked(int, lambda v: 0 <= v <= MAX_DIGITS,
                          f"between 0 and {MAX_DIGITS}")
_precision_bits = _checked(int, lambda v: 1 <= v <= MAX_PRECISION_BITS,
                           f"between 1 and {MAX_PRECISION_BITS}")
# one band of the decay profile per j = 0 .. --j-max
_j_max = _checked(int, lambda v: 0 <= v <= MAX_BANDS,
                  f"between 0 and {MAX_BANDS}")
# NaN fails every comparison, so it would switch off the truncation tests
_tolerance = _checked(float, lambda v: math.isfinite(v) and v > 0,
                      "finite and > 0")
# a NaN threshold passes no sample, and NaN or infinity is not JSON
_finite = _checked(float, math.isfinite, "finite")


def _add_common(p: _Parser, system_required: bool = True,
                default_tol: float = 1e-9):
    p.add_argument("--system", required=system_required,
                   help="system definition file (JSON)")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--tol", type=_tolerance, default=default_tol)
    p.add_argument("--budget", type=_positive_int, default=10 ** 7)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> _Parser:
    """The argument parser: syntax and size checks only.  What a value
    means is read by the subcommand's runner, `experiments.run_<name>`."""
    parser = _Parser(prog="normality-lab",
                     description="experiments on normality of self-similar measures")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[], help="check system invariants")
    _add_common(p)

    p = sub.add_parser("classify", help="obstruction-form classification")
    _add_common(p)
    p.add_argument("--base", type=int, required=True)

    p = sub.add_parser("fourier", help="exact transform at one frequency")
    _add_common(p)
    p.add_argument("--q", required=True, help="rational frequency, e.g. 17/2")

    p = sub.add_parser("decay", help="band sups of |F_q| and regime fit")
    _add_common(p, default_tol=1e-6)
    p.add_argument("--j-max", type=_j_max, default=16)
    p.add_argument("--per-band", type=_positive_int, default=512)

    p = sub.add_parser("orbit", help="certified T_b orbit values")
    _add_common(p)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--length", type=_nonnegative_int, default=1000)
    p.add_argument("--samples", type=_positive_int, default=1)
    p.add_argument("--guard", type=_nonnegative_int, default=16)

    p = sub.add_parser("digits", help="certified base-b digit stream")
    _add_common(p)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--guard", type=_nonnegative_int, default=16)

    p = sub.add_parser("beta-orbit", help="beta-transformation orbit")
    _add_common(p, system_required=False)
    p.add_argument("--beta", default=None, help="rational beta, e.g. 5/2")
    p.add_argument("--beta-poly", default=None,
                   help="monic integer polynomial, leading first: 1,-1,-1")
    p.add_argument("--beta-lo", default=None, help="enclosure low endpoint")
    p.add_argument("--beta-hi", default=None, help="enclosure high endpoint")
    p.add_argument("--x", default=None, help="exact rational start point")
    p.add_argument("--length", type=_capped_length, default=100)
    p.add_argument("--precision-bits", type=_precision_bits, default=None,
                   help="minimum working precision for ball iteration")

    p = sub.add_parser("power-orbit", help="x^n mod 1 sequence")
    _add_common(p, system_required=False)
    p.add_argument("--x", required=True, help="rational x > 1, e.g. 3/2")
    p.add_argument("--length", type=_capped_length, default=1000)
    p.add_argument("--precision-bits", type=_precision_bits, default=None,
                   help="minimum working precision for ball iteration")

    p = sub.add_parser("normality", help="discrepancy, digit and Weyl stats")
    _add_common(p)
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--length", type=_nonnegative_int, default=10000)
    p.add_argument("--q-max", type=_q_max, default=10)
    p.add_argument("--samples", type=_positive_int, default=1)
    p.add_argument("--guard", type=_nonnegative_int, default=16)
    p.add_argument("--disc-threshold", type=_finite, default=0.05)
    p.add_argument("--weyl-threshold", type=_finite, default=0.05)

    p = sub.add_parser("correlations", help="k-level correlation R_k")
    _add_common(p, system_required=False)
    p.add_argument("--source", choices=("orbit", "power", "uniform"),
                   default="orbit")
    p.add_argument("--base", type=int, default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--length", type=_capped_length, default=10000)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--box", default=None, help="box half-width (rational)")
    p.add_argument("--triangle", default=None,
                   help="triangle half-width (rational)")
    p.add_argument("--samples", type=_positive_int, default=1)

    p = sub.add_parser("spacings", help="level-spacing distribution")
    _add_common(p, system_required=False)
    p.add_argument("--source", choices=("orbit", "power", "uniform"),
                   default="orbit")
    p.add_argument("--base", type=int, default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--length", type=_capped_length, default=10000)
    p.add_argument("--s-grid", default="0:5:0.1")
    p.add_argument("--samples", type=_positive_int, default=1)

    p = sub.add_parser("martingale", help="orbit vs cylinder-average modes")
    _add_common(p, default_tol=1e-6)
    p.add_argument("--base", type=int, required=True, help="integer base p")
    p.add_argument("--q", default="1", help="comma-separated integer q list")
    p.add_argument("--N-list", dest="n_list", default="100,1000,10000")
    p.add_argument("--samples", type=_positive_int, default=1)
    return parser


def _metadata(args, system) -> dict:
    skip = {"out", "format", "subcommand", "system"}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return {
        "tool": "normality-lab",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "system_hash": exp.system_hash(system) if system else None,
        "parameters": params,
    }


def _fields(column) -> list:
    """A column's fields as `csv.writer` writes them: the str of each value
    (arrays become Python values first: in numpy 2, `repr(np.float64(x))`
    is not `repr(x)`), and text holding a delimiter, quote or line break
    quoted by the csv module itself."""
    values = column.tolist() if hasattr(column, "tolist") else column
    fields = list(map(str, values))
    joined = "".join(fields)
    if not any(c in joined for c in ',"\r\n'):
        return fields
    for i, text in enumerate(fields):
        if any(c in text for c in ',"\r\n'):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow([text])
            fields[i] = buf.getvalue()[:-1]
    return fields


# a table is formatted and written this many rows at a time, so that its
# text is never held whole
_BLOCK_ROWS = 1 << 16


def _lines(columns: list) -> str:
    """The CSV lines of rows whose fields are given column by column."""
    if len(columns) == 1:
        # csv.writer quotes a row made of one empty field
        columns = [[f or '""' for f in columns[0]]]
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _write_csv(stream, meta: dict, table: dict):
    """Write the bytes of csv.writer(stream, lineterminator="\n") writing
    the header and the rows, after the metadata lines; the fields are
    formatted one column of a block of rows at a time."""
    for key in ("tool", "version", "subcommand", "seed", "system_hash"):
        stream.write(f"# {key}={meta[key]}\n")
    stream.write(f"# parameters={json.dumps(meta['parameters'], sort_keys=True)}\n")
    n_rows = len(next(iter(table.values())))
    if not n_rows:
        return      # a table without rows gets no header line either
    stream.write(_lines([[name] for name in _fields(list(table))]))
    for start in range(0, n_rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        stream.write(_lines([_fields(col[block]) for col in table.values()]))


def _write(stream, args, meta: dict, table: dict, results) -> None:
    if args.format == "json":
        payload = dict(meta)
        payload["results"] = results
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _write_csv(stream, meta, table)


def _emit(args, meta: dict, table: dict, results) -> None:
    """Write the output to --out, or to stdout without it."""
    if not args.out:
        try:
            _write(sys.stdout, args, meta, table, results)
            sys.stdout.flush()
        except OSError as exc:
            # stdout goes to devnull so the flush at exit cannot fail again:
            # a reader that left (`| head`) ends the run quietly, else exit 4
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if not isinstance(exc, BrokenPipeError):
                raise ConfigParseError(
                    f"cannot write output: {exc}") from exc
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write(fh, args, meta, table, results)
    except OSError as exc:
        raise ConfigParseError(f"cannot write output file: {exc}") from exc


# built on the first call, not at import: importing the CLI stays cheap
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        validating = args.subcommand == "validate"
        # validate loads unchecked so its report covers every failed invariant
        system = (load_system(args.system, check=not validating)
                  if args.system else None)
        # looked up on every call, so code that replaces a runner (the
        # benchmark's tracer) sees the call
        run = getattr(exp, "run_" + args.subcommand.replace("-", "_"))
        table, results = run(args, system)
        _emit(args, _metadata(args, system), table, results)
        return (EXIT_VALIDATION if validating and not results["ok"]
                else EXIT_OK)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PrecisionError as exc:
        print(f"precision/budget error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NormalityLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
