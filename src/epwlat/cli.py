"""Command-line front end.

Subcommands: ``pell`` (negative Pell solver), ``lattice`` (catalog or
inline-Gram reports), ``family`` (degree family tables), ``ogrady``
(genus-parameter classification), ``verify`` (run every identity check).

Exit codes: 0 success, 1 usage or input error, 2 valid input with a
negative result (unsolvable Pell equation), 3 verification failure.
argparse reports a usage error itself (its usage line, then one
``epwlat: error: ...`` line on stderr) and exits with status 2, which
``main`` maps to exit 1. Every input error is one ``error: ...`` line on
stderr and exit 1; the handlers raise ``ValueError`` or ``OSError`` and
``main`` alone reports them.
Output is deterministic; CSV uses a header row, comma separators and
newline-terminated records, with plain decimal integers.

Output has one path: each handler builds its rows once and hands them to
``_emit``, which writes them. CSV writes the rows; human format writes an
aligned table of them or the handler's own lines, made only in human
format. Only ``_emit`` and ``cmd_lattice`` branch on the format (the
signature is one column in human format, three in CSV). The text is
complete before any of it is written, so an error while it is made (an
int too large to convert to decimal) leaves stdout empty in both formats.

``main`` parses with one parser per process, built on its first call (not
at import), so a caller that runs ``main`` many times builds it once;
``build_parser`` still returns a fresh parser. Reuse is safe because
argparse fills a fresh namespace on every ``parse_args``, and usage,
help and version text is wrapped to the terminal width (``COLUMNS``) read
when it is printed, not when the parser is built.

Imports: at module level only what ``pell`` needs (``argparse``, ``csv``,
the package ``__init__``, ``errors`` and ``pell``). Every other handler
imports its own modules (``catalog``, ``lattices``, ``epwfamily``,
``verify``) when it runs, so ``epwlat pell`` never loads the lattice code.
``pell`` stays eager: a lazy import would only move its cost into the
first call. Every record of the package (``Lattice`` and ``Isometry``
among them) is a ``typing.NamedTuple``, so no subcommand loads a record
decorator or the ``inspect`` module it would import (``tests/test_cli.py``
checks ``epwlat.cli`` and ``epwlat.verify``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from . import __version__, pell

if TYPE_CHECKING:
    from .lattices import Lattice, Signature

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSOLVABLE = 2
EXIT_VERIFY_FAILED = 3


def _emit(fmt: str, header: list[str], rows: list[list],
          human: Optional[Callable[[], Iterable[str]]] = None) -> None:
    """Write ``rows`` under ``header`` to stdout: as CSV, or in human format
    as ``human()``'s lines when given, else as a table with aligned columns.
    The whole text is built before it is written."""
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
        text = out.getvalue()
    elif human is None:
        cells = [list(map(str, r)) for r in (header, *rows)]
        widths = [max(map(len, col)) for col in zip(*cells)]
        text = "".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n"
                       for r in cells)
    else:
        text = "".join(f"{line}\n" for line in human())
    sys.stdout.write(text)


def _signature_str(sig: Signature) -> str:
    if sig.zero:
        return f"({sig.positive},{sig.negative};{sig.zero})"
    return f"({sig.positive},{sig.negative})"


def _parse_gram(text: str) -> Lattice:
    from .lattices import Lattice

    text = text.strip()
    if not text:
        raise ValueError("empty Gram matrix")
    rows = []
    for chunk in text.split(";"):
        if not chunk.strip():
            raise ValueError("empty row in Gram matrix")
        try:
            rows.append([int(e) for e in chunk.split(",")])
        except ValueError:
            quoted = repr(chunk[:40]) + "..." * (len(chunk) > 40)
            # int() refuses a base-10 integer literal only for its length
            if all(re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", e) for e in chunk.split(",")):
                raise ValueError(f"Gram entry in {quoted} has over "
                                 f"{sys.get_int_max_str_digits()} digits, int()'s limit")
            raise ValueError(f"non-integer Gram entry in {quoted}")
    return Lattice(rows)


def cmd_pell(args) -> int:
    d = args.d
    if d < 1:
        raise ValueError("D must be a positive integer")
    # before the --count check, so a perfect square D > 1 is reported first
    cf = pell.cf_expansion(d) if d > 1 else None
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if d == 1:
        # degenerate: y^2 - x^2 = -1 has only (y, x) = (0, 1)
        _emit(args.format, ["d", "solvable", "y", "x"], [[1, "true", 0, 1]],
              lambda: ["D=1: solvable (degenerate); only solution (y, x) = (0, 1)"])
        return EXIT_OK
    if not cf.solvable:
        _emit(args.format, ["d", "solvable", "period_length"], [[d, "false", cf.period_length]],
              lambda: [f"D={d}: unsolvable (continued-fraction period length "
                       f"{cf.period_length} is even)"])
        return EXIT_UNSOLVABLE
    sols = pell.negative_solutions(cf, args.count)
    rows = [[d, i, s.y, s.x] for i, s in enumerate(sols)]

    def human():
        # the minimal solution goes to decimal once, for its two lines
        y0, x0 = str(sols[0].y), str(sols[0].x)
        yield f"D={d}: solvable; minimal solution (y, x) = ({y0}, {x0})"
        yield f"  n=0: y={y0} x={x0}"
        yield from (f"  n={i}: y={y} x={x}" for _, i, y, x in rows[1:])

    _emit(args.format, ["d", "index", "y", "x"], rows, human)
    return EXIT_OK


def cmd_lattice(args) -> int:
    from . import catalog

    if args.id is not None:
        lat = catalog.build(args.id)
        label = args.id
    else:
        text = args.gram
        if args.gram_file is not None:
            with open(args.gram_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        lat = _parse_gram(text)
        label = "inline"

    rep = catalog.report_of(lat)
    # the signature is one column in human format, three in CSV
    if args.format == "csv":
        signature = dict(zip(("sig_positive", "sig_negative", "sig_zero"), rep.signature))
    else:
        signature = {"signature": _signature_str(rep.signature)}
    columns = {"rank": rep.rank, "discriminant": rep.discriminant, **signature,
               "even": str(rep.even).lower()}
    names = {"report": columns, "disc": ["discriminant"], "signature": signature,
             "even": ["even"]}[args.op]
    _emit(args.format, ["lattice", *names], [[label, *(columns[c] for c in names)]])
    return EXIT_OK


def cmd_family(args) -> int:
    from . import epwfamily

    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError("need 1 <= n-min <= n-max")
    records = map(epwfamily.family, range(args.n_min, args.n_max + 1))
    _emit(args.format, ["n", "d", "g", "r", "gamma_delta2", "disc_pi", "pell_y", "pell_x"],
          [[rec.n, rec.d, rec.g, rec.ogrady_r, rec.gram_pi[0][1], rec.disc_pi,
            rec.pell.y, rec.pell.x] for rec in records])
    return EXIT_OK


def cmd_ogrady(args) -> int:
    from . import epwfamily

    r = args.r
    status = epwfamily.ogrady_status(r)
    case, rec = status.case, status.record

    def human():
        if case is epwfamily.OgradyCase.EVEN_FAMILY:
            yield f"r={r}: even family, n={rec.n}, d={rec.d}"
        elif case is epwfamily.OgradyCase.OGRADY_R2:
            yield f"r={r}: O'Grady's case, {status.note}"
        elif case is epwfamily.OgradyCase.CLASSICAL_R0:
            yield f"r={r}: classical case"
        else:
            note = f" ({status.note})" if status.note else ""
            yield f"r={r}: odd, open{note}"

    _emit(args.format, ["r", "status", "n", "d"],
          [[r, case.name, rec.n if rec else "", rec.d if rec else ""]], human)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(args.n_max)
    rows = [[r.name, "PASS" if r.passed else "FAIL", r.detail] for r in results]
    _emit(args.format, ["check", "status", "detail"], rows, lambda: [
        *(f"{mark} {name}: {detail}" for name, mark, detail in rows),
        f"{sum(r.passed for r in results)}/{len(rows)} check groups passed "
        f"(n-max {args.n_max})"])
    first_failure = next((r for r in results if not r.passed), None)
    if first_failure is not None:
        print(f"first counterexample: {first_failure.name}: {first_failure.detail}",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epwlat",
        description="Exact integral-lattice and negative-Pell computations "
                    "for EPW sextics and Hilbert squares of K3 surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"epwlat {__version__}")
    parser.add_argument("--format", choices=("human", "csv"), default="human",
                        help="output format (default: human)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pell = sub.add_parser("pell", help="solve y^2 - D x^2 = -1")
    p_pell.add_argument("--d", type=int, required=True, help="the coefficient D")
    p_pell.add_argument("--count", type=int, default=1,
                        help="how many solutions to list (default 1)")
    p_pell.set_defaults(handler=cmd_pell)

    p_lat = sub.add_parser("lattice", help="report on a lattice")
    src = p_lat.add_mutually_exclusive_group(required=True)
    src.add_argument("--id", help="catalog identifier, e.g. NS_HILB(10) or LAMBDA0")
    src.add_argument("--gram", help='inline Gram matrix, e.g. "10,11;11,10"')
    src.add_argument("--gram-file", help="file containing an inline Gram matrix")
    p_lat.add_argument("--op", choices=("report", "disc", "signature", "even"),
                       default="report")
    p_lat.set_defaults(handler=cmd_lattice)

    p_fam = sub.add_parser("family", help="tabulate the degree family")
    p_fam.add_argument("--n-min", type=int, required=True)
    p_fam.add_argument("--n-max", type=int, required=True)
    p_fam.set_defaults(handler=cmd_family)

    p_og = sub.add_parser("ogrady", help="classify the genus parameter r")
    p_og.add_argument("--r", type=int, required=True)
    p_og.set_defaults(handler=cmd_ogrady)

    p_ver = sub.add_parser("verify", help="run every identity check")
    p_ver.add_argument("--n-max", type=int, default=100,
                       help="scale for the n-indexed ranges (default 100 = "
                            "full acceptance scale)")
    p_ver.set_defaults(handler=cmd_verify)
    return parser


_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with status 2 on usage errors; the contract here
        # reserves 2 for "valid input, negative result", so remap to 1.
        if exc.code != 2:
            raise
        return EXIT_USAGE
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
