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
``main`` alone reports them. Every integer of the input (an option, a Gram
entry, a catalog parameter) is read by ``errors.read_int`` alone, with only
``errors.SPACE`` around it, a Gram row or the Gram text; an error quotes at
most 40 characters of any echoed input, a ``--gram-file`` path too (``errors.quote``).
Output is deterministic; CSV uses a header row, comma separators and
newline-terminated records, with plain decimal integers.

Output has one path: each handler builds its rows once and hands them to
``_emit``, the one place where row values become decimal text: it turns
every cell into a string once and writes the strings as CSV, as an
aligned table, or as the handler's human-format lines made from them.
Only ``_emit`` and ``cmd_lattice`` branch on the format (the signature
is one column in human format, three in CSV). The text is complete
before any of it is written, so an error while it is made (an int too
large to convert to decimal) leaves stdout empty in both formats.

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
import sys
from math import isqrt
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from . import __version__, errors, pell

if TYPE_CHECKING:
    from .lattices import Lattice, Signature

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSOLVABLE = 2
EXIT_VERIFY_FAILED = 3


def _emit(fmt: str, header: list[str], rows: list[list],
          human: Optional[Callable[[list[list[str]]], Iterable[str]]] = None) -> None:
    """Write ``rows`` under ``header`` to stdout, each cell turned into text
    once, first (``cells``): as CSV, or in human format as the lines of
    ``human(cells)`` when given, else as an aligned table. The whole text
    is built before it is written."""
    cells = [list(map(str, r)) for r in rows]
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header, *cells])
        text = out.getvalue()
    elif human is None:
        widths = [max(map(len, col)) for col in zip(header, *cells)]
        text = "".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n"
                       for r in (header, *cells))
    else:
        text = "".join(f"{line}\n" for line in human(cells))
    sys.stdout.write(text)


def _signature_str(sig: Signature) -> str:
    if sig.zero:
        return f"({sig.positive},{sig.negative};{sig.zero})"
    return f"({sig.positive},{sig.negative})"


def _int_option(text: str) -> int:
    """The argparse type of every integer option, ``errors.read_int``; as an
    ``ArgumentTypeError`` its refusal is printed as it is, in ``type=int``'s words."""
    try:
        return errors.read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_gram(text: str) -> Lattice:
    from .lattices import Lattice

    text = text.strip(errors.SPACE)
    if not text:
        raise ValueError("empty Gram matrix")
    rows = []
    for chunk in text.split(";"):
        if not chunk.strip(errors.SPACE):
            raise ValueError("empty row in Gram matrix")
        rows.append(list(map(errors.read_int, chunk.split(","))))
    return Lattice(rows)


def cmd_pell(args) -> int:
    d = args.d
    if d < 1:
        raise ValueError("D must be a positive integer")
    if d > 1 and isqrt(d) ** 2 == d:
        # raises before its first step: a square is reported before a bad
        # --count, and sqrt(D) is expanded only once all three checks pass
        pell.cf_expansion(d)
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if d == 1:
        # degenerate: y^2 - x^2 = -1 has only (y, x) = (0, 1)
        _emit(args.format, ["d", "solvable", "y", "x"], [[1, "true", 0, 1]],
              lambda _: ["D=1: solvable (degenerate); only solution (y, x) = (0, 1)"])
        return EXIT_OK
    cf = pell.cf_expansion(d)
    if not cf.solvable:
        _emit(args.format, ["d", "solvable", "period_length"], [[d, "false", cf.period_length]],
              lambda cells: [f"D={d}: unsolvable (continued-fraction period length "
                             f"{period} is even)" for d, _, period in cells])
        return EXIT_UNSOLVABLE
    rows = [[d, i, s.y, s.x] for i, s in enumerate(pell.negative_solutions(cf, args.count))]

    def human(cells):
        d, _, y0, x0 = cells[0]
        yield f"D={d}: solvable; minimal solution (y, x) = ({y0}, {x0})"
        yield from (f"  n={i}: y={y} x={x}" for _, i, y, x in cells)

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
            try:
                with open(args.gram_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:  # its own text repeats the whole path
                raise OSError(f"[Errno {exc.errno}] {exc.strerror}: "
                              f"{errors.quote(args.gram_file)}") from None
        lat = _parse_gram(text)
        label = "inline"

    rep = catalog.report_of(lat)
    # the signature is one column in human format, three in CSV
    if args.format == "csv":
        signature = dict(zip(("sig_positive", "sig_negative", "sig_zero"), rep.signature))
    else:
        signature = {"signature": _signature_str(rep.signature)}
    columns = {"rank": rep.rank, "discriminant": rep.discriminant, **signature,
               "even": "true" if rep.even else "false"}
    names = {"report": columns, "disc": ["discriminant"], "signature": signature,
             "even": ["even"]}[args.op]
    _emit(args.format, ["lattice", *names], [[label, *(columns[c] for c in names)]])
    return EXIT_OK


# the most rows one family call tabulates: 10**5 rows took 4.9 s through the
# CLI and made 6.3 MB of CSV (2-CPU machine, Python 3.11), and no larger
# range was measured
FAMILY_ROWS_CAP = 10**5


def cmd_family(args) -> int:
    from . import epwfamily

    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError("need 1 <= n-min <= n-max")
    if args.n_max - args.n_min >= FAMILY_ROWS_CAP:
        raise ValueError(f"need n-max - n-min < {FAMILY_ROWS_CAP} "
                         f"(at most {FAMILY_ROWS_CAP} rows)")
    records = map(epwfamily.family, range(args.n_min, args.n_max + 1))
    _emit(args.format, ["n", "d", "g", "r", "gamma_delta2", "disc_pi", "pell_y", "pell_x"],
          [[rec.n, rec.d, rec.g, rec.ogrady_r, rec.gram_pi[0][1], rec.disc_pi,
            rec.pell.y, rec.pell.x] for rec in records])
    return EXIT_OK


def cmd_ogrady(args) -> int:
    from . import epwfamily

    status = epwfamily.ogrady_status(args.r)
    case, rec = status.case, status.record

    def human(cells):
        [[r, _, n, d]] = cells
        if case is epwfamily.OgradyCase.EVEN_FAMILY:
            yield f"r={r}: even family, n={n}, d={d}"
        elif case is epwfamily.OgradyCase.OGRADY_R2:
            yield f"r={r}: O'Grady's case, {status.note}"
        elif case is epwfamily.OgradyCase.CLASSICAL_R0:
            yield f"r={r}: classical case"
        else:
            note = f" ({status.note})" if status.note else ""
            yield f"r={r}: odd, open{note}"

    _emit(args.format, ["r", "status", "n", "d"],
          [[args.r, case.name, rec.n if rec else "", rec.d if rec else ""]], human)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(args.n_max)
    rows = [[r.name, "PASS" if r.passed else "FAIL", r.detail] for r in results]
    _emit(args.format, ["check", "status", "detail"], rows, lambda cells: [
        *(f"{mark} {name}: {detail}" for name, mark, detail in cells),
        f"{sum(r.passed for r in results)}/{len(cells)} check groups passed "
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
    p_pell.add_argument("--d", type=_int_option, required=True, help="the coefficient D")
    p_pell.add_argument("--count", type=_int_option, default=1,
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
    p_fam.add_argument("--n-min", type=_int_option, required=True,
                       help="first n, at least 1")
    p_fam.add_argument("--n-max", type=_int_option, required=True,
                       help=f"last n; at most {FAMILY_ROWS_CAP} rows in all")
    p_fam.set_defaults(handler=cmd_family)

    p_og = sub.add_parser("ogrady", help="classify the genus parameter r")
    p_og.add_argument("--r", type=_int_option, required=True)
    p_og.set_defaults(handler=cmd_ogrady)

    p_ver = sub.add_parser("verify", help="run every identity check")
    p_ver.add_argument("--n-max", type=_int_option, default=100,
                       help="scales the D and p ranges, the draw counts and the far "
                            "point 10*N_MAX (default 100 = full acceptance scale, "
                            "at most 3000)")
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
