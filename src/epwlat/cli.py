"""Command-line front end.

Subcommands: ``pell`` (negative Pell solver), ``lattice`` (catalog or
inline-Gram reports), ``family`` (degree family tables), ``ogrady``
(genus-parameter classification), ``verify`` (run every identity check).

Exit codes: 0 success, 1 usage or input error, 2 valid input with a
negative result (unsolvable Pell equation), 3 verification failure.
Output is deterministic; CSV uses a header row, comma separators and
newline-terminated records, with plain decimal integers.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from typing import Optional, Sequence

from . import __version__, catalog, epwfamily, lattices, pell, verify
from .lattices import Lattice

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSOLVABLE = 2
EXIT_VERIFY_FAILED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here
    # reserves 2 for "valid input, negative result", so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(f"{self.prog}: error: {message}")


class SystemExit2(Exception):
    """Usage error carrying its diagnostic; mapped to exit code 1."""


def _emit_table(header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(header)
        ]
        print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip())
        for r in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip())


def _signature_str(sig: lattices.Signature) -> str:
    if sig.zero:
        return f"({sig.positive},{sig.negative};{sig.zero})"
    return f"({sig.positive},{sig.negative})"


def _parse_gram(text: str) -> Lattice:
    rows = []
    for chunk in text.strip().split(";"):
        entries = [e.strip() for e in chunk.split(",")]
        try:
            rows.append([int(e) for e in entries])
        except ValueError:
            raise ValueError(f"non-integer Gram entry in {chunk!r}")
    if len({len(r) for r in rows}) != 1 or len(rows[0]) != len(rows):
        raise ValueError("Gram matrix must be square (rows separated by ';')")
    return Lattice.from_rows(rows)


def cmd_pell(args, fmt: str) -> int:
    d = args.d
    if d < 1:
        print("error: D must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
    # before the --count check, so a perfect square D > 1 is reported first
    cf = pell.cf_expansion(d) if d > 1 else None
    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if d == 1:
        # degenerate: y^2 - x^2 = -1 has only (y, x) = (0, 1)
        if fmt == "csv":
            _emit_table(["d", "solvable", "y", "x"], [[1, "true", 0, 1]], fmt)
        else:
            print("D=1: solvable (degenerate); only solution (y, x) = (0, 1)")
        return EXIT_OK
    if cf.period_length % 2 == 0:
        if fmt == "csv":
            _emit_table(["d", "solvable", "period_length"],
                        [[d, "false", cf.period_length]], fmt)
        else:
            print(f"D={d}: unsolvable (continued-fraction period length "
                  f"{cf.period_length} is even)")
        return EXIT_UNSOLVABLE
    sols = pell.negative_solutions(cf, args.count)
    if fmt == "csv":
        _emit_table(["d", "index", "y", "x"],
                    [[d, i, s.y, s.x] for i, s in enumerate(sols)], fmt)
    else:
        print(f"D={d}: solvable; minimal solution (y, x) = ({sols[0].y}, {sols[0].x})")
        for i, s in enumerate(sols):
            print(f"  n={i}: y={s.y} x={s.x}")
    return EXIT_OK


def cmd_lattice(args, fmt: str) -> int:
    try:
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rep = catalog.report_of(lat)
    if args.op == "disc":
        header, row = ["lattice", "discriminant"], [label, rep.discriminant]
    elif args.op == "signature":
        if fmt == "csv":
            header = ["lattice", "sig_positive", "sig_negative", "sig_zero"]
            row = [label, *rep.signature]
        else:
            header, row = ["lattice", "signature"], [label, _signature_str(rep.signature)]
    elif args.op == "even":
        header, row = ["lattice", "even"], [label, str(rep.even).lower()]
    else:  # report
        if fmt == "csv":
            header = ["lattice", "rank", "discriminant",
                      "sig_positive", "sig_negative", "sig_zero", "even"]
            row = [label, rep.rank, rep.discriminant, *rep.signature,
                   str(rep.even).lower()]
        else:
            header = ["lattice", "rank", "discriminant", "signature", "even"]
            row = [label, rep.rank, rep.discriminant,
                   _signature_str(rep.signature), str(rep.even).lower()]
    _emit_table(header, [row], fmt)
    return EXIT_OK


def cmd_family(args, fmt: str) -> int:
    if args.n_min < 1 or args.n_max < args.n_min:
        print("error: need 1 <= n-min <= n-max", file=sys.stderr)
        return EXIT_USAGE
    header = ["n", "d", "g", "r", "gamma_delta2", "disc_pi", "pell_y", "pell_x"]
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        rec = epwfamily.family(n)
        rows.append([rec.n, rec.d, rec.g, rec.ogrady_r, rec.gram_pi[0][1],
                     rec.disc_pi, rec.pell.y, rec.pell.x])
    _emit_table(header, rows, fmt)
    return EXIT_OK


def cmd_ogrady(args, fmt: str) -> int:
    if args.r < 0:
        print("error: r must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    status = epwfamily.ogrady_status(args.r)
    case = status.case
    if fmt == "csv":
        header = ["r", "status", "n", "d"]
        row = [args.r, case.name,
               status.n if status.n is not None else "",
               status.record.d if status.record else ""]
        _emit_table(header, [row], fmt)
        return EXIT_OK
    if case is epwfamily.OgradyCase.EVEN_FAMILY:
        print(f"r={args.r}: even family, n={status.n}, d={status.record.d}")
    elif case is epwfamily.OgradyCase.OGRADY_R2:
        print(f"r={args.r}: O'Grady's case, degree 10")
    elif case is epwfamily.OgradyCase.CLASSICAL_R0:
        print(f"r={args.r}: classical case")
    else:
        note = f" ({status.note})" if status.note else ""
        print(f"r={args.r}: odd, open{note}")
    return EXIT_OK


def cmd_verify(args, fmt: str) -> int:
    if args.n_max < 1:
        print("error: --n-max must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    results = verify.run_all(args.n_max)
    first_failure = None
    if fmt == "csv":
        header = ["check", "status", "detail"]
        rows = [[r.name, "PASS" if r.passed else "FAIL", r.detail] for r in results]
        _emit_table(header, rows, fmt)
        first_failure = next((r for r in results if not r.passed), None)
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.name}: {r.detail}")
            if not r.passed and first_failure is None:
                first_failure = r
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} check groups passed (n-max {args.n_max})")
    if first_failure is not None:
        print(f"first counterexample: {first_failure.name}: {first_failure.detail}",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
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

    p_lat = sub.add_parser("lattice", help="report on a lattice")
    src = p_lat.add_mutually_exclusive_group(required=True)
    src.add_argument("--id", help="catalog identifier, e.g. NS_HILB(10) or LAMBDA0")
    src.add_argument("--gram", help='inline Gram matrix, e.g. "10,11;11,10"')
    src.add_argument("--gram-file", help="file containing an inline Gram matrix")
    p_lat.add_argument("--op", choices=("report", "disc", "signature", "even"),
                       default="report")

    p_fam = sub.add_parser("family", help="tabulate the degree family")
    p_fam.add_argument("--n-min", type=int, required=True)
    p_fam.add_argument("--n-max", type=int, required=True)

    p_og = sub.add_parser("ogrady", help="classify the genus parameter r")
    p_og.add_argument("--r", type=int, required=True)

    p_ver = sub.add_parser("verify", help="run every identity check")
    p_ver.add_argument("--n-max", type=int, default=100,
                       help="scale for the n-indexed ranges (default 100 = "
                            "full acceptance scale)")
    return parser


_HANDLERS = {
    "pell": cmd_pell,
    "lattice": cmd_lattice,
    "family": cmd_family,
    "ogrady": cmd_ogrady,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
