"""Golden outputs: the CLI's stdout, stderr and exit code, one digest per section.

The script runs a fixed corpus of argument vectors in-process through
``epwlat.cli.main``, each once as it stands (human output, the default)
and once with ``--format csv`` in front, with ``COLUMNS=80`` (argparse wraps usage and
help text to the terminal width). Each call's argv, exit code, stdout and
stderr go into the sha256 of its corpus section:

    lattice-id     ``lattice --id X --op report|disc|signature|even`` for every
                   plain catalog id, small ranges of the parametrised ids, and
                   malformed or unknown ids, two of them 5000 characters long
    lattice-gram   ``lattice --gram`` on fixed hollow and degenerate Grams,
                   and on malformed ones (one with its bad entry past the
                   40th character), with every ``--op``
    family         ``family --n-min 1 --n-max 40``
    ogrady         ``ogrady --r 0..10``
    pell           ``pell --d 1..299``, each D also with ``--count 3``
    verify         ``verify --n-max 3`` and ``--n-max 100``
    argparse       usage errors, ``--help`` of every subcommand, ``--version``

Run from the root of a source checkout, stdlib only; the package is
imported from this checkout's ``src/``::

    python tools/golden.py           # compare with tools/golden.json
    python tools/golden.py --write   # rewrite tools/golden.json

Exit status 0 when every section matches, 1 when any differs (each one is
named on a ``DIFFERS <section>`` line), 2 on any other argument. A change
that alters output on purpose rewrites the file with ``--write``, which
prints a ``CHANGED <section>`` line for each digest it replaces, and says
which sections changed and why. ``section_digest(argvs)`` takes one
section's argument vectors and runs them through ``epwlat.cli.main``
itself; it imports the package when called, after ``main`` has put
``src/`` on the path.
``tests/test_golden.py`` imports ``corpus`` and ``section_digest``
and checks every section but ``verify`` in the tier-1 suite; ``verify``
is checked only here, as its two ``--n-max 100`` calls take about 0.6 s.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tools" / "golden.json"
OPS = ("report", "disc", "signature", "even")


def _gram_text(rows) -> str:
    return ";".join(",".join(map(str, row)) for row in rows)


def _grams() -> list[str]:
    hollow = [[[0, a], [a, 0]] for a in range(-3, 4)]
    hollow += [[[0, a, b], [a, 0, c], [b, c, 0]]
               for a, b, c in product(range(-2, 3), repeat=3)]
    # s * v v^T has rank one
    vectors = [(1, 0), (1, 1), (1, -2), (2, 3), (1, 0, 0), (1, 1, 1), (1, -1, 2), (0, 2, 1)]
    degenerate = [[[s * x * y for y in v] for x in v] for v in vectors for s in (1, -1, 2)]
    degenerate += [[[0] * k for _ in range(k)] for k in range(1, 5)]
    degenerate += [[[2, 1, 0], [1, 2, 0], [0, 0, 0]], [[2, 1, 3], [1, 2, 3], [3, 3, 6]],
                   [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, 0]]]
    malformed = ["1,2;3", "1,2;3,4", "x", "", " ", ";", "1,2;2,1;", "1,2;;2,1", "1," * 30 + "x"]
    return [_gram_text(g) for g in hollow + degenerate] + malformed


def corpus() -> dict[str, list[list[str]]]:
    """Section name -> argv list (without the ``--format csv`` prefix)."""
    ids = ["U", "E8", "I22_2", "LAMBDA2", "LAMBDA0", "K3"]
    ids += [f"A1({a})" for a in range(-4, 5)]
    ids += [f"NS_HILB({d})" for d in range(-2, 25)]
    ids += [f"{name}({n})" for name in ("R", "NS3", "PI") for n in range(-1, 11)]
    ids += ["U(1)", "A1", "A1()", "e8", "FOO", "", " K3 ", "NS_HILB( 10 )",
            f"NS_HILB({'7' * 5000}", "X" * 5000]
    return {
        "lattice-id": [["lattice", "--id", i, "--op", op] for i in ids for op in OPS],
        "lattice-gram": [["lattice", "--gram", g, "--op", op] for g in _grams() for op in OPS],
        "family": [["family", "--n-min", "1", "--n-max", "40"]],
        "ogrady": [["ogrady", "--r", str(r)] for r in range(11)],
        "pell": [["pell", "--d", str(d), *count]
                 for d in range(1, 300) for count in ([], ["--count", "3"])],
        "verify": [["verify", "--n-max", "3"], ["verify", "--n-max", "100"]],
        "argparse": [[], ["pell"], ["pell", "--d", "x"], ["pell", "--d", "5", "--bogus"],
                     ["bogus"], ["lattice"], ["lattice", "--id", "K3", "--gram", "1"],
                     ["lattice", "--id", "K3", "--op", "rank"], ["family", "--n-min", "1"],
                     ["ogrady", "--r", "1.5"], ["--format", "xml", "pell", "--d", "5"],
                     ["--help"], ["--version"],
                     *([cmd, "--help"] for cmd in ("pell", "lattice", "family", "ogrady",
                                                   "verify"))],
    }


def section_digest(argvs: list[list[str]]) -> str:
    """sha256 over argv, exit code, stdout and stderr of every ``cli.main``
    call, both formats."""
    from epwlat import cli

    digest = hashlib.sha256()
    for prefix in ([], ["--format", "csv"]):
        for argv in argvs:
            full = [*prefix, *argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(full)
                except SystemExit as exc:  # --help and --version
                    code = exc.code
            record = [full, code, out.getvalue(), err.getvalue()]
            digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


def main(args: list[str]) -> int:
    if args not in ([], ["--write"]):
        print("usage: python tools/golden.py [--write]", file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    sections = corpus()
    digests = {}
    for name, argvs in sections.items():
        t0 = time.perf_counter()
        digests[name] = section_digest(argvs)
        print(f"{name:13s} {2 * len(argvs):5d} calls {time.perf_counter() - t0:6.2f} s",
              flush=True)
    calls = 2 * sum(map(len, sections.values()))
    wall = time.perf_counter() - start
    expected = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    names = sorted(digests.keys() | expected.keys())
    differ = [name for name in names if digests.get(name) != expected.get(name)]
    write = args == ["--write"]
    for name in differ:
        print(f"{'CHANGED' if write else 'DIFFERS'} {name}")
    if write:
        GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
        print(f"wrote {os.path.relpath(GOLDEN, ROOT)}: {len(digests)} sections, "
              f"{calls} calls, {wall:.2f} s")
        return 0
    print(f"{len(names) - len(differ)}/{len(names)} sections match "
          f"({calls} calls, {wall:.2f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
