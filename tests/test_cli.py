"""CLI contract: subcommands, output formats, and the exit-code scheme
(0 success, 1 usage/input error, 2 unsolvable, 3 verification failure)."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epwlat import cli, lattices, verify


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*args):
    """Run a new interpreter that imports this checkout's package."""
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cli_import_stays_stdlib_light():
    proc = fresh_python("-c", "import sys, epwlat.cli; "
                        "print(sorted({'numpy', 'fractions'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_import_is_lazy_and_resolves():
    # only __version__ and InvariantError are bound; the rest loads on access
    proc = fresh_python("-c", (
        "import sys, epwlat; "
        "print(sorted(m for m in sys.modules if m.startswith('epwlat'))); "
        "print(epwlat.lattices.__name__, epwlat.Lattice.__module__, "
        "epwlat.__version__, epwlat.InvariantError.__module__)"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("['epwlat', 'epwlat.errors']\n"
                           "epwlat.lattices epwlat.lattices 0.1.0 epwlat.errors\n")


# Imports ``epwlat.cli`` as ``epwlat pell`` does, lists which lattice-side
# modules that loaded, then runs one call of each other handler but
# ``verify`` through ``main`` and prints their exit codes.
_COLD_CLI = """
import contextlib, io, sys
import epwlat.cli as cli
print(sorted(m for m in ("lattices", "intmat", "catalog", "epwfamily", "verify")
             if f"epwlat.{m}" in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["lattice", "--gram", "2,1;1,2"], ["lattice", "--id", "NS_HILB(10)"],
        ["family", "--n-min", "1", "--n-max", "2"], ["ogrady", "--r", "3"])]
print(codes)
"""


def test_cli_import_loads_only_the_pell_path():
    proc = fresh_python("-c", _COLD_CLI)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[0, 0, 0, 0]\n"


def test_cli_import_loads_no_dataclasses():
    # dataclasses and the inspect it imports were half of `epwlat pell`'s
    # cold start; the Pell records are NamedTuples so that it loads neither
    proc = fresh_python("-c", "import sys, epwlat.cli; "
                        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_import_loads_no_dataclasses():
    # Lattice and Isometry are NamedTuples too, so the lattice stack that
    # every other subcommand loads imports neither dataclasses nor inspect
    proc = fresh_python("-c", "import sys, epwlat.verify; "
                        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Every usage or input error: exactly one ``error: ...`` line on stderr,
# nothing on stdout, exit 1. Paths are relative to a temporary directory
# that holds ``empty.txt`` (zero bytes) and no ``missing.txt``.
USAGE_ERRORS = [
    pytest.param(["pell", "--d", "0"], "D must be a positive integer", id="pell-d0"),
    pytest.param(["pell", "--d", "4"], "D = 4 is a perfect square", id="pell-d4"),
    pytest.param(["pell", "--d", "5", "--count", "0"], "--count must be >= 1",
                 id="pell-count0"),
    pytest.param(["family", "--n-min", "0", "--n-max", "3"],
                 "need 1 <= n-min <= n-max", id="family-nmin0"),
    pytest.param(["family", "--n-min", "3", "--n-max", "2"],
                 "need 1 <= n-min <= n-max", id="family-reversed"),
    pytest.param(["ogrady", "--r", "-1"], "r must be >= 0", id="ogrady-negative"),
    pytest.param(["verify", "--n-max", "0"], "n-max must be >= 1", id="verify-nmax0"),
    pytest.param(["lattice", "--id", "FOO"], "unknown catalog lattice: 'FOO'",
                 id="lattice-unknown-id"),
    pytest.param(["lattice", "--gram", "1,2;3"],
                 "Gram matrix must be square", id="gram-ragged"),
    pytest.param(["lattice", "--gram", "1,2;3,4"], "Gram matrix must be symmetric",
                 id="gram-asymmetric"),
    pytest.param(["lattice", "--gram", "x"], "non-integer Gram entry in 'x'",
                 id="gram-non-integer"),
    pytest.param(["lattice", "--gram-file", "missing.txt"],
                 "[Errno 2] No such file or directory: 'missing.txt'",
                 id="gram-file-missing"),
    pytest.param(["lattice", "--gram", ""], "empty Gram matrix", id="gram-empty"),
    pytest.param(["lattice", "--gram", " "], "empty Gram matrix", id="gram-blank"),
    pytest.param(["lattice", "--gram-file", "empty.txt"], "empty Gram matrix",
                 id="gram-file-empty"),
    pytest.param(["lattice", "--gram", "1,2;2,1;"], "empty row in Gram matrix",
                 id="gram-row-trailing"),
    pytest.param(["lattice", "--gram", "1,2;;2,1"], "empty row in Gram matrix",
                 id="gram-row-inner"),
    pytest.param(["lattice", "--gram", ";"], "empty row in Gram matrix",
                 id="gram-rows-only"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "empty.txt").write_bytes(b"")
    monkeypatch.chdir(tmp_path)
    assert run(argv, capsys) == (1, "", f"error: {message}\n")


class TestPell:
    def test_d5_three_solutions(self, capsys):
        code, out, _ = run(["pell", "--d", "5", "--count", "3"], capsys)
        assert code == 0
        assert "(2, 1)" in out
        assert "y=38 x=17" in out
        assert "y=682 x=305" in out

    def test_d5_csv(self, capsys):
        code, out, _ = run(["--format", "csv", "pell", "--d", "5", "--count", "3"],
                           capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["d", "index", "y", "x"]
        assert rows[1:] == [["5", "0", "2", "1"], ["5", "1", "38", "17"],
                            ["5", "2", "682", "305"]]

    def test_unsolvable_exit_2(self, capsys):
        code, out, _ = run(["pell", "--d", "34"], capsys)
        assert code == 2
        assert "unsolvable" in out

    def test_perfect_square_exit_1(self, capsys):
        code, _, err = run(["pell", "--d", "4"], capsys)
        assert code == 1
        assert "perfect square" in err

    def test_degenerate_d1(self, capsys):
        code, out, _ = run(["pell", "--d", "1"], capsys)
        assert code == 0
        assert "(0, 1)" in out

    @pytest.mark.parametrize("d,message", [
        ("4", "error: D = 4 is a perfect square\n"),
        ("1", "error: --count must be >= 1\n"),
        ("0", "error: D must be a positive integer\n"),
    ])
    def test_bad_d_reported_before_bad_count(self, d, message, capsys):
        assert run(["pell", "--d", d, "--count", "0"], capsys) == (1, "", message)

    def test_same_output_under_optimize_flag(self):
        # the fundamental solution's one check must not be an assert
        argv = ("-m", "epwlat.cli", "--format", "csv",
                "pell", "--d", "13", "--count", "4")
        plain, optimized = fresh_python(*argv), fresh_python("-O", *argv)
        assert plain.returncode == 0, plain.stderr
        assert optimized.returncode == plain.returncode
        assert optimized.stdout == plain.stdout

    def test_same_exit_and_clean_stdout_in_both_formats(self, capsys):
        # the fundamental solution has about 945 digits, the third (its
        # fifth power) about 4730, past Python's 4300-digit int->str limit;
        # the text is complete before it is written, so a failure leaves
        # stdout empty in both formats, and a fix makes both exit 0
        argv = ["pell", "--d", "1000609", "--count", "3"]
        human, csv_ = run(argv, capsys), run(["--format", "csv", *argv], capsys)
        assert human[0] == csv_[0]
        if human[0] == 1:
            for _, out, err in (human, csv_):
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1
                assert err.endswith("\n")

    @pytest.mark.xfail(strict=True, reason="the 4300-digit defect: the 102089-bit "
                       "solution exceeds Python's 4300-digit int->str conversion limit")
    def test_huge_solution_printed(self, capsys):
        code, out, _ = run(["--format", "csv", "pell", "--d", "1000000009"], capsys)
        assert code == 0
        _, row = list(csv.reader(io.StringIO(out)))
        d, y, x = int(row[0]), int(row[2]), int(row[3])
        assert y * y - d * x * x == -1


class TestLattice:
    def test_catalog_report(self, capsys):
        code, out, _ = run(["lattice", "--id", "LAMBDA0", "--op", "report"], capsys)
        assert code == 0
        assert "22" in out and "(20,2)" in out and "true" in out

    def test_inline_disc(self, capsys):
        code, out, _ = run(["lattice", "--gram", "10,11;11,10", "--op", "disc"],
                           capsys)
        assert code == 0
        assert "-21" in out

    def test_signature_op(self, capsys):
        code, out, _ = run(["lattice", "--id", "K3", "--op", "signature"], capsys)
        assert code == 0
        assert "(3,19)" in out

    def test_even_op(self, capsys):
        code, out, _ = run(["lattice", "--id", "I22_2", "--op", "even"], capsys)
        assert code == 0
        assert "false" in out

    def test_asymmetric_rejected(self, capsys):
        code, _, err = run(["lattice", "--gram", "1,2;3,4", "--op", "disc"], capsys)
        assert code == 1
        assert "symmetric" in err

    def test_non_integer_rejected(self, capsys):
        assert run(["lattice", "--gram", "1,x;x,1", "--op", "disc"], capsys) == (
            1, "", "error: non-integer Gram entry in '1,x'\n")

    @pytest.mark.parametrize("source", ["--gram", "--gram-file"])
    def test_over_long_entry_names_the_limit(self, source, tmp_path, capsys):
        # an integer entry with more digits than int() parses from a string
        text = f"{'7' * 5000},1;1,2"
        if source == "--gram-file":
            (tmp_path / "gram.txt").write_text(text, encoding="utf-8")
            text = str(tmp_path / "gram.txt")
        code, out, err = run(["lattice", source, text, "--op", "disc"], capsys)
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (1, "")
        assert err == (f"error: Gram entry in '{'7' * 40}'... has over {limit} digits,"
                       " int()'s limit\n")
        assert len(err) < 120

    def test_over_long_non_integer_row_is_cut(self, capsys):
        assert run(["lattice", "--gram", "1," + "x" * 5000], capsys) == (
            1, "", f"error: non-integer Gram entry in '1,{'x' * 38}'...\n")

    def test_unknown_id_rejected(self, capsys):
        assert run(["lattice", "--id", "E9", "--op", "report"], capsys) == (
            1, "", "error: unknown catalog lattice: 'E9'\n")

    def test_empty_id_rejected(self, capsys):
        assert run(["lattice", "--id", ""], capsys) == (
            1, "", "error: malformed catalog identifier: ''\n")

    def test_empty_gram_file_rejected(self, capsys):
        assert run(["lattice", "--gram-file", ""], capsys) == (
            1, "", "error: [Errno 2] No such file or directory: ''\n")

    def test_gram_file(self, tmp_path, capsys):
        path = tmp_path / "gram.txt"
        path.write_text("0,1;1,0\n", encoding="utf-8")
        code, out, _ = run(["lattice", "--gram-file", str(path), "--op", "disc"],
                           capsys)
        assert code == 0
        assert "-1" in out

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_whitespace_in_gram_text_is_ignored(self, fmt, tmp_path, capsys):
        path = tmp_path / "gram.txt"
        path.write_text("2, 1;\n 1, 2\n", encoding="utf-8")
        reports = []
        for source in (["--gram", " 2 , 1 ; 1 , 2 "], ["--gram-file", str(path)],
                       ["--gram", "2,1;1,2"]):
            code, out, err = run(["--format", fmt, "lattice", *source], capsys)
            assert (code, err) == (0, "")
            reports.append(out)
        assert reports[0] == reports[1] == reports[2]

    def test_csv_report_round_trips(self, capsys):
        code, out, _ = run(
            ["--format", "csv", "lattice", "--id", "NS_HILB(10)"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == out


class TestFamily:
    def test_single_row(self, capsys):
        code, out, _ = run(["family", "--n-min", "1", "--n-max", "1"], capsys)
        assert code == 0
        row = out.splitlines()[1].split()
        assert row == ["1", "34", "18", "4", "8", "-68", "4", "1"]

    def test_csv_three_rows(self, capsys):
        code, out, _ = run(
            ["--format", "csv", "family", "--n-min", "1", "--n-max", "3"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "d", "g", "r", "gamma_delta2", "disc_pi",
                           "pell_y", "pell_x"]
        assert len(rows) == 4
        assert rows[1] == ["1", "34", "18", "4", "8", "-68", "4", "1"]

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(
            ["--format", "csv", "family", "--n-min", "1", "--n-max", "5"], capsys
        )
        rows = list(csv.reader(io.StringIO(out)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == out

    def test_bad_range(self, capsys):
        for n_min, n_max in (("2", "1"), ("0", "1"), ("-1", "0")):
            assert run(["--format", "csv", "family", "--n-min", n_min,
                        "--n-max", n_max], capsys) == (
                1, "", "error: need 1 <= n-min <= n-max\n")

    def test_deterministic(self, capsys):
        _, out1, _ = run(["family", "--n-min", "1", "--n-max", "4"], capsys)
        _, out2, _ = run(["family", "--n-min", "1", "--n-max", "4"], capsys)
        assert out1 == out2


class TestOgrady:
    def test_r4(self, capsys):
        code, out, _ = run(["ogrady", "--r", "4"], capsys)
        assert code == 0
        assert "n=1" in out and "d=34" in out

    def test_r2(self, capsys):
        code, out, _ = run(["ogrady", "--r", "2"], capsys)
        assert code == 0
        assert "O'Grady" in out and "10" in out

    def test_r5_odd_open(self, capsys):
        code, out, _ = run(["ogrady", "--r", "5"], capsys)
        assert code == 0
        assert "open" in out

    def test_r0(self, capsys):
        code, out, _ = run(["ogrady", "--r", "0"], capsys)
        assert code == 0
        assert "classical" in out

    def test_negative_rejected(self, capsys):
        # checked once, in epwfamily.ogrady_status, before any CSV is written
        assert run(["--format", "csv", "ogrady", "--r", "-7"], capsys) == (
            1, "", "error: r must be >= 0\n")

    def test_csv(self, capsys):
        code, out, _ = run(["--format", "csv", "ogrady", "--r", "6"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["6", "EVEN_FAMILY", "2", "74"]


# ``epwlat verify --n-max 3`` in both formats, byte for byte: a refactor
# must leave every check group's detail line as it is.
VERIFY_N3 = {
    "human": """\
PASS involution-images: j(h) = 9h - 20delta and j(delta) = 4h - 9delta on NS_HILB(10)
PASS fujiki-pipeline: gamma^4 = 2*6 = 12 and 12 = 3*(gamma,gamma)^2 gives (gamma,gamma) = 2
PASS family-identities: (gamma,delta2), disc Pi, (h2,h2), g(n) agree both ways for n <= 15
PASS h2-basis: Gram of Pi in the (h2, delta2) basis is diag(d(n), -2) for n <= 3
PASS involution-soundness: J^2 = I, J gamma = gamma, J = -1 on gamma-perp for n <= 3
PASS necessary-condition: witness (2n+2, 1) for n <= 1; d=12 rejected; d=10 gives (2,1)
PASS pell-d5: D=5: minimal (2,1), then (38,17), (682,305); D=34 unsolvable
PASS pell-oracle: continued-fraction decision matches brute force (x <= 10000) for D <= 60; minimal x compared for 12 of 12 solvable D
PASS pell-minimality: fundamental = full-period reference minimum (no x bound) for 4 solvable D, monotone enumeration, D <= 15
PASS prime-criterion: p = 2 or p = 1 (mod 4) matches the solver for the 62 primes p < 300
PASS catalog-reports: LAMBDA0 (20,2) even; K3 (3,19) disc -1; I22_2 odd (22,2)
PASS disc-obstruction: disc R(n) = -n(n+20), no disc -20 sublattice, n <= 30; strict inequality grid n <= 1
PASS reflection-properties: involutivity/isometry/fixed-space checks on 30 randomized reflections
PASS index-law: disc(B^T G B) = det(B)^2 disc(G) on 30 randomized pairs
PASS saturation: saturations and complements have unit Hermite pivots, saturations keep the input's Q-span, on 30 randomized cases
PASS bilinear-properties: symmetry, bilinearity, basis invariance on 30 randomized cases
PASS closed-form-erratum: printed D=5 closed form gives (49,22) with residual -19; enumeration gives (38,17)
17/17 check groups passed (n-max 3)
""",
    "csv": """\
check,status,detail
involution-images,PASS,j(h) = 9h - 20delta and j(delta) = 4h - 9delta on NS_HILB(10)
fujiki-pipeline,PASS,"gamma^4 = 2*6 = 12 and 12 = 3*(gamma,gamma)^2 gives (gamma,gamma) = 2"
family-identities,PASS,"(gamma,delta2), disc Pi, (h2,h2), g(n) agree both ways for n <= 15"
h2-basis,PASS,"Gram of Pi in the (h2, delta2) basis is diag(d(n), -2) for n <= 3"
involution-soundness,PASS,"J^2 = I, J gamma = gamma, J = -1 on gamma-perp for n <= 3"
necessary-condition,PASS,"witness (2n+2, 1) for n <= 1; d=12 rejected; d=10 gives (2,1)"
pell-d5,PASS,"D=5: minimal (2,1), then (38,17), (682,305); D=34 unsolvable"
pell-oracle,PASS,continued-fraction decision matches brute force (x <= 10000) for D <= 60; minimal x compared for 12 of 12 solvable D
pell-minimality,PASS,"fundamental = full-period reference minimum (no x bound) for 4 solvable D, monotone enumeration, D <= 15"
prime-criterion,PASS,p = 2 or p = 1 (mod 4) matches the solver for the 62 primes p < 300
catalog-reports,PASS,"LAMBDA0 (20,2) even; K3 (3,19) disc -1; I22_2 odd (22,2)"
disc-obstruction,PASS,"disc R(n) = -n(n+20), no disc -20 sublattice, n <= 30; strict inequality grid n <= 1"
reflection-properties,PASS,involutivity/isometry/fixed-space checks on 30 randomized reflections
index-law,PASS,disc(B^T G B) = det(B)^2 disc(G) on 30 randomized pairs
saturation,PASS,"saturations and complements have unit Hermite pivots, saturations keep the input's Q-span, on 30 randomized cases"
bilinear-properties,PASS,"symmetry, bilinearity, basis invariance on 30 randomized cases"
closed-form-erratum,PASS,"printed D=5 closed form gives (49,22) with residual -19; enumeration gives (38,17)"
""",
}


class TestVerify:
    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_output_pinned(self, fmt, capsys):
        assert run(["--format", fmt, "verify", "--n-max", "3"], capsys) == (
            0, VERIFY_N3[fmt], "")

    def test_small_scale_passes(self, capsys):
        code, out, _ = run(["verify", "--n-max", "1"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == len(verify.CHECKS)

    def test_passes_under_optimize_flag(self):
        # invariant checks must not be assert statements, which -O strips
        proc = fresh_python("-O", "-m", "epwlat.cli", "verify", "--n-max", "3")
        assert proc.returncode == 0, proc.stderr
        rows = [line for line in proc.stdout.splitlines() if line.startswith("PASS ")]
        assert len(rows) == 17 == len(verify.CHECKS)

    def test_fault_injection_exits_3(self, capsys, monkeypatch):
        def broken(n_max):
            verify._fail("counterexample: injected fault at n=1")

        monkeypatch.setattr(
            verify, "CHECKS", verify.CHECKS + [("injected", broken)]
        )
        code, out, err = run(["verify", "--n-max", "1"], capsys)
        assert code == 3
        assert "FAIL injected" in out
        assert "counterexample" in err and "injected fault" in err

    def test_check_result_is_a_plain_record(self):
        result = verify.run_all(1)[0]
        assert result == ("involution-images", True, result.detail)
        name, passed, detail = result
        assert (name, passed, detail) == (result.name, result.passed, result.detail)
        with pytest.raises(AttributeError):
            result.passed = False

    def test_failed_ensure_reported_bare(self, monkeypatch):
        # a failed ensure inside the package is an InvariantError, like a
        # failed law: its message is the detail, with no type-name prefix
        monkeypatch.setattr(lattices, "discriminant", lambda lat: 0)
        results = {r.name: r for r in verify.run_all(1)}
        assert not results["family-identities"].passed
        assert results["family-identities"].detail == (
            "family(1): disc(Pi) = 0, not -2d")


# one valid argv per subcommand: the parser binds each to its handler
SUBCOMMAND_ARGV = {
    "pell": ["pell", "--d", "5"],
    "lattice": ["lattice", "--id", "K3"],
    "family": ["family", "--n-min", "1", "--n-max", "1"],
    "ogrady": ["ogrady", "--r", "1"],
    "verify": ["verify"],
}


@pytest.mark.parametrize("command", SUBCOMMAND_ARGV)
def test_subcommand_binds_its_handler(command):
    args = cli.build_parser().parse_args(SUBCOMMAND_ARGV[command])
    assert args.command == command
    assert args.handler is getattr(cli, f"cmd_{command}")


_TOP_USAGE = """\
usage: epwlat [-h] [--version] [--format {human,csv}]
              {pell,lattice,family,ogrady,verify} ...
"""
_PELL_USAGE = "usage: epwlat pell [-h] --d D [--count COUNT]\n"
_LATTICE_USAGE = """\
usage: epwlat lattice [-h] (--id ID | --gram GRAM | --gram-file GRAM_FILE)
                      [--op {report,disc,signature,even}]
"""

# Usage errors that argparse itself reports: its usage line(s), then one
# ``prog: error: ...`` line on stderr, nothing on stdout, and exit 1 (not
# argparse's own status 2, which means "unsolvable" here).
ARGPARSE_ERRORS = [
    pytest.param([], _TOP_USAGE + "epwlat: error: the following arguments are "
                 "required: command\n", id="no-subcommand"),
    pytest.param(["pell"], _PELL_USAGE + "epwlat pell: error: the following "
                 "arguments are required: --d\n", id="pell-no-d"),
    pytest.param(["pell", "--d", "x"], _PELL_USAGE + "epwlat pell: error: "
                 "argument --d: invalid int value: 'x'\n", id="pell-d-not-int"),
    pytest.param(["pell", "--d", "5", "--bogus"], _TOP_USAGE + "epwlat: error: "
                 "unrecognized arguments: --bogus\n", id="pell-bogus-flag"),
    pytest.param(["bogus"], _TOP_USAGE + "epwlat: error: argument command: "
                 "invalid choice: 'bogus' (choose from 'pell', 'lattice', "
                 "'family', 'ogrady', 'verify')\n", id="bogus-subcommand"),
    pytest.param(["lattice", "--id", "K3", "--gram", "1"], _LATTICE_USAGE +
                 "epwlat lattice: error: argument --gram: not allowed with "
                 "argument --id\n", id="lattice-id-and-gram"),
]


class TestParsing:
    @pytest.mark.parametrize("argv,stderr", ARGPARSE_ERRORS)
    def test_argparse_error_pinned(self, argv, stderr, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        assert run(argv, capsys) == (1, "", stderr)

    @pytest.mark.parametrize("argv", [["--help"], ["pell", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: epwlat")

    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run(["pell", "--d", "5", "--bogus"], capsys)
        assert code == 1
        assert "error" in err

    def test_missing_subcommand_exit_1(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "epwlat" in capsys.readouterr().out


def call(argv, capsys):
    """Like ``run``, but ``--help`` and ``--version`` give ("exit", status)."""
    try:
        return run(argv, capsys)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return ("exit", exc.code), captured.out, captured.err


@pytest.fixture
def cold_parser():
    """Start and end the test with no parser built in this process."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


# valid calls of every subcommand with usage errors, input errors, --help and
# --version in between, so each kind of call follows each other kind
REUSE_SEQUENCE = [
    ["pell", "--d", "5", "--count", "3"],
    ["pell", "--d", "x"],
    ["--format", "csv", "pell", "--d", "13"],
    ["--help"],
    ["pell", "--d", "5"],
    ["lattice", "--id", "K3", "--gram", "1"],
    ["--format", "csv", "lattice", "--id", "LAMBDA0"],
    ["--version"],
    ["lattice", "--gram", "0,1;1,0", "--op", "disc"],
    ["pell", "--help"],
    ["family", "--n-min", "1", "--n-max", "3"],
    [],
    ["ogrady", "--r", "4"],
    ["pell", "--d", "34"],
    ["verify", "--n-max", "0"],
    ["bogus"],
    ["--format", "csv", "ogrady", "--r", "6"],
    ["lattice", "--id", "NS_HILB(10)", "--op", "signature"],
    ["pell", "--d", "5", "--bogus"],
    ["family", "--n-min", "2", "--n-max", "2"],
]

_PELL5 = "D=5: solvable; minimal solution (y, x) = (2, 1)\n  n=0: y=2 x=1\n"
_K3_REPORT = """\
lattice  rank  discriminant  signature  even
K3       22    -1            (3,19)     true
"""


class TestParserReuse:
    def test_warm_parser_matches_fresh_parser_per_call(self, cold_parser,
                                                        monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        call(["pell", "--d", "5"], capsys)
        warm = [call(argv, capsys) for argv in REUSE_SEQUENCE]
        assert cli._parser.cache_info().misses == 1  # every call reused one parser
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [call(argv, capsys) for argv in REUSE_SEQUENCE]
        assert warm == fresh
        assert {code for code, _, _ in warm} == {0, 1, 2, ("exit", 0)}

    @pytest.mark.parametrize("first,first_code,then,expected", [
        pytest.param(["pell", "--d", "5", "--count", "3"], 0,
                     ["pell", "--d", "5"], (0, _PELL5, ""), id="count"),
        pytest.param(["--format", "csv", "pell", "--d", "5"], 0,
                     ["pell", "--d", "5"], (0, _PELL5, ""), id="format"),
        pytest.param(["lattice", "--id", "K3", "--gram", "1"], 1,
                     ["lattice", "--id", "K3"], (0, _K3_REPORT, ""),
                     id="exclusive-group"),
    ])
    def test_nothing_leaks_between_calls(self, first, first_code, then, expected,
                                         monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(first, capsys)[0] == first_code
        assert run(then, capsys) == expected

    def test_help_width_read_at_call_time(self, cold_parser, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "20")
        cli._parser()
        helps = {}
        for width in ("40", "200"):
            monkeypatch.setenv("COLUMNS", width)
            warm = call(["pell", "--help"], capsys)
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(["pell", "--help"])
            assert warm == (("exit", 0), capsys.readouterr().out, "")
            helps[width] = warm[1]
        assert helps["40"] != helps["200"]

    def test_import_builds_no_parser(self):
        # building it at import would add to every process's cold start
        proc = fresh_python("-c", "import epwlat.cli as c; "
                            "print(c._parser.cache_info().currsize)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"
