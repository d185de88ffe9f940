"""CLI contract: subcommands, output formats, and the exit-code scheme
(0 success, 1 usage/input error, 2 unsolvable, 3 verification failure)."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epwlat import cli, verify


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

    def test_nonpositive_exit_1(self, capsys):
        code, _, _ = run(["pell", "--d", "0"], capsys)
        assert code == 1

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

    def test_ragged_rejected(self, capsys):
        code, _, _ = run(["lattice", "--gram", "1,2;3", "--op", "disc"], capsys)
        assert code == 1

    def test_non_integer_rejected(self, capsys):
        code, _, _ = run(["lattice", "--gram", "1,x;x,1", "--op", "disc"], capsys)
        assert code == 1

    def test_unknown_id_rejected(self, capsys):
        code, _, _ = run(["lattice", "--id", "E9", "--op", "report"], capsys)
        assert code == 1

    def test_empty_id_rejected(self, capsys):
        assert run(["lattice", "--id", ""], capsys) == (
            1, "", "error: malformed catalog identifier: ''\n")

    def test_empty_gram_file_rejected(self, capsys):
        code, out, err = run(["lattice", "--gram-file", ""], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_gram_file(self, tmp_path, capsys):
        path = tmp_path / "gram.txt"
        path.write_text("0,1;1,0\n", encoding="utf-8")
        code, out, _ = run(["lattice", "--gram-file", str(path), "--op", "disc"],
                           capsys)
        assert code == 0
        assert "-1" in out

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
        code, _, _ = run(["family", "--n-min", "2", "--n-max", "1"], capsys)
        assert code == 1
        code, _, _ = run(["family", "--n-min", "0", "--n-max", "1"], capsys)
        assert code == 1

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
        code, _, _ = run(["ogrady", "--r", "-1"], capsys)
        assert code == 1

    def test_csv(self, capsys):
        code, out, _ = run(["--format", "csv", "ogrady", "--r", "6"], capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["6", "EVEN_FAMILY", "2", "74"]


class TestVerify:
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

    def test_bad_scale(self, capsys):
        code, _, _ = run(["verify", "--n-max", "0"], capsys)
        assert code == 1

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


class TestParsing:
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
