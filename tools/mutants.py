"""Mutation gate: each listed fault must fail the one test that claims to catch it.

Each entry of ``MUTANTS`` is a file under ``src/``, an exact old text, a
new text and one pytest id that must catch it. For each, the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
checks that the old text occurs exactly once in the file (so drift in the
code is reported, not skipped), applies the mutant there and runs that test
alone with ``pytest -x``. A mutant whose test passes has survived, and
fails the run. A fault that two tests catch is two entries, so each test's
claim is checked on its own. The identity entry (old text == new text)
must survive: it shows that its test passes on the unmutated code and that
the harness runs it.

The run ends with the group view: one line per ``verify.CHECKS`` group
(imported from this checkout's ``src/``) naming the entries whose test is
``tests/test_acceptance.py::test_check_group[<group>]``, or ``-``. As every
entry must be killed, these are the faults that each group of
``epwlat verify`` is shown to fail on.

Run from the root of a source checkout, stdlib only (pytest and hypothesis
are the test extra)::

    python tools/mutants.py    # every mutant, one after another

Exit status 0 when every mutant is killed and the identity survives, 1
otherwise. The repository itself is never modified. The script is kept out
of the tier-1 suite (``testpaths = ["tests"]``), as each mutant costs one
pytest start; ``tests/test_mutants.py`` checks there, without running any
mutant, that every entry still applies and names a test that pytest
collects, and that every group has an entry in the group view.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    test: str  # one pytest id


_PROPS = "tests/test_properties.py"

MUTANTS = (
    Mutant("identity", "src/epwlat/intmat.py",
           "sh = s * head[i]", "sh = s * head[i]",
           f"{_PROPS}::test_congruence_pivots_branches"),
    Mutant("sign not folded into h", "src/epwlat/intmat.py",
           "sh = s * head[i]", "sh = head[i]",
           f"{_PROPS}::test_congruence_pivots_add_repair_on_k3"),
    # with c = 1 always, a zero pivot with 2 (b_0, b_j) + (b_j, b_j) = 0
    # stays zero after the repair, and 0 is yielded for a direction that is
    # not in the radical
    Mutant("repair always adds +b_j", "src/epwlat/intmat.py",
           "c = -1 if 2 * a[0][j] + a[j][0] == 0 else 1", "c = 1",
           f"{_PROPS}::test_congruence_pivots_branches"),
    # a row with a zero head must still be rescaled by |p| / prev; kept
    # as it is, it drops out of step with the Bareiss identity
    Mutant("zero-head row kept unscaled", "src/epwlat/intmat.py",
           "rows.append([p * x // prev for x in a[i]])", "rows.append(a[i])",
           f"{_PROPS}::test_inertia_matches_fraction_reference_at_rank_22_and_24"),
    # the Baseline blind spot: congruence_law compared signature with
    # signature; the corank by rank() and U + <0> now see the zero count
    Mutant("inertia always reports zero = 0", "src/epwlat/intmat.py",
           "return pos, neg, zero, 0 if zero", "return pos, neg, 0, 0 if zero",
           "tests/test_acceptance.py::test_check_group[bilinear-properties]"),
    Mutant("isometry diagonal +1 instead of +sign", "src/epwlat/lattices.py",
           "row[i] += sign", "row[i] += 1",
           "tests/test_lattices.py::TestReflections"),
    # G b and the rows of B^T G B then see only the first nonzero
    # coordinate of each basis vector
    Mutant("induced_gram combines only the first support entry",
           "src/epwlat/lattices.py",
           "for j, x in support[1:]:", "for j, x in support[1:1]:",
           f"{_PROPS}::test_induced_gram_on_dense_bases"),
    # the same fault fails these four groups, at n-max 3 too
    Mutant("induced_gram combines only the first support entry (index-law)",
           "src/epwlat/lattices.py",
           "for j, x in support[1:]:", "for j, x in support[1:1]:",
           "tests/test_acceptance.py::test_check_group[index-law]"),
    Mutant("induced_gram combines only the first support entry (family-identities)",
           "src/epwlat/lattices.py",
           "for j, x in support[1:]:", "for j, x in support[1:1]:",
           "tests/test_acceptance.py::test_check_group[family-identities]"),
    Mutant("induced_gram combines only the first support entry (h2-basis)",
           "src/epwlat/lattices.py",
           "for j, x in support[1:]:", "for j, x in support[1:1]:",
           "tests/test_acceptance.py::test_check_group[h2-basis]"),
    Mutant("induced_gram combines only the first support entry (catalog-reports)",
           "src/epwlat/lattices.py",
           "for j, x in support[1:]:", "for j, x in support[1:1]:",
           "tests/test_acceptance.py::test_check_group[catalog-reports]"),
    # the shortcut returns rows[j] itself, right only for a one-term
    # support whose coefficient is 1: -e_j then pairs as +e_j, and
    # e_i + c e_j as e_i
    Mutant("one-term combination ignores its coefficient", "src/epwlat/lattices.py",
           "if x == 1 and len(support) == 1:", "if len(support) == 1:",
           f"{_PROPS}::test_induced_gram_on_unit_and_mixed_supports"),
    Mutant("combination shortcut takes a multi-term support", "src/epwlat/lattices.py",
           "if x == 1 and len(support) == 1:", "if x == 1:",
           f"{_PROPS}::test_induced_gram_on_unit_and_mixed_supports"),
    Mutant("is_prime one witness too few", "src/epwlat/pell.py",
           "_WITNESSES[:bisect_right(_PSI, n) + 1]",
           "_WITNESSES[:bisect_right(_PSI, n)]",
           "tests/test_pell.py::TestPrimeCriterion::test_psi_k_is_not_prime"),
    # the period is mirrored from its stored half only when read; for odd
    # L = 2h + 1 the body is a_1 ... a_h a_h ... a_1, for even L = 2h it is
    # a_1 ... a_h a_{h-1} ... a_1
    Mutant("odd mirror drops a_h", "src/epwlat/pell.py",
           "self.half[::-1] if self.odd", "self.half[-2::-1] if self.odd",
           "tests/test_pell.py::TestHalfPeriodWalk::test_every_nonsquare_to_20000"),
    Mutant("even mirror repeats a_h", "src/epwlat/pell.py",
           "else self.half[-2::-1]", "else self.half[::-1]",
           "tests/test_pell.py::TestHalfPeriodWalk::test_every_nonsquare_to_20000"),
    Mutant("period_length loses its parity term", "src/epwlat/pell.py",
           "return 2 * len(self.half) + self.odd", "return 2 * len(self.half)",
           "tests/test_pell.py::TestHalfPeriodWalk::test_every_nonsquare_to_20000"),
    # Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}) with Q_k for Q_{k-1}: at D = 2,
    # the first D tested, Q_1 = 0 and the next quotient divides by it, so
    # the walk fails at once instead of looping
    Mutant("Q update reads Q_k for Q_{k-1}", "src/epwlat/pell.py",
           "q_next = q_prev + a * (p - p_next)", "q_next = q + a * (p - p_next)",
           "tests/test_pell.py::TestHalfPeriodWalk::test_every_nonsquare_to_20000"),
    # the loop covers n <= n_max while the detail still says n <= 5 * n_max
    Mutant("family-identities loop shrinks, label kept", "src/epwlat/verify.py",
           "for n in range(1, top + 1):\n        rec",
           "for n in range(1, n_max + 1):\n        rec",
           "tests/test_family.py::TestFamilyRecords::test_verify_builds_each_record_once"),
    # forward substitution with R, whose entries below the diagonal are 0,
    # so each row is divided as if R were diagonal
    Mutant("saturation solves with R, not R^T", "src/epwlat/intmat.py",
           "c = a[j][i]", "c = a[i][j]",
           f"{_PROPS}::test_saturation_from_one_echelon"),
    Mutant("saturation skips the division by the pivot", "src/epwlat/intmat.py",
           "tuple(acc) if p == 1 else tuple([x // p for x in acc])", "tuple(acc)",
           f"{_PROPS}::test_saturation_from_one_echelon"),
    # the unit shortcut divides by nothing, so it is right only for p = 1;
    # the test's rows are scaled by 2, 3 and 6
    Mutant("saturation shortcut taken for every positive pivot", "src/epwlat/intmat.py",
           "if p == 1 else", "if p > 0 else",
           f"{_PROPS}::test_saturation_from_one_echelon"),
    # each vector divided by its content, not by R's pivot: [(1, 1), (1, -1)]
    # is kept, and its unit Hermite pivot test fails, as its index in Z^2 is 2
    Mutant("saturation divides each vector by its content", "src/epwlat/intmat.py",
           "        s.append(tuple(acc) if p == 1 else tuple([x // p for x in acc]))",
           "        from math import gcd\n        s.append(tuple([x // gcd(*v) for x in v]))",
           "tests/test_acceptance.py::test_check_group[saturation]"),
    # the tie rule of the sorting rounds is that the earlier row reduces; this
    # sort is still ascending (a descending one need not terminate) but puts
    # the later row first on ties
    Mutant("sorting rounds prefer the later row on ties", "src/epwlat/intmat.py",
           "live.sort(key=lambda row: abs(row[c]))",
           "live.sort(key=lambda row: abs(row[c]), reverse=True)\n"
           "            live.reverse()",
           f"{_PROPS}::test_echelon_matches_sorting_reference"),
    # a valid but non-minimal solution, the cube of the fundamental one, only
    # where brute force (x <= 10^4) cannot see it; D = 109 is the first
    Mutant("fundamental cubed beyond the brute-force cap", "src/epwlat/pell.py",
           "    y = cf.a0 * x + p * q + pp * qq\n",
           "    y = cf.a0 * x + p * q + pp * qq\n"
           "    if x > 10**4: y, x = y**3 + 3 * d * y * x * x, 3 * y * y * x + d * x**3\n",
           "tests/test_acceptance.py::test_check_group[pell-minimality]"),
    # the sieve keeps the x with D x^2 + 1 a square mod m, and so drops true
    # solutions: x = 1 for D = 2, as 3 is no square mod 64
    Mutant("sieve residue condition D x^2 + 1", "src/epwlat/verify.py",
           "(dm * r * r - 1) % m in squares", "(dm * r * r + 1) % m in squares",
           "tests/test_pell.py::TestBruteForceTable::"
           "test_sieve_matches_full_period_reference_to_2000"),
    # the repair adds a row, which keeps the determinant; a swap in its place
    # negates it, and U = [[0, 1], [1, 0]] needs one
    Mutant("det repairs by a row swap, without a sign", "src/epwlat/intmat.py",
           "a[k] = [x + y for x, y in zip(a[k], a[i])]", "a[k], a[i] = a[i], a[k]",
           f"{_PROPS}::test_inertia_det_of_zero_diagonal_and_degenerate_grams"),
    # index-law takes disc(B^T G B) from the symmetric elimination, so a
    # wrong det shows against it at n-max 3
    Mutant("det negated at odd rank >= 3", "src/epwlat/intmat.py",
           "    return a[n - 1][n - 1]\n",
           "    return (-1 if n % 2 and n >= 3 else 1) * a[n - 1][n - 1]\n",
           "tests/test_acceptance.py::test_check_group[index-law]"),
    # one Namespace for every call: the top-level --format default is set only
    # when the namespace lacks it, so a previous call's --format csv sticks
    Mutant("parser reuse shares one namespace", "src/epwlat/cli.py",
           "_parser().parse_args(argv)",
           "_parser().parse_args(argv, globals().setdefault('_ns', argparse.Namespace()))",
           "tests/test_cli.py::TestParserReuse::test_nothing_leaks_between_calls"),
    # accepting r == n draws n itself and shifts every later draw of the
    # stream, so the seeded cases are no longer those of random.Random
    Mutant("sampler accepts r == n", "src/epwlat/verify.py",
           "while r >= n:", "while r > n:",
           f"{_PROPS}::test_draws_equal_stdlib_random"),
    Mutant("bulk draws accept r == width", "src/epwlat/verify.py",
           "while r >= width:", "while r > width:",
           f"{_PROPS}::test_draws_equal_stdlib_random"),
    # only the first row's length is compared with the rank, so a ragged
    # Gram whose first row fits is reported as not symmetric
    Mutant("square check reads the first row only", "src/epwlat/lattices.py",
           "set(map(len, rows)) - {n}", "set(map(len, rows[:1])) - {n}",
           "tests/test_lattices.py::TestTypes::test_gram_checks_in_order"),
    Mutant("square check reads the first row only (CLI)", "src/epwlat/lattices.py",
           "set(map(len, rows)) - {n}", "set(map(len, rows[:1])) - {n}",
           "tests/test_cli.py::test_usage_error[gram-ragged]"),
    # the orthogonal complement is then fixed whatever the sign, which the
    # negated reflections of involution-soundness (s = -1) contradict
    Mutant("involution law ignores the sign on r-perp", "src/epwlat/verify.py",
           "tuple(s * x for x in w)", "w",
           "tests/test_acceptance.py::test_check_group[involution-soundness]"),
    # gamma = h - y delta has square d - 2y^2 != 2 once the witness has x > 1
    # (d = 26 is the first), so the involution is refused there
    Mutant("epw_involution drops the witness's x", "src/epwlat/epwfamily.py",
           "(witness.x, -witness.y)", "(1, -witness.y)",
           "tests/test_family.py::TestInvolution::test_every_passing_degree_to_2000"),
    # NS_HILB(4), (10) and (34) are seeds twice, with the roots delta and
    # h - m*delta, so a Gram-only key skips distinct reflections of one Gram
    Mutant("reflection memo keyed on the Gram only", "src/epwlat/verify.py",
           "key = (gram, root)", "key = gram",
           f"{_PROPS}::test_randomized_groups_check_each_case_once"),
    # the vectors then move by E, not by E^-1, so a transported root of
    # square +-2 loses its square
    Mutant("transport adds to vectors with the Gram's sign", "src/epwlat/verify.py",
           "v[i] -= c * v[j]", "v[i] += c * v[j]",
           "tests/test_acceptance.py::test_check_group[reflection-properties]"),
    # orthogonal_complement fixes h2 only up to sign; no input of the
    # package hands family the negated generator, so only a patched
    # complement shows the missing flip
    Mutant("family keeps the complement's sign for h2", "src/epwlat/epwfamily.py",
           "    if lattices.product(pi, h2, (1, 0)) < 0:\n        h2 = tuple(-x for x in h2)\n",
           "",
           "tests/test_family.py::TestFamilyRecords::test_h2_sign_turned_towards_gamma"),
    # row_hnf then returns its rows as given, so two bases of one lattice
    # get different forms and only equal lists share a span
    Mutant("span test requires equal lists", "src/epwlat/intmat.py",
           "    a = [list(v) for v in vectors]\n",
           "    return tuple(map(tuple, vectors))\n",
           f"{_PROPS}::test_same_span"),
    # each human line is printed as it is made and none is kept: the same
    # bytes when every line converts, but a conversion that fails midway
    # leaves the lines before it on stdout
    Mutant("human text written before it is complete", "src/epwlat/cli.py",
           'text = "".join(f"{line}\\n" for line in human())',
           'text = "".join(f"{line}\\n" for line in human() if print(line))',
           "tests/test_cli.py::TestPell::test_same_exit_and_clean_stdout_in_both_formats"),
    # every `epwlat pell` then loads the lattice code at import and never uses it
    Mutant("cli imports the lattice stack eagerly", "src/epwlat/cli.py",
           "from . import __version__, pell\n",
           "from . import __version__, pell\nfrom . import catalog, epwfamily, lattices\n",
           "tests/test_cli.py::test_cli_import_loads_only_the_pell_path"),
    # the Pell records as dataclasses again: `epwlat pell` then loads
    # dataclasses and inspect at import
    Mutant("pell imports dataclasses", "src/epwlat/pell.py",
           "from bisect import bisect_right\n",
           "from bisect import bisect_right\nfrom dataclasses import dataclass\n",
           "tests/test_cli.py::test_cli_import_loads_no_dataclasses"),
    # the lattice records as dataclasses again: every subcommand but `pell`
    # then loads dataclasses and inspect
    Mutant("lattices imports dataclasses", "src/epwlat/lattices.py",
           "import operator\n", "import operator\nfrom dataclasses import dataclass\n",
           "tests/test_cli.py::test_verify_import_loads_no_dataclasses"),
    # every block starts in column 0, so the rows of a sum of two or more
    # nonempty parts are too short; the catalog's composites then fail to
    # build (tests/test_lattices.py builds sums while it collects)
    Mutant("direct_sum never advances its column offset", "src/epwlat/lattices.py",
           "        before += part.rank\n", "",
           "tests/test_catalog.py::test_composite_gram_pinned"),
    # the Baseline blind spot: prime-criterion skipped every p that is_prime
    # rejects, so this passed it; the sieve side fails it at p = 101
    Mutant("is_prime rejects p = 5 (mod 8) above 100", "src/epwlat/pell.py",
           "    if n < 2:\n        return False\n    for p in _WITNESSES:",
           "    if n < 2 or (n > 100 and n % 8 == 5):\n        return False\n"
           "    for p in _WITNESSES:",
           "tests/test_acceptance.py::test_check_group[prime-criterion]"),
    # a fixed-claim group then checks only its first row
    Mutant("_expect checks only its first claim", "src/epwlat/verify.py",
           "for what, got, want in claims:", "for what, got, want in claims[:1]:",
           "tests/test_acceptance.py::test_expect_fails_on_the_first_false_claim"),
    Mutant("_expect checks only its first claim (pell-d5)", "src/epwlat/verify.py",
           "for what, got, want in claims:", "for what, got, want in claims[:1]:",
           "tests/test_acceptance.py::test_pell_d5_reports_its_third_claim"),
    # y = a0 x + P Q + P' Q' with the cross terms swapped is no solution's y,
    # so the fundamental solution fails its own check at D = 2
    Mutant("wrong cross term in y", "src/epwlat/pell.py",
           "p * q + pp * qq", "p * qq + pp * q",
           "tests/test_acceptance.py::test_check_group[pell-minimality]"),
    # the sign then reaches only the diagonal: a negated reflection maps
    # its root to -3r, so it no longer fixes gamma
    Mutant("negated reflection loses its sign", "src/epwlat/lattices.py",
           "f = [-sign * (2 * x // ee) for x in ge]", "f = [-(2 * x // ee) for x in ge]",
           "tests/test_acceptance.py::test_check_group[involution-images]"),
    Mutant("negated reflection loses its sign (involution-soundness)",
           "src/epwlat/lattices.py",
           "f = [-sign * (2 * x // ee) for x in ge]", "f = [-(2 * x // ee) for x in ge]",
           "tests/test_acceptance.py::test_check_group[involution-soundness]"),
    # the rows below give each verify group a fault that fails it (at
    # n-max 3 too); the group view of main() lists the rows per group
    # gamma^4 = 12 with c = 3 gives t = 4, the square of (gamma, gamma) = 2
    Mutant("fujiki_degree_to_bb returns t, not s", "src/epwlat/epwfamily.py",
           "    return s\n", "    return t\n",
           "tests/test_acceptance.py::test_check_group[fujiki-pipeline]"),
    Mutant("sieve residue condition D x^2 + 1 (pell-oracle)", "src/epwlat/verify.py",
           "(dm * r * r - 1) % m in squares", "(dm * r * r + 1) % m in squares",
           "tests/test_acceptance.py::test_check_group[pell-oracle]"),
    # L(-1) = L: the K3 lattice is then built from E8, not E8(-1)
    Mutant("rescale by |a|", "src/epwlat/lattices.py",
           "tuple(a * x for x in row)", "tuple(abs(a) * x for x in row)",
           "tests/test_acceptance.py::test_check_group[catalog-reports]"),
    # a non-saturated complement: index 2 in the true one
    Mutant("orthogonal_complement doubles its first vector", "src/epwlat/lattices.py",
           "    return intmat.kernel([intmat.mat_vec(lattice.gram, cv)], lattice.rank)\n",
           "    k = intmat.kernel([intmat.mat_vec(lattice.gram, cv)], lattice.rank)\n"
           "    return [tuple(2 * x for x in v) for v in k[:1]] + k[1:]\n",
           "tests/test_acceptance.py::test_check_group[saturation]"),
    # a sign-flipped direct-sum block: the last part enters as L(-1)
    Mutant("direct_sum negates its last part", "src/epwlat/lattices.py",
           "rows += [(0,) * before + row + (0,) * after for row in part.gram]",
           "rows += [(0,) * before + (row if after else tuple(-x for x in row))"
           " + (0,) * after for row in part.gram]",
           "tests/test_acceptance.py::test_check_group[bilinear-properties]"),
    Mutant("family takes r = 2n + 1", "src/epwlat/epwfamily.py",
           "    r = 2 * n + 2\n", "    r = 2 * n + 1\n",
           "tests/test_acceptance.py::test_check_group[family-identities]"),
    Mutant("delta2 at (4, 0, -8)", "src/epwlat/catalog.py",
           "DELTA2_COORDS = (4, 0, -9)", "DELTA2_COORDS = (4, 0, -8)",
           "tests/test_acceptance.py::test_check_group[h2-basis]"),
    # the derived solutions step by T s_m - s_{m-1}, where T = 4 y^2 + 2 is
    # the trace of e^2; with 4 y^2 - 2 every one after the first is off
    Mutant("unit trace 4 y^2 - 2", "src/epwlat/pell.py",
           "t = 4 * (y * y) + 2", "t = 4 * (y * y) - 2",
           "tests/test_acceptance.py::test_check_group[pell-d5]"),
    Mutant("unit trace 4 y^2 - 2 (closed-form-erratum)", "src/epwlat/pell.py",
           "t = 4 * (y * y) + 2", "t = 4 * (y * y) - 2",
           "tests/test_acceptance.py::test_check_group[closed-form-erratum]"),
    # d = 10, the degree of the paper's involution, is then refused
    Mutant("necessary_condition refuses d < 12", "src/epwlat/epwfamily.py",
           "if d % 2 or d < 10:", "if d % 2 or d < 12:",
           "tests/test_acceptance.py::test_check_group[necessary-condition]"),
    # only the divisibility test is left; (-60, -20) has quotient 3
    Mutant("sublattice test skips the square check", "src/epwlat/lattices.py",
           "return q >= 1 and isqrt(q) ** 2 == q", "return q >= 1",
           "tests/test_acceptance.py::test_check_group[disc-obstruction]"),
)


def run_mutant(m: Mutant) -> tuple[bool, str]:
    """(survived, detail) for one mutant, in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="epwlat-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / m.path
        text = target.read_text()
        count = text.count(m.old)
        if count != 1:
            raise SystemExit(f"{m.name}: old text occurs {count} times in {m.path}")
        target.write_text(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "--no-header",
               "-p", "no:cacheprovider", m.test]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
        lines = proc.stdout.strip().splitlines()
        summary = lines[-1] if lines else proc.stderr.strip()[-200:]
        if proc.returncode not in (0, 1):  # 1: tests failed; else usage/collection
            raise SystemExit(f"{m.name}: pytest exited {proc.returncode}: {summary}")
        return proc.returncode == 0, summary


def main() -> int:
    bad = 0
    for m in MUTANTS:
        start = time.perf_counter()
        survived, summary = run_mutant(m)
        ok = survived == (m.old == m.new)  # only the identity may survive
        bad += not ok
        verdict = "survived" if survived else "killed"
        print(f"{'ok ' if ok else 'BAD'} {verdict:8s} {time.perf_counter() - start:5.1f} s"
              f"  {m.name}: {summary}", flush=True)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} as expected")
    sys.path.insert(0, str(ROOT / "src"))
    from epwlat import verify
    for group, _ in verify.CHECKS:  # the group view: rows that must fail each group
        rows = [m.name for m in MUTANTS if m.test.endswith(f"::test_check_group[{group}]")]
        print(f"{group}: {'; '.join(rows) or '-'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
