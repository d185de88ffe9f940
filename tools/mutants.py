"""Mutation gate: each declared fault must fail every test that claims to catch it.

Each entry of ``FAULTS`` declares a fault once: a file under ``src/``, an
exact old text, a new text and the pytest ids that must catch it. The rows
of ``MUTANTS`` are derived, one per test, and are ``Fault`` records too: a
fault narrowed to one test, with ``also`` empty. The first test's row has
the bare name, each further one is ``"<name> (<suffix>)"``. A row's name is
its only identity (and its test id in ``tests/test_mutants.py``), so no two
rows share one. Each test's claim is checked on its own, and re-texting a
fault is one edit. For each row, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, with a root ``conftest.py``
that turns hypothesis's shrink phase off (the gate needs a failure, not a
minimal example), applies the mutant there and runs that test alone with
``pytest -x``, without plugin autoload.
Exit 0 means the mutant survived, and fails the run; exit 1 or a timeout
means it was killed; any other exit is a ``BAD`` row with pytest's last
line. Before any row runs, every old text must occur exactly once in its
file, or the run names each drifting row and exits 1, so drift in the code
is reported, not skipped. The identity entry (old text == new text) must
survive: it shows that its test passes on the unmutated code and that the
harness runs it.

Rows run on one worker thread per CPU that the process may use; lines print
in ``MUTANTS`` order, each with its row's own time, then the total wall
time. The group view (``group_rows``) ends the run: one line per
``verify.CHECKS`` group naming the rows whose test is
``tests/test_acceptance.py::test_check_group[<group>]``, or ``-``, that is,
the faults that each group of ``epwlat verify`` is shown to fail on.

Run from the root of a source checkout (pytest and hypothesis are the test
extra): ``python tools/mutants.py``. Exit status 0 when every mutant is
killed and the identity survives, 1 otherwise. The repository is never
modified. The script is kept out of the tier-1 suite, as each mutant costs
one pytest start; ``tests/test_mutants.py`` checks there, without running
any, that no fault is declared twice, that no two rows share a name, that
every row applies and names a collected test, and that every group has a row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
# each copy's root conftest.py; the tier-1 suite keeps hypothesis's defaults
CONFTEST = """from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("mutants")
"""


class Fault(NamedTuple):
    """One fault, declared once, with every test that must catch it; a row of
    ``MUTANTS`` is one narrowed to a single test."""
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    test: str  # its row has the bare name
    also: tuple[tuple[str, str], ...] = ()  # (suffix, test): row "<name> (<suffix>)"


_PROPS = "tests/test_properties.py"


def _group(group: str) -> str:
    """The pytest id of one ``epwlat verify`` group, which runs it at n-max 100."""
    return f"tests/test_acceptance.py::test_check_group[{group}]"


def _groups(*groups: str) -> tuple[tuple[str, str], ...]:
    """Further tests of a fault: each group's id, under the group's name."""
    return tuple((g, _group(g)) for g in groups)


def _claims(*claims: str) -> tuple[tuple[str, str], ...]:
    """Further tests of a fault: each certified claim's point spy, under its id."""
    return tuple((c, f"tests/test_acceptance.py::test_certified_claim_covers_its_points[{c}]")
                 for c in claims)


FAULTS = (
    Fault("identity", "src/epwlat/intmat.py",
          "sh = s * head[i]", "sh = s * head[i]", f"{_PROPS}::test_congruence_pivots_branches"),
    Fault("sign not folded into h", "src/epwlat/intmat.py",
          "sh = s * head[i]", "sh = head[i]",
          f"{_PROPS}::test_congruence_pivots_add_repair_on_k3"),
    # with c = 1 always, a zero pivot with 2 (b_0, b_j) + (b_j, b_j) = 0
    # stays zero after the repair, and 0 is yielded for a direction that is
    # not in the radical
    Fault("repair always adds +b_j", "src/epwlat/intmat.py",
          "c = -1 if 2 * a[0][j] + a[j][0] == 0 else 1", "c = 1",
          f"{_PROPS}::test_congruence_pivots_branches"),
    # a row with a zero head must still be rescaled by |p| / prev; kept
    # as it is, it drops out of step with the Bareiss identity
    Fault("zero-head row kept unscaled", "src/epwlat/intmat.py",
          "rows.append([p * x // prev for x in a[i]])", "rows.append(a[i])",
          f"{_PROPS}::test_inertia_matches_fraction_reference_at_rank_22_and_24"),
    # the Baseline blind spot: congruence_law compared signature with
    # signature; the corank by rank() and U + <0> now see the zero count
    Fault("inertia always reports zero = 0", "src/epwlat/intmat.py",
          "return pos, neg, zero, 0 if zero", "return pos, neg, 0, 0 if zero",
          _group("bilinear-properties")),
    Fault("isometry diagonal +1 instead of +sign", "src/epwlat/lattices.py",
          "row[i] += sign", "row[i] += 1", "tests/test_lattices.py::TestReflections"),
    # every matrix product (so G b, the rows of B^T G B, M^T G M and M^2)
    # then sees only the first nonzero coordinate of each row; the fault
    # fails these five groups and involution-soundness, at n-max 3 too
    Fault("induced_gram combines only the first support entry",
          "src/epwlat/intmat.py",
          "for j, x in support[1:]:", "for j, x in support[1:1]:",
          f"{_PROPS}::test_induced_gram_on_dense_bases",
          _groups("index-law", "family-identities", "h2-basis", "catalog-reports",
                  "reflection-properties")),
    # the shortcut returns rows[j] itself, right only for a one-term
    # support whose coefficient is 1: -e_j then pairs as +e_j, and
    # e_i + c e_j as e_i
    Fault("one-term combination ignores its coefficient", "src/epwlat/intmat.py",
          "if x == 1 and len(support) == 1:", "if len(support) == 1:",
          f"{_PROPS}::test_induced_gram_on_unit_and_mixed_supports"),
    Fault("combination shortcut takes a multi-term support", "src/epwlat/intmat.py",
          "if x == 1 and len(support) == 1:", "if x == 1:",
          f"{_PROPS}::test_induced_gram_on_unit_and_mixed_supports"),
    # M G M^T pairs the rows of M, not the images of the basis: the
    # involution of NS_HILB(10) then gives (9h - 20delta)^2 = 10 but
    # (9h + 4delta)^2 = 778 on its first row; at n-max 3 it also fails
    # involution-soundness
    Fault("is_isometry pairs M's rows instead of its columns", "src/epwlat/lattices.py",
          "intmat.congruence(intmat.transpose(rows), lattice.gram)",
          "intmat.congruence(rows, lattice.gram)",
          "tests/test_lattices.py::TestIsIsometry", _groups("reflection-properties")),
    Fault("is_prime one witness too few", "src/epwlat/pell.py",
          "_WITNESSES[:bisect_right(_PSI, n) + 1]",
          "_WITNESSES[:bisect_right(_PSI, n)]",
          "tests/test_pell.py::TestPrimeCriterion::test_psi_k_is_not_prime"),
    # the period is mirrored from its stored half only when read; for odd
    # L = 2h + 1 the body is a_1 ... a_h a_h ... a_1, for even L = 2h it is
    # a_1 ... a_h a_{h-1} ... a_1
    Fault("odd mirror drops a_h", "src/epwlat/pell.py",
          "self.half[::-1] if self.odd", "self.half[-2::-1] if self.odd",
          "tests/test_pell.py::TestHalfPeriodWalk::test_every_nonsquare_to_20000"),
    Fault("even mirror repeats a_h", "src/epwlat/pell.py",
          "else self.half[-2::-1]", "else self.half[::-1]",
          "tests/test_pell.py::TestHalfPeriodWalk::test_every_nonsquare_to_20000"),
    Fault("period_length loses its parity term", "src/epwlat/pell.py",
          "return 2 * len(self.half) + self.odd", "return 2 * len(self.half)",
          "tests/test_pell.py::TestHalfPeriodWalk::test_every_nonsquare_to_20000"),
    # Q_{k+1} = Q_{k-1} + a_k (P_k - P_{k+1}) with Q_k for Q_{k-1}: at D = 2,
    # the first D tested, Q_1 = 0 and the next quotient divides by it, so
    # the walk fails at once instead of looping
    Fault("Q update reads Q_k for Q_{k-1}", "src/epwlat/pell.py",
          "q_next = q_prev + a * (p - p_next)", "q_next = q + a * (p - p_next)",
          "tests/test_pell.py::TestHalfPeriodWalk::test_every_nonsquare_to_20000"),
    # the one certificate loop of the five certified groups skips the far
    # point while every detail still names it
    Fault("family-identities loop shrinks, label kept", "src/epwlat/verify.py",
          "for n in (*range(1, k + 2), far):", "for n in range(1, k + 2):",
          "tests/test_family.py::TestFamilyRecords::test_verify_builds_each_record_once",
          (("certificate", "tests/test_acceptance.py::"
            "test_certified_claim_covers_its_points[family-identities-family]"),
           *_claims("h2-basis-epw_picard_lattice", "h2-basis-is_primitive",
                    "involution-soundness-epw_involution", "involution-soundness-involution_law",
                    "necessary-condition-necessary_condition",
                    "disc-obstruction-disc_obstruction",
                    "disc-obstruction-k3_embedding_sufficient",
                    "disc-obstruction-reflection_inequality"))),
    # forward substitution with R, whose entries below the diagonal are 0,
    # so each row is divided as if R were diagonal
    Fault("saturation solves with R, not R^T", "src/epwlat/intmat.py",
          "c = a[j][i]", "c = a[i][j]", f"{_PROPS}::test_saturation_from_one_echelon"),
    Fault("saturation skips the division by the pivot", "src/epwlat/intmat.py",
          "s.append(tuple([x // a[i][i] for x in acc]))", "s.append(tuple(acc))",
          f"{_PROPS}::test_saturation_from_one_echelon"),
    # the whole-basis return is right only when every pivot is 1, when R's
    # Hermite form is I; the test's rows are scaled by 2, 3 and 6
    Fault("saturation shortcut taken for every positive pivot", "src/epwlat/intmat.py",
          "a[i][i] == 1 for i in range(k)", "a[i][i] > 0 for i in range(k)",
          f"{_PROPS}::test_saturation_from_one_echelon"),
    # each vector divided by its content, not by R's pivot: [(1, 1), (1, -1)]
    # is kept, and its unit Hermite pivot test fails, as its index in Z^2 is 2
    Fault("saturation divides each vector by its content", "src/epwlat/intmat.py",
          "        s.append(tuple([x // a[i][i] for x in acc]))",
          "        from math import gcd\n        s.append(tuple([x // gcd(*v) for x in v]))",
          _group("saturation")),
    # the substitution then solves against the unreduced R: still a basis of
    # the saturation, but not the input's basis when that was saturated
    # before scaling, nor the reference's list
    Fault("saturation skips the Hermite reduction", "src/epwlat/intmat.py",
          "    _hermite_reduce(a, k)\n", "",
          f"{_PROPS}::test_saturation_of_a_scaled_big_saturated_basis_is_the_basis",
          (("reference", f"{_PROPS}::test_saturation_matches_reference"),)),
    # a ceiling quotient leaves every entry above a pivot in (-p, 0]
    Fault("Hermite reduction into (-p, 0]", "src/epwlat/intmat.py",
          "q = a[i][c] // p\n", "q = -(-a[i][c] // p)\n",
          f"{_PROPS}::test_row_hnf_is_reduced_and_canonical"),
    # the tie rule of the sorting rounds is that the earlier row reduces; this
    # sort is still ascending (a descending one need not terminate) but puts
    # the later row first on ties
    Fault("sorting rounds prefer the later row on ties", "src/epwlat/intmat.py",
          "live.sort(key=lambda row: abs(row[c]))",
          "live.sort(key=lambda row: abs(row[c]), reverse=True)\n"
          "            live.reverse()",
          f"{_PROPS}::test_echelon_matches_sorting_reference"),
    # a valid but non-minimal solution, the cube of the fundamental one, only
    # where brute force (x <= 10^4) cannot see it; D = 109 is the first
    Fault("fundamental cubed beyond the brute-force cap", "src/epwlat/pell.py",
          "    y = cf.a0 * x + p * q + pp * qq\n",
          "    y = cf.a0 * x + p * q + pp * qq\n"
          "    if x > 10**4: y, x = y**3 + 3 * d * y * x * x, 3 * y * y * x + d * x**3\n",
          _group("pell-minimality")),
    # the sieve keeps the x with D x^2 + 1 a square mod m, and so drops true
    # solutions: x = 1 for D = 2, as 3 is no square mod 64
    Fault("sieve residue condition D x^2 + 1", "src/epwlat/verify.py",
          "(dm * r * r - 1) % m in squares", "(dm * r * r + 1) % m in squares",
          "tests/test_pell.py::TestBruteForceTable::"
          "test_sieve_matches_full_period_reference_to_2000",
          _groups("pell-oracle")),
    # each D then ANDs the tile of D + 1, which drops true solutions: x = 1
    # for D = 2 is sieved as for D = 3, and 3 - 1 = 2 is no square mod 64
    Fault("sieve reads the tile of D + 1", "src/epwlat/verify.py",
          "mask &= tile[d % m]", "mask &= tile[(d + 1) % m]",
          "tests/test_pell.py::TestBruteForceTable::"
          "test_sieve_matches_full_period_reference_to_2000",
          _groups("pell-oracle")),
    # a modulus tiles the residues of every flagged D but the last; at top 60
    # that D, 58, is the only one = 58 (mod 64), so its lookup fails (at
    # pell-oracle's top 2000 every residue recurs, so the group cannot see it)
    Fault("sieve tiles no residue of the last D", "src/epwlat/verify.py",
          "for r in {d % m for d in ds}}", "for r in {d % m for d in ds[:-1]}}",
          "tests/test_pell.py::TestBruteForceTable::"
          "test_sieve_matches_per_d_scan_with_top_below_x_max"),
    # the repair adds a row, which keeps the determinant; a swap in its place
    # negates it, and U = [[0, 1], [1, 0]] needs one
    Fault("det repairs by a row swap, without a sign", "src/epwlat/intmat.py",
          "a[k] = [x + y for x, y in zip(a[k], a[i])]", "a[k], a[i] = a[i], a[k]",
          f"{_PROPS}::test_inertia_det_of_zero_diagonal_and_degenerate_grams"),
    # index-law takes disc(B^T G B) from the symmetric elimination, so a
    # wrong det shows against it at n-max 3
    Fault("det negated at odd rank >= 3", "src/epwlat/intmat.py",
          "    return a[n - 1][n - 1]\n",
          "    return (-1 if n % 2 and n >= 3 else 1) * a[n - 1][n - 1]\n", _group("index-law")),
    # the index of the sublattice spanned by B's columns is |det(B)|, and
    # disc scales by its square
    Fault("index law compares with det(B), not its square", "src/epwlat/verify.py",
          "det_b**2 * lattices.discriminant(lat)", "det_b * lattices.discriminant(lat)",
          _group("index-law"),
          (("property", f"{_PROPS}::test_finite_index_discriminant_law"),)),
    # one Namespace for every call: the top-level --format default is set only
    # when the namespace lacks it, so a previous call's --format csv sticks
    Fault("parser reuse shares one namespace", "src/epwlat/cli.py",
          "_parser().parse_args(argv)",
          "_parser().parse_args(argv, globals().setdefault('_ns', argparse.Namespace()))",
          "tests/test_cli.py::TestParserReuse::test_nothing_leaks_between_calls"),
    # accepting r == n draws n itself and shifts every later draw of the
    # stream, so the seeded cases are no longer those of random.Random
    Fault("sampler accepts r == n", "src/epwlat/verify.py",
          "while r >= n:", "while r > n:", f"{_PROPS}::test_draws_equal_stdlib_random"),
    Fault("bulk draws accept r == width", "src/epwlat/verify.py",
          "while r >= width:", "while r > width:", f"{_PROPS}::test_draws_equal_stdlib_random"),
    # only the first row's length is compared with the rank, so a ragged
    # Gram whose first row fits is reported as not symmetric
    Fault("square check reads the first row only", "src/epwlat/lattices.py",
          "set(map(len, rows)) - {n}", "set(map(len, rows[:1])) - {n}",
          "tests/test_lattices.py::TestTypes::test_gram_checks_in_order",
          (("CLI", "tests/test_cli.py::test_usage_error[gram-ragged]"),)),
    # the orthogonal complement is then fixed whatever the sign, which the
    # negated reflections of involution-soundness (s = -1) contradict
    Fault("involution law ignores the sign on r-perp", "src/epwlat/verify.py",
          "tuple(s * x for x in w)", "w", _group("involution-soundness")),
    # the plain reflection obeys the involution law of its own sign, +1, so
    # only the sign row sees that J negates gamma-perp no longer
    Fault("epw_involution is the plain reflection", "src/epwlat/epwfamily.py",
          "return lattices.negated_reflection(", "return lattices.reflection(",
          _group("involution-soundness")),
    # gamma = h - y delta has square d - 2y^2 != 2 once the witness has x > 1
    # (d = 26 is the first), so the involution is refused there
    Fault("epw_involution drops the witness's x", "src/epwlat/epwfamily.py",
          "(witness.x, -witness.y)", "(1, -witness.y)",
          "tests/test_family.py::TestInvolution::test_every_passing_degree_to_2000"),
    # NS_HILB(4), (10) and (34) are seeds twice, with the roots delta and
    # h - m*delta, so a Gram-only key skips distinct reflections of one Gram
    Fault("reflection memo keyed on the Gram only", "src/epwlat/verify.py",
          "key = (gram, root)", "key = gram",
          f"{_PROPS}::test_randomized_groups_check_each_case_once"),
    # the labels then count draws, not the distinct inputs they checked:
    # a repeated reflection or vector list, or a rejected index-law pair,
    # counts again
    Fault("reflection label counts every draw", "src/epwlat/verify.py",
          "{len(checked)} distinct of", "{cases} distinct of",
          f"{_PROPS}::test_randomized_groups_check_each_case_once"),
    Fault("index-law label counts rejected pairs", "src/epwlat/verify.py",
          "{sum(accepted.values())} distinct of", "{len(accepted)} distinct of",
          f"{_PROPS}::test_randomized_groups_check_each_case_once"),
    Fault("saturation label counts every draw", "src/epwlat/verify.py",
          "{len(saturated)} distinct of", "{cases} distinct of",
          f"{_PROPS}::test_randomized_groups_check_each_case_once"),
    # complement_law checks nothing for the zero vector, which 3 of the 1000
    # draws at n-max 100 are
    Fault("complement label counts zero vectors", "src/epwlat/verify.py",
          "{nonzero} nonzero of", "{cases} nonzero of",
          f"{_PROPS}::test_saturation_label_counts_nonzero_complements"),
    # congruence_law and direct_sum_law run on max(1, n_max // 2) cases, not
    # on the 10 * n_max of bilinear_law
    Fault("bilinear label counts basis changes as cases", "src/epwlat/verify.py",
          "direct sums on {pairs}", "direct sums on {cases}",
          f"{_PROPS}::test_randomized_groups_check_each_case_once"),
    # the vectors then move by E, not by E^-1, so a transported root of
    # square +-2 loses its square
    Fault("transport adds to vectors with the Gram's sign", "src/epwlat/verify.py",
          "v[i] -= c * v[j]", "v[i] += c * v[j]", _group("reflection-properties")),
    # orthogonal_complement fixes h2 only up to sign; no input of the
    # package hands family the negated generator, so only a patched
    # complement shows the missing flip
    Fault("family keeps the complement's sign for h2", "src/epwlat/epwfamily.py",
          "    if lattices.product(pi, h2, (1, 0)) < 0:\n        h2 = tuple(-x for x in h2)\n",
          "", "tests/test_family.py::TestFamilyRecords::test_h2_sign_turned_towards_gamma"),
    # row_hnf then returns its rows as given, so two bases of one lattice
    # get different forms and only equal lists share a span
    Fault("span test requires equal lists", "src/epwlat/intmat.py",
          "    a = [list(v) for v in vectors]\n",
          "    return tuple(map(tuple, vectors))\n", f"{_PROPS}::test_same_span"),
    # each human line is printed as it is made and none is kept: the same
    # bytes when every line is made, but a callback that fails midway
    # leaves the lines before it on stdout
    Fault("human text written before it is complete", "src/epwlat/cli.py",
          'text = "".join(f"{line}\\n" for line in human(cells))',
          'text = "".join(f"{line}\\n" for line in human(cells) if print(line))',
          "tests/test_cli.py::test_emit_writes_nothing_when_a_human_line_fails"),
    # every D > 1 is then expanded before --count is checked, so a bad
    # --count is refused only after a walk of half the period of sqrt(D)
    Fault("pell expands sqrt(D) before the --count check", "src/epwlat/cli.py",
          "if d > 1 and isqrt(d) ** 2 == d:", "if d > 1:",
          "tests/test_cli.py::TestPell::test_bad_count_refused_before_any_expansion"),
    # every `epwlat pell` then loads the lattice code at import and never uses it
    Fault("cli imports the lattice stack eagerly", "src/epwlat/cli.py",
          "from . import __version__, errors, pell\n",
          "from . import __version__, errors, pell\nfrom . import catalog, epwfamily, lattices\n",
          "tests/test_cli.py::test_cli_import_loads_only_the_pell_path"),
    # every refusal of outside text then echoes all of it: 5048 bytes on
    # stderr for a 5000-digit catalog parameter without its ")"
    Fault("quote keeps every character", "src/epwlat/errors.py",
          "repr(text[:40])", "repr(text)",
          "tests/test_cli.py::test_usage_error[lattice-id-malformed-over-long]",
          (("unknown", "tests/test_cli.py::test_usage_error[lattice-id-unknown-over-long]"),
           ("option", "tests/test_cli.py::TestParsing::"
                      "test_over_long_integer_names_the_limit[pell-d]"))),
    # "x" and "1.5" are then over the digit limit too
    Fault("every refusal names the digit limit", "src/epwlat/errors.py",
          "if not (digits.isascii() and digits.isdigit()):", "if False:",
          "tests/test_cli.py::test_usage_error[gram-non-integer]",
          (("option", "tests/test_cli.py::TestParsing::"
                      "test_argparse_error_pinned[pell-d-not-int]"),)),
    # the catalog's own integer grammar again: "+10" is then malformed
    # though --d +10 reads 10
    Fault("catalog parameter narrowed to -?digits", "src/epwlat/catalog.py",
          "(?:\\(([^()]*)\\))", "(?:\\((-?\\d+)\\))",
          "tests/test_catalog.py::test_parameter_read_as_an_option_is[plus]"),
    # str.strip() also strips Unicode spaces: "\xa010" is then the Gram <10>
    Fault("Gram text stripped of any whitespace", "src/epwlat/cli.py",
          "text = text.strip(errors.SPACE)", "text = text.strip()",
          "tests/test_cli.py::test_usage_error[gram-nbsp]"),
    # the Pell records as dataclasses again: `epwlat pell` then loads
    # dataclasses and inspect at import
    Fault("pell imports dataclasses", "src/epwlat/pell.py",
          "from bisect import bisect_right\n",
          "from bisect import bisect_right\nfrom dataclasses import dataclass\n",
          "tests/test_cli.py::test_cli_import_loads_no_dataclasses"),
    # the lattice records as dataclasses again: every subcommand but `pell`
    # then loads dataclasses and inspect
    Fault("lattices imports dataclasses", "src/epwlat/lattices.py",
          "import operator\n", "import operator\nfrom dataclasses import dataclass\n",
          "tests/test_cli.py::test_verify_import_loads_no_dataclasses"),
    # every block starts in column 0, so the rows of a sum of two or more
    # nonempty parts are too short; the catalog's composites then fail to
    # build (tests/test_lattices.py builds sums while it collects)
    Fault("direct_sum never advances its column offset", "src/epwlat/lattices.py",
          "        before += part.rank\n", "",
          "tests/test_catalog.py::test_composite_gram_pinned"),
    # the Baseline blind spot: prime-criterion skipped every p that is_prime
    # rejects, so this passed it; the sieve side fails it at p = 101
    Fault("is_prime rejects p = 5 (mod 8) above 100", "src/epwlat/pell.py",
          "    if n < 2:\n        return False\n    for p in _WITNESSES:",
          "    if n < 2 or (n > 100 and n % 8 == 5):\n        return False\n"
          "    for p in _WITNESSES:",
          _group("prime-criterion")),
    # a fixed-claim group then checks only its first row
    Fault("_expect checks only its first claim", "src/epwlat/verify.py",
          "for what, got, want in claims:", "for what, got, want in claims[:1]:",
          "tests/test_acceptance.py::test_expect_fails_on_the_first_false_claim",
          (("pell-d5", "tests/test_acceptance.py::test_pell_d5_reports_its_third_claim"),)),
    # y = a0 x + P Q + P' Q' with the cross terms swapped is no solution's y,
    # so the fundamental solution fails its own check at D = 2
    Fault("wrong cross term in y", "src/epwlat/pell.py",
          "p * q + pp * qq", "p * qq + pp * q", _group("pell-minimality")),
    # the sign then reaches only the diagonal: a negated reflection maps
    # its root to -3r, so it no longer fixes gamma
    Fault("negated reflection loses its sign", "src/epwlat/lattices.py",
          "f = [-sign * (2 * x // ee) for x in ge]", "f = [-(2 * x // ee) for x in ge]",
          _group("involution-images"), _groups("involution-soundness")),
    # the rows below give each verify group a fault that fails it (at
    # n-max 3 too); the group view of main() lists the rows per group
    # gamma^4 = 12 with c = 3 gives t = 4, the square of (gamma, gamma) = 2
    Fault("fujiki_degree_to_bb returns t, not s", "src/epwlat/epwfamily.py",
          "    return s\n", "    return t\n", _group("fujiki-pipeline")),
    # L(-1) = L: the K3 lattice is then built from E8, not E8(-1)
    Fault("rescale by |a|", "src/epwlat/lattices.py",
          "tuple(a * x for x in row)", "tuple(abs(a) * x for x in row)",
          _group("catalog-reports")),
    # a non-saturated complement: index 2 in the true one
    Fault("orthogonal_complement doubles its first vector", "src/epwlat/lattices.py",
          "    return intmat.kernel([intmat.mat_vec(lattice.gram, cv)], lattice.rank)\n",
          "    k = intmat.kernel([intmat.mat_vec(lattice.gram, cv)], lattice.rank)\n"
          "    return [tuple(2 * x for x in v) for v in k[:1]] + k[1:]\n",
          _group("saturation")),
    # a sign-flipped direct-sum block: the last part enters as L(-1)
    Fault("direct_sum negates its last part", "src/epwlat/lattices.py",
          "rows += [(0,) * before + row + (0,) * after for row in part.gram]",
          "rows += [(0,) * before + (row if after else tuple(-x for x in row))"
          " + (0,) * after for row in part.gram]",
          _group("bilinear-properties")),
    Fault("family takes r = 2n + 1", "src/epwlat/epwfamily.py",
          "    r = 2 * n + 2\n", "    r = 2 * n + 1\n", _group("family-identities")),
    Fault("delta2 at (4, 0, -8)", "src/epwlat/catalog.py",
          "DELTA2_COORDS = (4, 0, -9)", "DELTA2_COORDS = (4, 0, -8)", _group("h2-basis")),
    # the derived solutions step by T s_m - s_{m-1}, where T = 4 y^2 + 2 is
    # the trace of e^2; with 4 y^2 - 2 every one after the first is off. At
    # D = 2, T = 2 and the second solution has x = 1 again, so the
    # enumeration law of pell-minimality sees no strict increase
    Fault("unit trace 4 y^2 - 2", "src/epwlat/pell.py",
          "t = 4 * (y * y) + 2", "t = 4 * (y * y) - 2",
          _group("pell-d5"), _groups("closed-form-erratum", "pell-minimality")),
    # d = 10, the degree of the paper's involution, is then refused
    Fault("necessary_condition refuses d < 12", "src/epwlat/epwfamily.py",
          "if d % 2 or d < 10:", "if d % 2 or d < 12:", _group("necessary-condition")),
    # only the divisibility test is left; (-60, -20) has quotient 3
    Fault("sublattice test skips the square check", "src/epwlat/lattices.py",
          "return q >= 1 and isqrt(q) ** 2 == q", "return q >= 1", _group("disc-obstruction")),
    # R(n), of rank 2, is then inconclusive for the criterion
    Fault("K3 criterion caps the rank at 1", "src/epwlat/epwfamily.py",
          "lattice.rank > 10", "lattice.rank > 1", _group("disc-obstruction")),
    Fault("reflection inequality compares with <", "src/epwlat/epwfamily.py",
          "disc_r_prime > -n * (n + 20)", "disc_r_prime < -n * (n + 20)",
          _group("disc-obstruction")),
    # p = 3 (mod 4) is then called solvable and p = 1 (mod 4) not
    Fault("prime criterion reads p = 3 (mod 4)", "src/epwlat/pell.py",
          "return p == 2 or p % 4 == 1", "return p == 2 or p % 4 == 3",
          _group("prime-criterion")),
    # a certified closed form with one coefficient changed: d(1) = 36 is
    # wrong at the certificate's first point, in each group that reads it
    Fault("d(n) closed form with 18n", "src/epwlat/verify.py",
          "return 8 * n * n + 16 * n + 10", "return 8 * n * n + 18 * n + 10",
          _group("h2-basis"), _groups("involution-soundness", "necessary-condition")),
    # a fault that is not polynomial in n and is zero below n = 400, so at
    # the certificate's points: only the far point 10 * n_max (n = 1000 at
    # n-max 100) and the far spot checks see it
    Fault("R(n) off-diagonal gains n // 400", "src/epwlat/catalog.py",
          "return Lattice(((10, n + 10), (n + 10, 10)))",
          "return Lattice(((10, n + 10 + n // 400), (n + 10 + n // 400, 10)))",
          _group("disc-obstruction"),
          (("spot check", "tests/test_family.py::TestDiscObstruction::test_values"),)),
)

MUTANTS = tuple(Fault(f"{f.name} ({suffix})" if suffix else f.name, f.path, f.old, f.new, test)
                for f in FAULTS for suffix, test in (("", f.test), *f.also))


def group_rows(group: str) -> list[Fault]:
    """The rows whose test is ``group``'s: the faults it is shown to fail on."""
    return [m for m in MUTANTS if m.test == _group(group)]


def run_mutant(m: Fault) -> tuple[int, str, float]:
    """(pytest's exit code, its last line, seconds) for one mutant, in a fresh
    copy of the tree; a timeout counts as exit 1, a failed test. pytest loads
    no entry-point plugin: it would mark every module of each plugin's
    distribution for assertion rewriting, redone in each row without bytecode."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="epwlat-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        (work / "conftest.py").write_text(CONFTEST)
        target = work / m.path
        target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "--no-header",
               "-p", "no:cacheprovider", m.test]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return 1, f"timed out after {TIMEOUT_S} s", time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        summary = lines[-1] if lines else proc.stderr.strip()[-200:]
        return proc.returncode, summary, time.perf_counter() - start


def main() -> int:
    drift = [m.name for m in MUTANTS if (ROOT / m.path).read_text().count(m.old) != 1]
    if drift:  # before any row runs
        raise SystemExit(f"old text does not occur exactly once: {'; '.join(drift)}")
    start, bad = time.perf_counter(), 0
    workers = len(os.sched_getaffinity(0))
    with ThreadPoolExecutor(workers) as pool:
        for m, (code, summary, seconds) in zip(MUTANTS, pool.map(run_mutant, MUTANTS)):
            verdict = {0: "survived", 1: "killed"}.get(code, f"exit {code}")  # else no verdict
            ok = verdict == ("survived" if m.old == m.new else "killed")  # only the identity
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {verdict:8s} {seconds:5.1f} s  {m.name}: {summary}",
                  flush=True)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} as expected,"
          f" {time.perf_counter() - start:.1f} s on {workers} workers")
    sys.path.insert(0, str(ROOT / "src"))
    from epwlat import verify
    for group, _ in verify.CHECKS:  # the group view: rows that must fail each group
        print(f"{group}: {'; '.join(m.name for m in group_rows(group)) or '-'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
