"""The three benchmark workloads: seeded inputs, the timed call, the oracle.

Each workload turns a seed into an endless stream of items and is driven
as a closed loop with one client: the next item starts only after the
previous one has returned. ``run`` is the only code timed; ``check``
judges its result without calling the code path it judges, and returns
one of ``OK``, ``FAILED`` (wrong exit code or an error instead of an
answer) or ``WRONG`` (an answer the oracle refutes).
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
import sys
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from reference import det as _det

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def call_cli(argv: list[str]) -> CliResult:
    from epwlat import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else "(no message)"


# --- number theory of the benchmark's own, used by generators and oracles ----

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def has_unsolvable_certificate(d: int) -> bool:
    """Whether a local reason rules out y^2 - d x^2 = -1.

    4 | d makes -1 a non-square mod 4; a prime factor q = 3 (mod 4) makes
    -1 a non-square mod q.
    """
    if d % 4 == 0:
        return True
    m = d
    while m % 2 == 0:
        m //= 2
    q = 3
    while q * q <= m:
        if m % q == 0:
            if q % 4 == 3:
                return True
            while m % q == 0:
                m //= q
        q += 2
    return m > 1 and m % 4 == 3


# --- verify ------------------------------------------------------------------

class Verify:
    """`epwlat --format csv verify --n-max 100`, the acceptance run, in-process."""

    name = "verify"
    round_size = 1
    trace_rounds = 1
    round_s = 1.3  # nominal seconds per round at the seed commit

    def __init__(self, n_max: int = 100):
        self.argv = ["--format", "csv", "verify", "--n-max", str(n_max)]

    def items(self, seed: int) -> Iterator[list[str]]:
        # The input is fixed; the seed only labels the run.
        while True:
            yield self.argv

    def run(self, argv):
        return call_cli(argv)

    def check(self, argv, res: CliResult) -> tuple[str, str]:
        rows = _csv_rows(res.out)
        passed = [r for r in rows[1:] if len(r) == 3 and r[1] == "PASS"]
        names = {r[0] for r in rows[1:]}
        if res.code == 0 and rows[:1] == [["check", "status", "detail"]] \
                and len(rows) == 18 and len(passed) == 17 and len(names) == 17:
            return OK, ""
        if res.code == 1:
            return FAILED, _first_line(res.err)
        return WRONG, f"exit {res.code}, {len(passed)} PASS rows of {len(rows) - 1}"


# --- pell-cli ----------------------------------------------------------------

class PellCli:
    """Seeded `epwlat --format csv pell --d D --count k` calls.

    Each round of 100 items holds 50 primes p = 1 (mod 4) and 50 random
    non-squares. Each half is stratified over log10 D in [2, 9]: a seeded
    permutation gives every item its own fiftieth of the range and a
    seeded offset places D inside it, so every round has the same spread
    of sizes.

    Primes from 10^SHARED_FROM up, and their k, are the same in every run:
    round r takes, for each such stratum, the r-th draw of a generator with
    a fixed seed.
    A prime's cost grows as the square of its period length, which varies
    a hundredfold between primes of the same size, and these few hundred
    primes take most of a run's time and all of its slowest items; drawn
    from the run's seed, they would move the run's total and tail by 20-30 %
    from seed to seed, and with k up to 3 the last solution has five times
    the digits of the first. The seed draws every other D and k and the order
    of the items within each round.
    """

    name = "pell-cli"
    round_size = 100
    trace_rounds = 2
    round_s = 0.95
    SHARED_FROM = 7.5

    def __init__(self, log_lo: float = 2.0, log_hi: float = 9.0, round_size: int = 100):
        self.log_lo, self.log_hi = log_lo, log_hi
        self.round_size = round_size

    def items(self, seed: int) -> Iterator[tuple[int, int]]:
        rng = random.Random(seed)
        shared = random.Random("pell-cli shared primes")
        half = self.round_size // 2
        span = self.log_hi - self.log_lo

        def draw(gen: random.Random, stratum: int, prime: bool) -> int:
            d = int(10 ** (self.log_lo + span * (stratum + gen.random()) / half))
            if prime:
                d += (1 - d) % 4
                while not is_prime(d):
                    d += 4
            elif isqrt(d) ** 2 == d:
                d += 1
            return d

        shared_strata = [j for j in range(half)
                         if self.log_lo + span * j / half >= self.SHARED_FROM]
        while True:
            fixed = {j: (draw(shared, j, True), shared.randint(1, 3))
                     for j in shared_strata}
            strata = [list(range(half)), list(range(half))]
            for order in strata:
                rng.shuffle(order)
            for i in range(half):
                for prime, order in ((True, strata[0]), (False, strata[1])):
                    j = order[i]
                    if prime and j in fixed:
                        yield fixed[j]
                    else:
                        yield draw(rng, j, prime), rng.randint(1, 3)

    def run(self, item):
        d, k = item
        return call_cli(["--format", "csv", "pell", "--d", str(d), "--count", str(k)])

    def check(self, item, res: CliResult) -> tuple[str, str]:
        d, k = item
        if res.code == 0:
            return self._check_solutions(d, k, res.out)
        if res.code == 2:
            return self._check_unsolvable(d, res.out)
        if res.code == 1:
            return FAILED, _first_line(res.err)
        return WRONG, f"D={d}: exit {res.code}"

    @staticmethod
    def _check_solutions(d: int, k: int, out: str) -> tuple[str, str]:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the oracle parses any size
        try:
            rows = _csv_rows(out)
            if rows[:1] != [["d", "index", "y", "x"]] or len(rows) != k + 1:
                return WRONG, f"D={d}: malformed solution table"
            sols = [tuple(int(v) for v in r) for r in rows[1:]]
        finally:
            sys.set_int_max_str_digits(limit)
        prev_y = prev_x = 0
        for i, (dd, idx, y, x) in enumerate(sols):
            if (dd, idx) != (d, i) or y * y - d * x * x != -1:
                return WRONG, f"D={d}: row {i} does not solve y^2 - D x^2 = -1"
            if not (y > prev_y and x > prev_x):
                return WRONG, f"D={d}: solutions not strictly increasing"
            prev_y, prev_x = y, x
        return OK, ""

    @staticmethod
    def _check_unsolvable(d: int, out: str) -> tuple[str, str]:
        rows = _csv_rows(out)
        if rows[:1] != [["d", "solvable", "period_length"]] or len(rows) != 2 \
                or rows[1][:2] != [str(d), "false"] or int(rows[1][2]) % 2:
            return WRONG, f"D={d}: malformed unsolvable row"
        if is_prime(d):
            if d == 2 or d % 4 == 1:
                return WRONG, f"D={d}: prime = 1 (mod 4) reported unsolvable"
            return OK, ""
        # Without a local certificate the claim stands unconfirmed, not refuted.
        return OK, "" if has_unsolvable_certificate(d) else "unconfirmed"


# --- lattice-ops -------------------------------------------------------------

def _mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def _gram_of(gram, basis):
    """B^T G B for the vectors of ``basis``."""
    images = [_mat_vec(gram, w) for w in basis]
    return [[_dot(a, gb) for gb in images] for a in basis]


@dataclass(frozen=True)
class Base:
    """A catalog lattice with invariants known in closed form and roots in it."""

    label: str
    disc: int
    signature: tuple[int, int, int]
    even: bool
    roots: tuple[tuple[int, ...], ...]


def _unit(n: int, *entries: tuple[int, int]) -> tuple[int, ...]:
    v = [0] * n
    for i, c in entries:
        v[i] = c
    return tuple(v)


def _bases(rng: random.Random) -> list[Base]:
    m = rng.randint(1, 40)
    d_hilb = 2 * m * m + 2
    n3 = rng.randint(1, 1000)
    return [
        # 3U + 2E8(-1): h - f in a U has square -2; an E8(-1) root too
        Base("K3", -1, (3, 19, 0), True, (_unit(22, (0, 1), (1, -1)), _unit(22, (9, 1)))),
        # 2E8 + 2U + 2<2>: an E8 root and a <2> generator have square 2
        Base("LAMBDA0", 4, (20, 2, 0), True, (_unit(22, (3, 1)), _unit(22, (21, 1)))),
        # 22<1> + 2<-1>: e0 + e1 has square 2, e22 + e23 has square -2
        Base("I22_2", 1, (22, 2, 0), False, (_unit(24, (0, 1), (1, 1)),
                                             _unit(24, (22, 1), (23, 1)))),
        Base("E8", 1, (8, 0, 0), True, (_unit(8, (0, 1)), _unit(8, (5, 1)))),
        Base("E8(-1)", 1, (0, 8, 0), True, (_unit(8, (2, 1)), _unit(8, (7, 1)))),
        # (h, delta) with (h,h) = 2m^2 + 2: delta has square -2, h - m delta square 2
        Base(f"NS_HILB({d_hilb})", -2 * d_hilb, (1, 1, 0), True,
             ((0, 1), (1, -m))),
        # R(n) + <-2>: disc -2 * -n(n+20), delta has square -2
        Base(f"NS3({n3})", 2 * n3 * (n3 + 20), (1, 2, 0), True, ((0, 0, 1),)),
    ]


def _build(label: str):
    from epwlat import catalog, lattices

    if label == "E8(-1)":
        return lattices.rescale(catalog.build("E8"), -1)
    return catalog.build(label)


@dataclass(frozen=True)
class LatticeTask:
    base: Base
    gram: tuple[tuple[int, ...], ...]
    root: tuple[int, ...]


def change_basis(rng: random.Random, gram, root, steps: int):
    """Move ``gram`` by ``steps`` elementary unimodular basis changes.

    Returns the new Gram matrix and the coordinates of the same root in the
    new basis. b_j <- b_j + c b_i turns G into E^T G E and the coordinates
    v_i into v_i - c v_j; a swap or a sign change acts alike on both.
    """
    g = [list(r) for r in gram]
    v = list(root)
    n = len(g)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        kind = rng.choice(("add", "add", "swap", "neg")) if n > 1 else "neg"
        if kind == "add":
            c = rng.choice((-1, 1))
            for r in g:
                r[j] += c * r[i]
            g[j] = [a + c * b for a, b in zip(g[j], g[i])]
            v[i] -= c * v[j]
        elif kind == "swap":
            for r in g:
                r[i], r[j] = r[j], r[i]
            g[i], g[j] = g[j], g[i]
            v[i], v[j] = v[j], v[i]
        else:
            for r in g:
                r[i] = -r[i]
            g[i] = [-a for a in g[i]]
            v[i] = -v[i]
    return tuple(tuple(r) for r in g), tuple(v)


class LatticeOps:
    """Seeded lattice tasks at ranks 2-24 on bases with a known (+-2)-root.

    Every round holds each of the seven bases equally often, in seeded
    order. Each task reads the invariants of the moved lattice
    (catalog.report_of), reflects in the transported root
    (lattices.reflection, which validates through Isometry) and derives
    the root's orthogonal complement, its induced Gram matrix and its
    saturation.
    """

    name = "lattice-ops"
    round_size = 14
    trace_rounds = 5
    round_s = 0.45

    def __init__(self, round_size: int = 14):
        if round_size % 7:
            raise ValueError("a round holds every base equally often")
        self.round_size = round_size

    def items(self, seed: int) -> Iterator[LatticeTask]:
        rng = random.Random(seed)
        while True:
            order = list(range(7)) * (self.round_size // 7)
            rng.shuffle(order)
            for b in order:
                base = _bases(rng)[b]
                gram = _build(base.label).gram
                n = len(gram)
                moved, e = change_basis(rng, gram, rng.choice(base.roots),
                                        rng.randint(n, 2 * n))
                yield LatticeTask(base, moved, e)

    def run(self, task: LatticeTask):
        from epwlat import catalog, lattices

        lat = lattices.Lattice(task.gram)
        rep = catalog.report_of(lat)
        refl = lattices.reflection(lat, task.root)
        comp = lattices.orthogonal_complement(lat, task.root)
        sub = lattices.induced_gram(lat, comp)
        sat = lattices.saturation(lat, comp)
        return rep, refl.matrix, comp, sub.gram, sat

    def check(self, task: LatticeTask, res) -> tuple[str, str]:
        rep, refl, comp, sub, sat = res
        base, g, e = task.base, task.gram, task.root
        n = len(g)
        where = f"{base.label} rank {n}"
        if (rep.rank, rep.discriminant, tuple(rep.signature), rep.even) != \
                (n, base.disc, base.signature, base.even):
            return WRONG, f"{where}: invariants {rep} differ from the base's"
        square = [_mat_vec(refl, col) for col in zip(*refl)]  # columns of M^2
        if square != [list(_unit(n, (i, 1))) for i in range(n)]:
            return WRONG, f"{where}: reflection is not an involution"
        if _mat_vec(refl, e) != [-x for x in e]:
            return WRONG, f"{where}: reflection does not negate its root"
        ge = _mat_vec(g, e)
        for name, basis in (("complement", comp), ("saturation", sat)):
            if len(basis) != n - 1 or any(_dot(w, ge) for w in basis):
                return WRONG, f"{where}: {name} is not a basis of the root's complement"
        for w in comp:
            if _mat_vec(refl, w) != list(w):
                return WRONG, f"{where}: reflection moves the root's complement"
        own = _gram_of(g, comp)
        if [list(r) for r in sub] != own:
            return WRONG, f"{where}: induced Gram differs from B^T G B"
        # (e,e) disc(e-perp) = disc(L) [L : Ze + e-perp]^2 with index 1 or 2
        ee = _dot(e, ge)
        disc_comp = _det(own)
        if disc_comp * ee not in (base.disc, 4 * base.disc):
            return WRONG, f"{where}: complement discriminant {disc_comp}"
        if _det(_gram_of(g, sat)) != disc_comp:
            return WRONG, f"{where}: saturation changes the complement's index"
        return OK, ""


WORKLOADS = {w.name: w for w in (Verify, PellCli, LatticeOps)}


def smoke_workloads() -> dict:
    """Every workload at a size that runs in a fraction of a second."""
    return {"verify": Verify(n_max=1),
            "pell-cli": PellCli(2.0, 5.0, round_size=10),
            "lattice-ops": LatticeOps(round_size=7)}
