"""epwlat benchmark: one workload per run, closed loop, one client, one thread.

    python3 perfbench/run.py --workload verify|pell-cli|lattice-ops \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: the package is imported from
``src/``, and the run refuses to start (exit 1, no result) when it is
missing. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
separate traced phase. A run does a fixed number of rounds, chosen from
``--seconds`` and the workload's nominal round time, so the same seed
always gives the same items. Timings are scaled to the reference speed
measured by a fixed kernel between items (see ``reference.py``).
Each run also writes its result, with the raw timings and the
environment, under ``.perfbench_out/``. README.md in this directory lists
the workloads, the metrics and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S, kernel as reference_kernel  # noqa: E402
from workloads import FAILED, OK, WRONG  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPS = 7
TAIL_BEYOND = 10
# Item time between two runs of the kernel: the machine's speed holds for
# about a second, and the kernel then costs under a tenth of the run.
SEGMENT_S = 0.25

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ok_per_s": "1/s", "item_p50_ms": "ms",
    "item_tail_ms": "ms", "peak_rss_mb": "MB",
}

# Runs in a fresh interpreter: the reference kernel (warm-up, before),
# the import, the kernel again (after), all in the process that imports.
_SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import reference as r; "
    "r.kernel(); a = r.kernel(); t = time.perf_counter(); import epwlat.cli; "
    "t = time.perf_counter() - t; print(t, a, r.kernel())"
)


@dataclass
class Phase:
    """What one phase of closed-loop rounds measured and what the oracle said."""

    item_s: list[float] = field(default_factory=list)
    rounds: int = 0
    # Per segment of items between two kernel runs: the index in item_s
    # where it ends, and how much slower than the reference speed the
    # kernel ran before and after it, on average.
    seg_end: list[int] = field(default_factory=list)
    seg_slowdown: list[float] = field(default_factory=list)
    verdicts: Counter = field(default_factory=Counter)
    reasons: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.item_s)

    @property
    def failed(self) -> int:
        return self.verdicts[FAILED] + self.verdicts[WRONG]

    def end_segment(self, before: float) -> float:
        """Close the segment that ``before`` (a kernel time) opened; return
        the kernel time that opens the next one."""
        after = reference_kernel()
        self.seg_end.append(len(self.item_s))
        self.seg_slowdown.append((before + after) / (2 * REFERENCE_S))
        return after

    def scaled_item_s(self) -> list[float]:
        """Item times at the reference speed: each divided by the slowdown
        around its segment, the median of that segment's and its two
        neighbours', so that one disturbed kernel run moves no item."""
        slow = self.seg_slowdown
        out, start = [], 0
        for i, end in enumerate(self.seg_end):
            slowdown = statistics.median(slow[max(0, i - 1):i + 2])
            out += [t / slowdown for t in self.item_s[start:end]]
            start = end
        return out

    def merge(self, other: "Phase") -> None:
        self.seg_end += [e + len(self.item_s) for e in other.seg_end]
        self.seg_slowdown += other.seg_slowdown
        self.item_s += other.item_s
        self.rounds += other.rounds
        self.verdicts += other.verdicts
        self.reasons += other.reasons


def run_rounds(workload, items, rounds: int) -> Phase:
    """Run ``rounds`` whole rounds, with the reference kernel first, last
    and after every SEGMENT_S of item time.

    Only ``workload.run`` is inside the item clock; checking its result is not.
    """
    clock = time.perf_counter
    phase = Phase()
    before = reference_kernel()
    since = 0.0
    while phase.rounds < rounds:
        for item in islice(items, workload.round_size):
            t0 = clock()
            try:
                res = workload.run(item)
            except Exception as exc:  # an item that raises is a failed item
                res = exc
            dt = clock() - t0
            if isinstance(res, Exception):
                verdict, detail = FAILED, f"{type(res).__name__}: {res}"
            else:
                try:
                    verdict, detail = workload.check(item, res)
                except (ValueError, IndexError, TypeError) as exc:
                    verdict, detail = WRONG, f"unreadable output: {exc}"
            phase.item_s.append(dt)
            phase.verdicts[verdict] += 1
            if detail:
                phase.reasons[f"{verdict}: {_reason(detail)}"] += 1
            since += dt
            if since >= SEGMENT_S:
                before = phase.end_segment(before)
                since = 0.0
        phase.rounds += 1
    if since:
        phase.end_segment(before)
    return phase


def rounds_for(workload, seconds: float) -> int:
    """Rounds that took about ``seconds`` at the seed commit, and never
    fewer than the traced pass needs."""
    return max(workload.trace_rounds, round(seconds / workload.round_s))


def _reason(detail: str) -> str:
    # Group messages that differ only in their numbers.
    return re.sub(r"\d+", "#", detail)[:120]


def tail(item_s: list[float]) -> tuple[float, float, int]:
    """(seconds, percentile, items beyond) at the highest percentile with
    TAIL_BEYOND items beyond it.

    With fewer than 2 * TAIL_BEYOND items that percentile would fall below
    the median, so the maximum is reported instead, as percentile 100.
    """
    s = sorted(item_s)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(phase: Phase, setup_s: float, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, from item times at the reference speed
    unless ``scaled`` is false."""
    item_s = phase.scaled_item_s() if scaled else phase.item_s
    busy = sum(item_s)
    return {
        "setup_s": setup_s,
        "wall_s": busy / phase.rounds,
        "ok_per_s": phase.verdicts[OK] / busy,
        "item_p50_ms": statistics.median(item_s) * 1e3,
        "item_tail_ms": tail(item_s)[0] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# numpy's import starts a BLAS worker thread by default; on two shared cores
# its start-up then waits on the other core's load, which moved the import
# time between 0.10 s and 0.27 s. One thread keeps it to the package's work.
_ONE_THREAD = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def measure_setup(src: Path, reps: int) -> tuple[list[float], list[float]]:
    """Seconds to import epwlat.cli in a fresh interpreter, ``reps`` times:
    (at the reference speed, raw)."""
    scaled, raw = [], []
    here = str(Path(__file__).resolve().parent)
    for _ in range(reps):
        res = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(src), here],
                             capture_output=True, text=True, timeout=120, check=True,
                             env=_ONE_THREAD)
        t, before, after = map(float, res.stdout.split())
        raw.append(t)
        scaled.append(t * 2 * REFERENCE_S / (before + after))
    return scaled, raw


def trace_pass(workload, head: list, rounds: int):
    """Run ``head`` untraced, then again with spans.

    Returns both phases, the per-layer metrics and the tracer. The untraced
    pass runs right before the traced one so that the overhead ratio
    compares the same items in the same state of the process.
    """
    plain = run_rounds(workload, iter(head), rounds)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = tracer.run_root(lambda: run_rounds(workload, iter(head), rounds))
    finally:
        tracer.restore()
    layers = tracer.summary()
    layers["trace.overhead_ratio"] = sum(traced.scaled_item_s()) / sum(plain.scaled_item_s())
    return plain, traced, layers, tracer


def environment(root: Path, src: Path, workload: str, seed: int) -> dict:
    import numpy

    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((src / "epwlat").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, src: Path) -> dict:
    workload = workloads.WORKLOADS[name]()
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    setup, setup_raw = measure_setup(src, SETUP_REPS)
    env = environment(root, src, name, seed)

    # Let lazy set-up finish before timing: one item at smoke size, not counted.
    warm = workloads.smoke_workloads()[name]
    warm.run(next(warm.items(seed)))
    reference_kernel()

    stream = workload.items(seed)
    head = list(islice(stream, workload.round_size * workload.trace_rounds))
    phase = run_rounds(workload, chain(head, stream), rounds_for(workload, seconds))
    result = {"environment": env, "setup_runs_s": setup, "setup_raw_runs_s": setup_raw,
              "slowdown": statistics.median(phase.seg_slowdown),
              "raw": end_to_end(phase, statistics.median(setup_raw), scaled=False)}
    if trace:
        plain, traced, layers, tracer = trace_pass(workload, head, workload.trace_rounds)
        phase.merge(plain)
        phase.merge(traced)
        units = spans.metric_units()
        metrics = {k: (layers[k], units[k]) for k in units}
        tracer.dump(out / f"{name}-spans.npz")
        result["layer_table"] = {n: {"calls": c, "self_ms": s, "incl_ms": i}
                                 for n, (c, s, i) in tracer.table().items()}
    else:
        e2e = end_to_end(phase, statistics.median(setup))
        metrics = {k: (e2e[k], END_TO_END[k]) for k in END_TO_END}
        _, pct, beyond = tail(phase.item_s)
        result["tail"] = {"percentile": pct, "items": phase.attempted,
                          "items_beyond": beyond}
    result.update({
        "rounds": phase.rounds,
        "round_size": workload.round_size,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "fail_ratio": phase.failed / phase.attempted,
        "verdicts": dict(phase.verdicts),
        "item_s": phase.item_s,
        "seg_end": phase.seg_end,
        "seg_slowdown": phase.seg_slowdown,
        "reasons": dict(phase.reasons),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    (out / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    return result


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    env = result["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"rounds {result['rounds']} x {result['round_size']} items; "
          f"fail_ratio {result['fail_ratio']:.6f} "
          f"({result['failed']}/{result['attempted']}) [ratio]")
    if "tail" in result:
        t = result["tail"]
        print(f"item_tail_ms is the p{t['percentile']:.2f} of {t['items']} items")
    for reason, count in sorted(result["reasons"].items()):
        print(f"  {count:6d}  {reason}")
    if "layer_table" in result:
        print(f"{'span':40s} {'calls':>9s} {'self_ms':>11s} {'incl_ms':>11s}")
        rows = sorted(result["layer_table"].items(), key=lambda kv: -kv[1]["self_ms"])
        for n, r in rows:
            print(f"{n:40s} {r['calls']:9d} {r['self_ms']:11.3f} {r['incl_ms']:11.3f}")
    for k, m in result["metrics"].items():
        print(f"{k:40s} {m['value']:14.6f} {m['unit']}")


def smoke(root: Path, src: Path) -> dict:
    """Every workload at smoke size, untraced then traced, with its oracle."""
    t0 = time.perf_counter()
    setup, _ = measure_setup(src, 1)
    results = {}
    for name, w in workloads.smoke_workloads().items():
        stream = w.items(1)
        head = list(islice(stream, w.round_size))
        phase, traced, layers, _ = trace_pass(w, head, 1)
        e2e = end_to_end(phase, setup[0])
        accounted = (sum(layers[f"{x}.self_ms"] for x in spans.LAYERS)
                     + layers[f"{spans.ROOT}.self_ms"])
        phase.merge(traced)
        results[name] = {
            "attempted": phase.attempted,
            "failed": phase.failed,
            "wrong": phase.verdicts[WRONG],
            "reasons": dict(phase.reasons),
            "end_to_end": e2e,
            "layers": layers,
            "unaccounted_ms": layers["trace.phase_ms"] - accounted,
        }
    results["elapsed_s"] = time.perf_counter() - t0
    return results


def _source_dirs() -> tuple[Path, Path]:
    root = Path.cwd()
    src = root / "src"
    if not (src / "epwlat" / "__init__.py").is_file():
        raise SystemExit("perfbench: no src/epwlat here; run from a source checkout")
    sys.path.insert(0, str(src))
    import epwlat

    if Path(epwlat.__file__).resolve().parent != (src / "epwlat").resolve():
        raise SystemExit(f"perfbench: imported epwlat from {epwlat.__file__}, not {src}")
    return root, src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and exit")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    root, src = _source_dirs()

    if args.smoke:
        results = smoke(root, src)
        for name, r in results.items():
            print(f"{name}: {r}")
        ok = all(r["failed"] == 0 for k, r in results.items() if k != "elapsed_s")
        return 0 if ok else 1

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root, src)
    report(result)
    print(json.dumps({
        "correct": result["verdicts"].get(WRONG, 0) == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
