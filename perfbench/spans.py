"""Span recording for the traced run, installed from outside the package.

``Tracer.install`` replaces the public functions of each epwlat module
(module attributes), the entries of ``verify.CHECKS`` and the two
validating ``__post_init__`` hooks with wrappers that record one span per
call: name, start, end and the enclosing span. Spans are kept in flat
arrays and summarised when the traced phase ends; ``restore`` puts every
original back. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("intmat", "lattices", "catalog", "pell", "epwfamily", "verify", "cli")

# Functions with their own per-layer metrics (calls and self time).
TIMED = (
    "intmat.det", "intmat.inertia", "intmat.kernel", "intmat.row_hnf",
    "intmat.rank", "intmat.mat_mul",
    "lattices.product", "lattices.induced_gram", "lattices.isometry_validate",
    "lattices.is_isometry", "lattices.reflection", "lattices.signature",
    "lattices.orthogonal_complement", "lattices.saturation",
    "pell.cf_expansion", "pell.fundamental_negative", "pell.enumerate_negative",
    "pell.solution_validate", "pell.is_solvable_negative", "pell.is_prime",
    "catalog.build", "catalog.report_of",
    "epwfamily.family", "epwfamily.disc_obstruction", "epwfamily.epw_involution",
    "verify.min_solution_x_brute",
    "cli.main", "cli.build_parser",
)

VERIFY_GROUPS = (
    "involution-images", "fujiki-pipeline", "family-identities", "h2-basis",
    "involution-soundness", "necessary-condition", "pell-d5", "pell-oracle",
    "pell-minimality", "prime-criterion", "catalog-reports", "disc-obstruction",
    "reflection-properties", "index-law", "saturation", "bilinear-properties",
    "closed-form-erratum",
)

ROOT = "bench"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    for group in VERIFY_GROUPS:
        units[f"verify.{group}.ms"] = "ms"
    units["pell.cf_steps"] = "count"
    units["pell.solution_bits"] = "bits"
    units["pell.cf_expansion.distinct_ratio"] = "ratio"
    units[f"{ROOT}.self_ms"] = "ms"
    units["trace.phase_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple] = []  # (owner, attribute or slice, original)
        self.cf_steps = 0
        self.cf_d: set[int] = set()
        self.solution_bits = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` counts work."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self) -> None:
        from epwlat import catalog, cli, epwfamily, intmat, lattices, pell, verify

        modules = {"intmat": intmat, "lattices": lattices, "catalog": catalog,
                   "pell": pell, "epwfamily": epwfamily, "verify": verify, "cli": cli}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (layer == "verify" and attr.startswith("check_"))):
                    continue
                count = self._count_cf if mod is pell and attr == "cf_expansion" else None
                self._patch(mod, attr, f"{layer}.{attr}", count)
        self._patch(lattices.Isometry, "__post_init__", "lattices.isometry_validate")
        self._patch(pell.PellSolution, "__post_init__", "pell.solution_validate",
                    self._count_solution)
        checks = verify.CHECKS
        original = list(checks)
        self._undo.append((checks, slice(None), original))
        checks[:] = [(group, self.wrap(f"verify.{group}", fn)) for group, fn in original]

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(attr, slice):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def _count_cf(self, args, cf) -> None:
        self.cf_steps += len(cf.period)
        self.cf_d.add(args[0])

    def _count_solution(self, args, _result) -> None:
        self.solution_bits += args[0].x.bit_length()

    def run_root(self, body):
        """Run ``body()`` inside the benchmark's own span, the root of the phase."""
        return self.wrap(ROOT, body)()

    def arrays(self):
        n = len(self.start)
        return (np.frombuffer(self.name_id, dtype=np.int32, count=n),
                np.frombuffer(self.parent, dtype=np.int32, count=n),
                np.frombuffer(self.start, dtype=np.float64, count=n),
                np.frombuffer(self.end, dtype=np.float64, count=n))

    def table(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self ms, inclusive ms) for every name that was called.

        A span's self time is its duration minus the durations of its child
        spans; children nest inside their parent, so nothing is subtracted twice.
        """
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_ms = np.bincount(name_id, weights=dur - child, minlength=k) * 1e3
        incl_ms = np.bincount(name_id, weights=dur, minlength=k) * 1e3
        return {n: (int(calls[i]), float(self_ms[i]), float(incl_ms[i]))
                for i, n in enumerate(self.names) if calls[i]}

    def summary(self) -> dict[str, float]:
        """The per-layer metrics of ``metric_units`` except the overhead ratio."""
        by_name = self.table()
        absent = (0, 0.0, 0.0)
        out: dict[str, float] = {}
        for name in TIMED:
            calls, self_ms, _ = by_name.get(name, absent)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_ms
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(
                s for n, (_, s, _) in by_name.items() if n.split(".")[0] == layer)
        for group in VERIFY_GROUPS:
            out[f"verify.{group}.ms"] = by_name.get(f"verify.{group}", absent)[2]
        cf_calls = out["pell.cf_expansion.calls"]
        out["pell.cf_steps"] = self.cf_steps
        out["pell.solution_bits"] = self.solution_bits
        out["pell.cf_expansion.distinct_ratio"] = (
            len(self.cf_d) / cf_calls if cf_calls else 0.0)
        _, root_self, root_incl = by_name.get(ROOT, absent)
        out[f"{ROOT}.self_ms"] = root_self
        out["trace.phase_ms"] = root_incl
        return out

    def dump(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, name_id=name_id, parent=parent, start=start,
                            end=end, names=np.array(self.names))

