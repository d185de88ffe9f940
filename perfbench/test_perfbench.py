"""The benchmark's own tests: ``python -m pytest perfbench`` from the repo root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_runs_every_workload_with_its_oracle(monkeypatch):
    monkeypatch.chdir(ROOT)
    results = run.smoke(*run._source_dirs())
    elapsed = results.pop("elapsed_s")
    assert elapsed < 2.0, f"smoke took {elapsed:.2f} s"
    assert set(results) == {"verify", "pell-cli", "lattice-ops"}
    for name, r in results.items():
        assert r["attempted"] > 0 and r["failed"] == 0, (name, r["reasons"])
        assert set(r["end_to_end"]) == set(run.END_TO_END)
        assert set(r["layers"]) == set(spans.metric_units())
        # layer self times plus the benchmark's own time make up the traced phase
        assert abs(r["unaccounted_ms"]) <= 1e-6 * r["layers"]["trace.phase_ms"]
    layers = {name: r["layers"] for name, r in results.items()}
    assert layers["verify"]["verify.pell-oracle.ms"] > 0
    assert layers["verify"]["epwfamily.family.calls"] > 0
    assert layers["pell-cli"]["pell.cf_expansion.calls"] > 0
    assert layers["pell-cli"]["intmat.self_ms"] == 0
    assert layers["lattice-ops"]["lattices.isometry_validate.calls"] > 0
    assert layers["lattice-ops"]["pell.self_ms"] == 0


def test_tracer_restores_every_original():
    from epwlat import cli, lattices, pell, verify

    before = (lattices.product, lattices.Isometry.__post_init__,
              pell.PellSolution.__post_init__, cli.main, list(verify.CHECKS))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert lattices.product is not before[0]
        assert verify.CHECKS[0][1] is not before[4][0][1]
    finally:
        tracer.restore()
    after = (lattices.product, lattices.Isometry.__post_init__,
             pell.PellSolution.__post_init__, cli.main, list(verify.CHECKS))
    assert after == before


def test_self_time_subtracts_children_once():
    tracer = spans.Tracer()
    inner = tracer.wrap("intmat.det", lambda: sum(range(20000)))
    outer = tracer.wrap("lattices.signature", lambda: [inner() for _ in range(3)])
    tracer.run_root(outer)
    table = tracer.table()
    _, _, root_incl = table[spans.ROOT]
    assert table["intmat.det"][0] == 3
    assert abs(sum(s for _, s, _ in table.values()) - root_incl) < 1e-9 * root_incl + 1e-9


def test_same_seed_same_items_and_scaling_by_segment(monkeypatch):
    monkeypatch.chdir(ROOT)
    run._source_dirs()
    w = run.workloads.smoke_workloads()["pell-cli"]
    a = run.run_rounds(w, w.items(5), 2)
    b = run.run_rounds(w, w.items(5), 2)
    assert a.attempted == b.attempted == 2 * w.round_size and a.rounds == 2
    assert a.verdicts == b.verdicts and a.reasons == b.reasons
    assert a.seg_end[-1] == a.attempted and len(a.seg_slowdown) == len(a.seg_end)

    # each segment by the median slowdown of itself and its neighbours
    phase = run.Phase(item_s=[1.0, 2.0, 3.0, 4.0], seg_end=[1, 3, 4],
                      seg_slowdown=[2.0, 0.5, 4.0])
    assert phase.scaled_item_s() == pytest.approx([1 / 1.25, 1.0, 1.5, 4 / 2.25])


def test_benchmark_json_names_every_metric_reported():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == spans.metric_units()
    assert [w["name"] for w in declared["workloads"]] == list(run.workloads.WORKLOADS)


def test_result_line_follows_the_contract():
    res = _bench("--workload", "lattice-ops", "--seed", "3", "--seconds", "0.2",
                 "--trace", "0")
    assert res.returncode == 0, res.stderr
    out = _last_json(res.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    assert {k: m["unit"] for k, m in out["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in out["metrics"].values())

    res = _bench("--workload", "verify", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert res.returncode == 0, res.stderr
    out = _last_json(res.stdout)
    assert {k: m["unit"] for k, m in out["metrics"].items()} == spans.metric_units()
    assert out["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = _bench("--workload", "pell-cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert "{" not in res.stdout
