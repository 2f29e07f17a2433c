"""Self-test of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import checks
import run
import workloads

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def home(tmp_path, monkeypatch):
    """A HOME of its own, so a write to ~/.cache/entverify would show."""
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    return home


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_completes(name, trace, home):
    result, detail = run.run_workload(name, seed=3, seconds=1, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["env"]["workload_seed"] == 3 and detail["env"]["numpy"]
    assert not (home / ".cache" / "entverify").exists()


def test_result_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_inputs_come_from_the_seed(name):
    labels = lambda seed: [c.label() for c in workloads.make(name, seed).commands]
    assert labels(5) == labels(5)
    assert any(labels(5) != labels(s) for s in range(6, 10))
    for cmd in workloads.make(name, 5).commands + workloads.make(name, 5).fill:
        assert "--no-cache" not in cmd.argv()


def test_each_command_gets_a_cache_dir_under_the_run(tmp_path):
    env = run.child_env(tmp_path / "c", tmp_path)
    assert env["ENTVERIFY_CACHE_DIR"] == str(tmp_path / "c")
    assert env["OPENBLAS_NUM_THREADS"] == str(run.blas_threads())


FAKE_CLI = textwrap.dedent("""
    import json, sys
    args = sys.argv[1:]
    kind = args[0]
    d = int(args[args.index("--d") + 1])
    if kind == "verify":
        print(json.dumps({"schema": 1, "overall": False, "checks": []}))
        sys.exit(1)
    if kind == "simulate":
        shots = int(args[args.index("--shots") + 1])
        print(json.dumps({"shots": shots, "outcome_histogram": [shots - 1, 0],
                          "estimate": 0.5, "analytic": 0.5, "stderr": 0.01}))
    elif kind == "gen":
        sys.stdout.write('{"schema": 1, "kind": "povm", "dim": 2, "elements": [{"weig')
    else:
        print(json.dumps({"schema": 1, "d": d, "formula_value": 24, "enumerated": 24}))
""")


@pytest.mark.parametrize("name", ["large-d", "warm-cache"])
def test_fabricated_bad_outputs_count_as_failed(name, tmp_path):
    fake = tmp_path / "fake_cli.py"
    fake.write_text(FAKE_CLI)
    result, detail = run.run_workload(name, seed=1, seconds=1, trace=False, tiny=True,
                                      program=[sys.executable, str(fake)])
    for record in detail["commands"]:
        expected = checks.OK if record["cmd"].startswith("count") else checks.FAIL
        assert record["outcome"] == expected, record
    n_bad = sum(1 for r in detail["commands"] if not r["cmd"].startswith("count"))
    assert n_bad > 0 and not result["correct"]
    assert result["failed"] == n_bad
    assert detail["failed_frac"] == n_bad / result["attempted"]


def _simulate_doc(sigmas: float) -> bytes:
    return json.dumps({"shots": 100, "outcome_histogram": [60, 40], "stderr": 0.01,
                       "analytic": 0.5, "estimate": 0.5 + sigmas * 0.01}).encode()


@pytest.mark.parametrize("sigmas, exit_code, outcome", [
    (0.5, 0, checks.OK), (0.5, 1, checks.FAIL),
    (4, 1, checks.MISS_3SIGMA), (4, 0, checks.FAIL), (6, 1, checks.FAIL)])
def test_simulate_check_separates_3sigma_miss_from_failure(sigmas, exit_code, outcome):
    cmd = workloads.Command("simulate", "mub", 3, seed=1, shots=100, fidelity=0.9)
    assert checks.check(cmd, exit_code, _simulate_doc(sigmas), None)[0] == outcome


def test_gen_check_rejects_incomplete_povm():
    sys.path.insert(0, str(run.SRC))
    from entverify.jsonio import povm_from_dict

    doc = {"schema": 1, "kind": "povm", "dim": 2,
           "elements": [{"weight": 1.0, "vector": [[1.0, 0.0], [0.0, 0.0]]}]}
    cmd = workloads.Command("gen", "sic", 2)
    assert checks.check(cmd, 0, json.dumps(doc).encode(), povm_from_dict)[0] == checks.FAIL


def test_traced_run_records_deleted_layer_functions_as_absent(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    from entverify import clifford, sic

    monkeypatch.delattr(clifford, "load_group_cache")
    monkeypatch.delattr(sic, "save_fiducial_cache")
    result, detail = run.run_workload("warm-cache", seed=1, seconds=1, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert detail["absent"] == ["entverify.clifford.load_group_cache",
                                "entverify.sic.save_fiducial_cache"]


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(40)]
    value, pct, n = run.tail(values)
    assert sum(v > value for v in values) == 10 and n == 40
    assert pct == pytest.approx(100 * 29 / 39)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "large-d",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""
