import json
import time

import numpy as np
import pytest

from entverify.cli import SCHEMES, build_parser, main
from entverify.jsonio import povm_from_dict, povm_to_dict
from entverify.mub import mub_povm, mub_prime
from entverify.sic import known_fiducial, weyl_orbit


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTVERIFY_CACHE_DIR", str(tmp_path / "cache"))


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_gen_sic_d2(capsys):
    code, doc = run_json(capsys, ["gen", "sic", "--d", "2"])
    assert code == 0
    assert doc["scheme"] == "sic" and doc["dim"] == 2
    assert len(doc["elements"]) == 4
    assert all(el["weight"] == 0.5 for el in doc["elements"])


def test_gen_mub_d4_is_usage_error(capsys):
    code = main(["gen", "mub", "--d", "4"])
    assert code == 2
    assert "prime" in capsys.readouterr().err


def test_gen_clifford_d3(capsys):
    code, doc = run_json(capsys, ["gen", "clifford", "--d", "3"])
    assert code == 0
    assert len(doc["elements"]) == 216
    assert doc["dim"] == 9


def test_gen_sic_searched_uses_cache(tmp_path, capsys):
    code, doc1 = run_json(capsys, ["gen", "sic", "--d", "4", "--seed", "1"])
    assert code == 0
    assert doc1["fiducial_residual"] < 1e-8
    code, doc2 = run_json(capsys, ["gen", "sic", "--d", "4", "--seed", "1"])
    assert code == 0
    assert doc1["elements"] == doc2["elements"]


def test_gen_out_file(tmp_path, capsys):
    out = tmp_path / "povm.json"
    assert main(["gen", "mub", "--d", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["elements"]) == 6


def test_povm_json_roundtrip_exact():
    m = weyl_orbit(known_fiducial(2))
    doc = json.loads(json.dumps(povm_to_dict(m, "sic", 2)))
    m2 = povm_from_dict(doc)
    assert np.array_equal(m.vectors, m2.vectors)
    assert np.array_equal(m.weights, m2.weights)


def test_povm_json_roundtrip_mub():
    m = mub_povm(mub_prime(3))
    m2 = povm_from_dict(json.loads(json.dumps(povm_to_dict(m))))
    assert np.array_equal(m.vectors, m2.vectors)


def test_verify_sic_d3(capsys):
    code, doc = run_json(capsys, ["verify", "sic", "--d", "3", "--json"])
    assert code == 0
    assert doc["overall"] is True
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["t_identity_dev"]["measured"] < 1e-10


def test_verify_mub_d7(capsys):
    code, doc = run_json(capsys, ["verify", "mub", "--d", "7", "--json"])
    assert code == 0
    assert doc["overall"] is True


def test_verify_clifford_d2_check_names(capsys):
    code, doc = run_json(capsys, ["verify", "clifford", "--d", "2", "--json"])
    assert code == 0
    names = {c["name"] for c in doc["checks"]}
    assert {"completeness_defect", "char_moment1_dev", "char_moment2_dev",
            "t_identity_dev", "trace_dev", "cardinality_dev"} <= names
    assert doc["metadata"]["elements"] == 24


@pytest.mark.parametrize("scheme", ["sic", "mub", "clifford"])
def test_verify_failing_tolerance_exits_1(scheme, capsys):
    code, doc = run_json(capsys, ["verify", scheme, "--d", "2", "--json", "--tol", "1e-18"])
    assert code == 1
    assert doc["overall"] is False  # report still emitted


def test_verify_human_readable(capsys):
    code = main(["verify", "mub", "--d", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


def test_simulate_mub(capsys):
    code, doc = run_json(capsys, [
        "simulate", "--scheme", "mub", "--d", "2", "--fidelity", "0.9",
        "--shots", "100000", "--seed", "42", "--json"])
    assert code == 0
    assert abs(doc["estimate"] - 0.93333) < 0.0024
    assert doc["consistent_3sigma"] is True


def test_simulate_fidelity_range_is_usage_error(capsys):
    code = main(["simulate", "--scheme", "mub", "--d", "2",
                 "--fidelity", "1.5", "--shots", "100", "--json"])
    assert code == 2


def test_simulate_pure_sic(capsys):
    code, doc = run_json(capsys, [
        "simulate", "--scheme", "sic", "--d", "2", "--fidelity", "1",
        "--shots", "1000", "--json"])
    assert code == 0
    assert doc["estimate"] == 1.0


def test_simulate_clifford_double(capsys):
    code, doc = run_json(capsys, [
        "simulate", "--scheme", "clifford", "--d", "2", "--fidelity", "0.8",
        "--shots", "20000", "--json"])
    assert code == 0
    assert abs(doc["analytic"] - (0.64 + 0.04 / 3)) < 1e-12


def test_simulate_clifford_d5(capsys):
    code, doc = run_json(capsys, [
        "simulate", "--scheme", "clifford", "--d", "5", "--fidelity", "0.8",
        "--shots", "1000", "--json"])
    assert code in (0, 1)
    assert abs(doc["analytic"] - (0.64 + 0.04 / 24)) < 1e-12


def test_scheme_table_names_the_parser_choices():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for name in ("gen", "verify", "simulate"):
        action = next(a for a in commands[name]._actions if a.dest == "scheme")
        assert list(action.choices) == list(SCHEMES)


def test_count_d2(capsys):
    code, doc = run_json(capsys, ["count", "--d", "2", "--json"])
    assert code == 0
    assert doc["nu_values"] == [3, 1]
    assert doc["formula_value"] == 24
    assert doc["prime_formula_value"] == 24
    assert doc["enumerated"] == 24


def test_count_d4_composite(capsys):
    code, doc = run_json(capsys, ["count", "--d", "4", "--json"])
    assert code == 0
    assert doc["nu_values"] == [8, 2, 4, 2]
    assert doc["formula_value"] == 768
    assert doc["prime_formula_value"] is None
    assert doc["enumerated"] is None


def test_count_d5(capsys):
    code, doc = run_json(capsys, ["count", "--d", "5", "--json"])
    assert code == 0
    assert doc["formula_value"] == 3000
    assert doc["prime_formula_value"] == 3000
    assert doc["enumerated"] is None  # enumeration is opt-in at d=5


def test_count_d4096_is_fast(capsys):
    t0 = time.perf_counter()
    code, doc = run_json(capsys, ["count", "--d", "4096", "--json"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    assert sum(doc["nu_values"]) == 4096 ** 2
    assert doc["prime_formula_value"] is None


@pytest.mark.parametrize("argv", [
    ["count", "--d", "4097"],
    ["gen", "sic", "--d", "4", "--restarts", "0"],
    ["verify", "sic", "--d", "4", "--search-tol", "0"],
    ["gen", "sic", "--d", "4", "--seed", "-1"],
    ["simulate", "--scheme", "mub", "--d", "2", "--fidelity", "0.9", "--seed", "-1"],
])
def test_bad_value_is_one_line_usage_error(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("scheme,d", [("sic", 13), ("mub", 4), ("mub", 67), ("clifford", 7)])
@pytest.mark.parametrize("command", ["gen", "verify", "simulate"])
def test_unsupported_d_is_one_line_usage_error(command, scheme, d, capsys):
    if command == "simulate":
        argv = ["simulate", "--scheme", scheme, "--fidelity", "0.9"]
    else:
        argv = [command, scheme]
    code = main(argv + ["--d", str(d)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {scheme} supports ") and err.endswith(f", got d={d}\n")
    assert err.count("\n") == 1


def test_bad_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_arg_exits_2(capsys):
    assert main(["gen", "sic"]) == 2


def test_unsupported_sic_dim(capsys):
    assert main(["gen", "sic", "--d", "13"]) == 2


def test_truncated_fiducial_cache_is_a_miss(tmp_path, capsys):
    assert main(["verify", "sic", "--d", "4"]) == 0
    path = tmp_path / "cache" / "fiducial-cache.json"
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    capsys.readouterr()
    code = main(["verify", "sic", "--d", "4"])
    captured = capsys.readouterr()
    assert code == 0 and "overall: PASS" in captured.out
    assert captured.err.count("warning:") == 1


def test_clifford_commands_write_no_cache(tmp_path, capsys):
    assert main(["gen", "clifford", "--d", "2"]) == 0
    assert main(["verify", "clifford", "--d", "2"]) == 0
    assert main(["count", "--d", "2", "--enumerate"]) == 0
    cache = tmp_path / "cache"
    assert not (cache / "clifford-cache.json").exists()
    assert not cache.exists() or not any(cache.iterdir())


def test_malformed_fiducial_cache_is_a_miss(tmp_path, capsys):
    path = tmp_path / "cache" / "fiducial-cache.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"schema": 1, "entries": {
        "4": {"d": 4, "vector": [1, 2, 3, 4], "residual": 0.0}}}))
    code = main(["verify", "sic", "--d", "4"])
    captured = capsys.readouterr()
    assert code == 0 and "overall: PASS" in captured.out
    assert captured.err.count("warning:") == 1


def test_search_failure_exits_3(capsys):
    code = main(["gen", "sic", "--d", "4", "--restarts", "1",
                 "--search-tol", "1e-30", "--no-cache"])
    assert code == 3
    assert "search failed" in capsys.readouterr().err


def test_simulate_shots_above_int64_is_usage_error(capsys):
    code = main(["simulate", "--scheme", "mub", "--d", "2", "--fidelity", "0.9",
                 "--shots", str(2 ** 63), "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_unwritable_out_path_is_io_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    code = main(["gen", "mub", "--d", "2", "--out", str(afile / "sub" / "x.json")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error:") and err.count("\n") == 1
