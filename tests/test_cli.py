import json
import time

import numpy as np
import pytest

from entverify import clifford
from entverify.cli import SCHEMES, build_parser, main
from entverify.jsonio import (dump_povm, pairs_to_vector, povm_from_dict,
                              vector_to_pairs)
from entverify.mub import mub_povm, mub_prime
from entverify.sic import Fiducial, known_fiducial, weyl_orbit


@pytest.fixture(autouse=True)
def home(tmp_path, monkeypatch):
    """A HOME of its own, so that a stray write under ~ shows."""
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    return home


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def povm_to_dict(m, scheme=None, d=None):
    """Reference POVM document: the nested lists built entry by entry."""
    out = {
        "schema": 1,
        "kind": "povm",
        "dim": m.dim,
        "elements": [{"weight": float(w), "vector": [[z.real, z.imag] for z in v]}
                     for w, v in zip(m.weights, m.vectors)],
    }
    if scheme is not None:
        out["scheme"] = scheme
    if d is not None:
        out["d"] = d
    return out


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


def test_gen_sic_searched_is_deterministic(capsys):
    code, doc1 = run_json(capsys, ["gen", "sic", "--d", "4", "--seed", "1"])
    assert code == 0
    assert doc1["fiducial_residual"] < 1e-8
    code, doc2 = run_json(capsys, ["gen", "sic", "--d", "4", "--seed", "1"])
    assert code == 0
    # the same seed searches the same fiducial again, bit for bit
    assert json.dumps(doc1) == json.dumps(doc2)


def test_gen_out_file(tmp_path, capsys):
    out = tmp_path / "povm.json"
    assert main(["gen", "mub", "--d", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["elements"]) == 6


def test_povm_json_roundtrip_exact(tmp_path):
    m = weyl_orbit(known_fiducial(2))
    path = tmp_path / "povm.json"
    dump_povm(m, str(path), scheme="sic", d=2)
    m2 = povm_from_dict(json.loads(path.read_text()))
    assert np.array_equal(m.vectors, m2.vectors)
    assert np.array_equal(m.weights, m2.weights)


def test_povm_json_roundtrip_mub(tmp_path):
    m = mub_povm(mub_prime(3))
    path = tmp_path / "povm.json"
    dump_povm(m, str(path))
    m2 = povm_from_dict(json.loads(path.read_text()))
    assert np.array_equal(m.vectors, m2.vectors)


@pytest.mark.parametrize("scheme,d", [("sic", 2), ("sic", 4), ("mub", 5),
                                      ("clifford", 2), ("clifford", 3), ("clifford", 5)])
def test_gen_document_equals_reference(scheme, d, capsys):
    argv = ["gen", scheme, "--d", str(d)]
    data = SCHEMES[scheme].build(d, build_parser().parse_args(argv))
    ref = povm_to_dict(SCHEMES[scheme].povm(data), scheme, d)
    if isinstance(data, Fiducial):
        ref["fiducial_residual"] = data.residual
    assert ("fiducial_residual" in ref) == (scheme == "sic")
    code, doc = run_json(capsys, argv)
    assert code == 0
    expected = json.loads(json.dumps(ref))
    assert doc == expected
    # same key order and the same repr of every float (== alone equates -0.0 and 0.0)
    assert json.dumps(doc) == json.dumps(expected)


@pytest.mark.parametrize("scheme,d,n", [("sic", 2, 4), ("clifford", 3, 216)])
def test_gen_writes_one_line_per_element(scheme, d, n, capsys):
    assert main(["gen", scheme, "--d", str(d)]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index('  "elements": [')
    assert lines[start + n + 1] == "  ],"
    for line in lines[start + 1:start + n + 1]:
        assert line.startswith('    {"weight": ')
        assert set(json.loads(line.rstrip(","))) == {"weight", "vector"}


@pytest.mark.parametrize("argv", [["gen", "sic", "--d", "4", "--seed", "2"],
                                  ["gen", "clifford", "--d", "2"]])
def test_gen_stdout_and_out_file_are_the_same_bytes(argv, tmp_path, capsys):
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "povm.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode()


def test_vector_to_pairs_matches_entrywise_reference(rng):
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v[:4] = [-0.0, complex(0.0, -0.0), 5e-324 - 1e308j, 1e-300 + 1j]
    ref = [[z.real, z.imag] for z in v]
    # json.dumps compares the repr of each float, so -0.0 and 0.0 differ
    assert json.dumps(vector_to_pairs(v)) == json.dumps(ref)
    rows = [ref[i:i + 8] for i in range(0, 64, 8)]
    assert json.dumps(vector_to_pairs(v.reshape(8, 8))) == json.dumps(rows)
    # the pairs read back bit for bit, signed zeros included
    assert pairs_to_vector(vector_to_pairs(v)).tobytes() == v.tobytes()
    assert pairs_to_vector(ref).tobytes() == v.tobytes()


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


@pytest.mark.parametrize("d", (2, 3, 5))
def test_verify_clifford_json_is_the_library_report(d, capsys):
    code, doc = run_json(capsys, ["verify", "clifford", "--d", str(d), "--json"])
    assert code == 0
    for key in ("seed", "version", "created"):
        del doc["metadata"][key]
    report = clifford.verify_clifford_identity(d, clifford.enumerate_clifford(d))
    assert doc == json.loads(json.dumps(report.to_dict()))


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
    ["verify", "sic", "--d", "2", "--tol", "nan"],
    ["verify", "mub", "--d", "3", "--tol", "-1"],
    ["gen", "sic", "--d", "4", "--search-tol", "nan"],
    ["gen", "sic", "--d", "4", "--search-tol", "inf"],
    ["verify", "mub", "--d", "3", "--seed", "-1"],
    ["gen", "clifford", "--d", "2", "--restarts", "0"],
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


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_gen_and_verify_write_nothing_under_home(scheme, home, tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache"
    monkeypatch.setenv("ENTVERIFY_CACHE_DIR", str(cache))
    for d in (2, 4) if scheme == "sic" else (2,):
        assert main(["gen", scheme, "--d", str(d)]) == 0
        assert main(["verify", scheme, "--d", str(d)]) == 0
    if scheme == "clifford":
        assert main(["count", "--d", "2", "--enumerate"]) == 0
    assert not any(home.iterdir())
    assert not cache.exists()


def test_no_cache_option_is_a_usage_error(capsys):
    assert main(["gen", "sic", "--d", "4", "--no-cache"]) == 2
    assert "--no-cache" in capsys.readouterr().err


def test_search_failure_exits_3(capsys):
    code = main(["gen", "sic", "--d", "4", "--restarts", "1",
                 "--search-tol", "1e-30"])
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
