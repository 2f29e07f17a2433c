import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from entverify import clifford, testops
from entverify.cli import SCHEMES, build_parser, main
from entverify.jsonio import (_entry_texts, dump_povm, pairs_to_vector,
                              povm_from_dict)
from entverify.mub import mub_povm, mub_prime
from entverify.sic import Fiducial, known_fiducial, weyl_orbit
from entverify.testops import RankOnePovm, bell_certificate


@pytest.fixture(autouse=True)
def home(tmp_path, monkeypatch):
    """A HOME of its own, so that a stray write under ~ shows."""
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    return home


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(args, cwd):
    """Run `python args` in a new process with this checkout's source on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=120)


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


def signed_zero_povm():
    """A complete POVM on C^2 with -0.0 and 0.0 in both parts and repeated [re, im] pairs."""
    parts = [[(1.0, 0.0), (0.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)],
             [(-1.0, -0.0), (-0.0, -0.0)], [(0.0, -0.0), (-0.0, 1.0)],
             [(1.0, 0.0), (0.0, 0.0)], [(-0.0, 0.0), (0.0, -1.0)]]
    raw = np.array(parts)
    vectors = np.empty(raw.shape[:2], dtype=complex)
    # set part by part: arithmetic such as re + 1j * im would turn a -0.0 real part into 0.0
    vectors.real, vectors.imag = raw[..., 0], raw[..., 1]
    return RankOnePovm(2, np.full(6, 1 / 3), vectors)


@pytest.mark.parametrize("scheme,d", [("sic", 2), ("sic", 4), ("mub", 5),
                                      ("clifford", 2), ("clifford", 3), ("clifford", 5),
                                      ("signed-zeros", 2), ("clifford-small-chunks", 3)])
def test_gen_document_equals_reference(scheme, d, capsys, monkeypatch):
    if scheme.endswith("-small-chunks"):
        # written 4 rows to a chunk (MIN_CHUNK_ROWS) instead of 455, the
        # document keeps the bytes of the default chunks
        scheme = scheme.removesuffix("-small-chunks")
        assert main(["gen", scheme, "--d", str(d)]) == 0
        default = capsys.readouterr().out
        monkeypatch.setattr(testops, "BELL_CHUNK", 16)
        assert main(["gen", scheme, "--d", str(d)]) == 0
        assert capsys.readouterr().out == default
    if scheme == "signed-zeros":
        # the output of no scheme, written by the same encoder that gen uses
        m = signed_zero_povm()
        assert np.signbit(m.vectors.real).any() and np.signbit(m.vectors.imag).any()
        ref = povm_to_dict(m)
        dump_povm(m)
        doc = json.loads(capsys.readouterr().out)
    else:
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


@pytest.mark.parametrize("drop,message", [
    (lambda doc: doc.pop("dim"), "POVM document has no 'dim'"),
    (lambda doc: doc["elements"][3].pop("vector"), "element 3 has no 'vector'"),
], ids=["dim", "vector"])
def test_povm_from_dict_names_a_missing_key(drop, message):
    doc = povm_to_dict(signed_zero_povm())
    drop(doc)
    with pytest.raises(ValueError, match=f"^{message}$"):
        povm_from_dict(doc)


@pytest.mark.parametrize("key,value,message", [
    ("elements", 3, "POVM document 'elements' is not a non-empty list"),
    ("elements", [], "POVM document 'elements' is not a non-empty list"),
    ("element", 7, "element 2 is not an object"),
    ("dim", "x", "POVM document 'dim' is not a positive integer: 'x'"),
    ("dim", 2.7, "POVM document 'dim' is not a positive integer: 2.7"),
    ("dim", "2", "POVM document 'dim' is not a positive integer: '2'"),
    ("dim", True, "POVM document 'dim' is not a positive integer: True"),
    # a weight or an entry is a JSON number, not a str, bool or null that numpy would convert
    ("weight", "1.0", "element 2 'weight' is not a finite number: '1.0'"),
    ("weight", True, "element 2 'weight' is not a finite number: True"),
    ("weight", None, "element 2 'weight' is not a finite number: None"),
    ("weight", float("inf"), "element 2 'weight' is not a finite number: inf"),
    ("weight", 10 ** 400, f"element 2 'weight' is not a finite number: {10 ** 400}"),
    ("vector", [["1.0", "0"], [0.0, 0.0]], "element 2 'vector': expected a list of [re, im] number pairs"),
    ("vector", [[1.0, False], [0.0, 0.0]], "element 2 'vector': expected a list of [re, im] number pairs"),
    ("vector", [[1.0, None], [0.0, 0.0]], "element 2 'vector': expected a list of [re, im] number pairs"),
    ("vector", {"a": 1}, "element 2 'vector': expected a list of [re, im] number pairs"),
    ("vector", [[1.0, 0.0], 0.0], "element 2 'vector': expected a list of [re, im] number pairs"),
    ("vector", [[1.0, 0.0], [0.0]], "element 2 'vector': expected a list of [re, im] number pairs"),
    ("vector", [[1.0, 0.0]], "element 2 'vector' has length 1, not dim = 2"),
    ("vector", [[1.0, 0.0], [float("nan"), 0.0]], "element 2 'vector' has a NaN or Inf entry"),
    ("vector", [[1.0, 0.0], [10 ** 400, 0.0]], "element 2 'vector': expected a list of [re, im] number pairs"),
    # a number out of range, refused by RankOnePovm, which names the element
    ("weight", 1.5, "weights must lie in [0, 1]; element 2 has weight 1.5"),
    ("vector", [[0, 0], [2, 0]], "POVM vectors must be unit norm; element 2 has norm 2.0"),
], ids=["elements-int", "elements-empty", "element-int", "dim-text", "dim-float", "dim-digits", "dim-bool",
        "weight-text", "weight-bool", "weight-null", "weight-inf", "weight-huge", "vector-text", "vector-bool",
        "vector-null", "vector-object", "vector-scalar-pair", "vector-short-pair", "vector-length",
        "vector-nan", "vector-huge", "weight-range", "vector-norm"])
def test_povm_from_dict_names_a_malformed_key(key, value, message):
    doc = povm_to_dict(signed_zero_povm())
    if key == "element":
        doc["elements"][2] = value
    elif key in ("weight", "vector"):
        doc["elements"][2][key] = value
    else:
        doc[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        povm_from_dict(doc)


@pytest.mark.parametrize("scheme,d", [("sic", 4), ("mub", 5), ("clifford", 3)])
def test_gen_documents_parse_to_their_povm(scheme, d, capsys):
    # a document does not record the pair count, so the orbit reads back as one pair on C^(d^2)
    argv = ["gen", scheme, "--d", str(d)]
    code, doc = run_json(capsys, argv)
    assert code == 0
    m = povm_from_dict(doc)
    want = SCHEMES[scheme].povm(SCHEMES[scheme].build(d, build_parser().parse_args(argv)))
    assert m.pairs == 1 and m.dim == want.dim
    assert np.array_equal(m.vectors, want.vectors) and np.array_equal(m.weights, want.weights)


def test_a_parsed_clifford_document_certifies_as_verify_does(capsys):
    # the 216 elements of a gen document, read back as a two-pair POVM, give
    # the element-level certificate, with cosets of 9 as blocks; verify reads
    # the same quantities from the 24 coset rows, equal to rounding
    code, doc = run_json(capsys, ["gen", "clifford", "--d", "3"])
    parsed = povm_from_dict(doc)
    m = RankOnePovm(parsed.dim, parsed.weights, parsed.vectors, pairs=2)
    t_dev, cov_dev, trace_dev = bell_certificate(m, 9)
    code, report = run_json(capsys, ["verify", "clifford", "--d", "3", "--json"])
    measured = {c["name"]: c["measured"] for c in report["checks"]}
    assert code == 0 and report["overall"]
    assert abs(cov_dev - measured["weyl_covariance_dev"]) <= 1e-14
    assert abs(m.completeness_defect() - measured["completeness_defect"]) <= 1e-14
    assert abs(t_dev - measured["t_identity_dev"]) <= 1e-12
    assert abs(trace_dev - measured["trace_dev"]) <= 1e-12


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


def test_entry_texts_match_entrywise_reference(rng):
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v[:4] = [-0.0, complex(0.0, -0.0), 5e-324 - 1e308j, 1e-300 + 1j]
    v[40:48] = v[:8]   # repeated entries take the text of their first occurrence
    ref = [[z.real, z.imag] for z in v]
    # json.dumps writes the repr of each float, so -0.0 and 0.0 differ
    rows = [[json.dumps(pair) for pair in ref[i:i + 8]] for i in range(0, 64, 8)]
    assert _entry_texts(v.reshape(8, 8)) == rows
    # the texts read back bit for bit, signed zeros included
    text = "[" + ", ".join(_entry_texts(v[None])[0]) + "]"
    assert pairs_to_vector(json.loads(text)).tobytes() == v.tobytes()
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
    report = clifford.verify_clifford_identity(d, clifford.clifford_representatives(d))
    assert doc == json.loads(json.dumps(report.to_dict()))


def test_clifford_commands_read_the_representatives_only(monkeypatch, capsys):
    # verify, simulate and count never form the whole orbit; gen writes it
    def whole_orbit(*args):
        raise AssertionError("the whole Clifford orbit was formed")

    monkeypatch.setattr(clifford, "enumerate_clifford", whole_orbit)
    monkeypatch.setattr(clifford, "clifford_povm", whole_orbit)
    code, doc = run_json(capsys, ["verify", "clifford", "--d", "5", "--json"])
    assert code == 0 and doc["metadata"]["elements"] == 3000
    code, doc = run_json(capsys, ["simulate", "--scheme", "clifford", "--d", "5",
                                  "--fidelity", "0.8", "--shots", "1000", "--json"])
    assert code == 0 and len(doc["outcome_histogram"]) == 3000
    code, doc = run_json(capsys, ["count", "--d", "5", "--enumerate", "--json"])
    assert code == 0 and doc["enumerated"] == 3000


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


NUMPY_RANDOM_PROBE = """
import contextlib, io, json, sys
import numpy
alone = "numpy.random" in sys.modules
from entverify.cli import main
codes = []
for scheme, d in (("sic", "4"), ("mub", "3"), ("clifford", "2")):
    for argv in (["gen", scheme, "--d", d], ["verify", scheme, "--d", d],
                 ["simulate", "--scheme", scheme, "--d", d, "--fidelity", "0.8",
                  "--shots", "10000000"]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["count", "--d", "3", "--enumerate"]))
print(json.dumps({"alone": alone, "codes": codes,
                  "loaded": sorted(m for m in sys.modules if m.startswith("numpy.random"))}))
"""


def test_no_command_imports_numpy_random(tmp_path):
    # a process of its own: the test session has numpy.random loaded already
    proc = run_python(["-c", NUMPY_RANDOM_PROBE], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    if doc["alone"]:
        pytest.skip("this numpy loads numpy.random on import")
    # gen, verify and count exit 0; simulate exits 0, or 1 on a 3-sigma miss
    assert all(code == 0 for i, code in enumerate(doc["codes"]) if i % 3 != 2)
    assert all(code in (0, 1) for code in doc["codes"][2::3])
    assert doc["loaded"] == []


@pytest.mark.parametrize("scheme,d", [("sic", "2"), ("mub", "5"), ("clifford", "2")])
def test_simulate_is_byte_identical_across_processes(scheme, d, tmp_path, capsys):
    argv = ["simulate", "--scheme", scheme, "--d", d, "--fidelity", "0.8",
            "--shots", "10000000", "--seed", "5", "--json"]
    first, second = (run_python(["-m", "entverify.cli", *argv], tmp_path) for _ in range(2))
    assert first.returncode == second.returncode == main(argv)
    assert first.stdout == second.stdout == capsys.readouterr().out.encode()
    assert sum(json.loads(first.stdout)["outcome_histogram"]) == 10 ** 7


MODULES_PROBE = """
import contextlib, io, json, sys
from entverify.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules if m.startswith("entverify."))}))
"""
SHARED = ["cli", "jsonio", "linalg", "report", "testops"]


@pytest.mark.parametrize("argv,own,code", [
    (["verify", "mub", "--d", "5"], ["mub"], 0),
    (["gen", "sic", "--d", "4"], ["sic"], 0),
    (["verify", "clifford", "--d", "2"], ["clifford"], 0),
    (["simulate", "--scheme", "mub", "--d", "3", "--fidelity", "0.8", "--seed", "1"],
     ["mub", "protocol"], 0),
    (["count", "--d", "3", "--enumerate"], ["clifford"], 0),
    (["gen", "mub", "--d", "4"], ["mub"], 2),
])
def test_each_command_imports_only_its_own_modules(argv, own, code, tmp_path):
    # a process of its own: the test session has every module loaded already
    proc = run_python(["-c", MODULES_PROBE, *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    assert doc["code"] == code
    assert doc["loaded"] == sorted(f"entverify.{m}" for m in SHARED + own)


def run_module(argv, cwd):
    return run_python(["-m", "entverify.cli", *argv], cwd)


def test_module_entry_writes_whole_documents(tmp_path, capsys):
    argv = ["gen", "clifford", "--d", "5"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    piped = run_module(argv, tmp_path)
    assert piped.returncode == 0 and piped.stderr == b""
    assert piped.stdout == expected
    assert len(json.loads(piped.stdout)["elements"]) == 3000
    out = tmp_path / "povm.json"
    written = run_module(argv + ["--out", str(out)], tmp_path)
    assert written.returncode == 0 and written.stdout == b""
    assert out.read_bytes() == expected


@pytest.mark.parametrize("argv,code", [
    (["verify", "mub", "--d", "2", "--tol", "1e-18"], 1),
    (["verify", "mub", "--d", "4"], 2),
    (["frobnicate"], 2),
    (["gen", "sic", "--d", "4", "--restarts", "1", "--search-tol", "1e-30"], 3),
    (["gen", "mub", "--d", "2", "--out", "{afile}/sub/x.json"], 4),
])
def test_module_entry_keeps_exit_codes_and_messages(argv, code, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    argv = [a.format(afile=afile) for a in argv]
    proc = run_module(argv, tmp_path)
    assert proc.returncode == main(argv) == code
    captured = capsys.readouterr()
    assert (proc.stdout.decode(), proc.stderr.decode()) == (captured.out, captured.err)
