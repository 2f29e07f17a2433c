"""Traced run: the workload's commands replayed in process, layer by layer.

Each command is mirrored by calls to the public functions of the layers the
CLI would use (`testops`, `mub`, `sic`, `clifford`, `protocol`, `jsonio`),
and every call is wrapped in a span kept in memory: name, start, end, the
command it belongs to, its parent span and attributes such as array sizes. A few
calls are *reference* spans: they repeat, on the same inputs, work that a
larger call does inside itself (for example `realized_test` inside
`verify_mub_identity`) and are recorded as children of that call, so that
its self time is its duration minus theirs. The `cli` layer is the import
cost each CLI command pays, measured in fresh interpreters.

A layer function that no longer exists is recorded as absent. A missing
cache function counts as a cache miss or a skipped save; any other missing
function ends that command's mirror without failing the run.
"""

from __future__ import annotations

import importlib
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

from checks import FAIL, check

LAYERS = ("cli", "testops", "mub", "sic", "clifford", "protocol", "jsonio")
IMPORT_REPEATS = 5


class Absent(Exception):
    """A layer function the traced mirror needs no longer exists."""


class Tracer:
    """In-memory span recorder; spans are plain dicts so they dump as JSON."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self.values: dict[str, float] = defaultdict(float)   # counts made at span sites
        self._cmd: int | None = None

    @contextmanager
    def command(self, label: str, phase: str):
        span = self._open("cmd", None, {"argv": label, "phase": phase})
        self._cmd = span["id"]
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._cmd = None

    def call(self, name: str, module, fn: str, *args, parent: int | None = None,
             attrs: dict | None = None, **kwargs):
        """Call `module.fn(*args, **kwargs)` inside a span called `name`."""
        func = getattr(module, fn, None)
        if func is None:
            self.absent.add(f"{module.__name__}.{fn}")
            raise Absent(f"{module.__name__}.{fn}")
        span = self._open(name, self._cmd if parent is None else parent, attrs or {})
        try:
            return func(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()

    def _open(self, name: str, parent: int | None, attrs: dict) -> dict:
        span = {"id": len(self.spans), "name": name, "cmd": self._cmd, "parent": parent,
                "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(span)
        return span

    @property
    def last(self) -> int:
        return self.spans[-1]["id"]


# --- mirrors of the CLI paths --------------------------------------------

def _fiducial(tr: Tracer, ev, d: int, seed: int | None, cache: str):
    """cli._fiducial / sic.get_fiducial, one span per step."""
    sic = ev.sic
    if d in (2, 3):
        return tr.call("sic.known_fiducial", sic, "known_fiducial", d)
    cfg = sic.FiducialSearchConfig(seed=seed or 0)
    path = os.path.join(cache, getattr(ev.jsonio, "FIDUCIAL_CACHE", "fiducial-cache.json"))
    try:
        cached = tr.call("sic.cache_load", sic, "load_fiducial_cache", d, path)
    except Absent:
        cached = None
    if cached is not None and cached.residual <= cfg.tol:
        return cached
    f = tr.call("sic.search", sic, "search_fiducial", d, cfg, attrs={"d": d})
    tr.values["sic.search_residual_max"] = max(tr.values["sic.search_residual_max"], f.residual)
    try:
        tr.call("sic.cache_save", sic, "save_fiducial_cache", f, path, seed=cfg.seed)
    except Absent:
        pass
    return f


def _group(tr: Tracer, ev, d: int, cache: str):
    """cli._group: group cache, else enumeration (and save)."""
    clifford = ev.clifford
    path = os.path.join(cache, getattr(ev.jsonio, "GROUP_CACHE", "clifford-cache.json"))
    try:
        group = tr.call("clifford.cache_load", clifford, "load_group_cache", d, path)
    except Absent:
        group = None
    if group is None:
        group = tr.call("clifford.enumerate", clifford, "enumerate_clifford", d)
        try:
            tr.call("clifford.cache_save", clifford, "save_group_cache", group, path)
        except Absent:
            pass
    if os.path.exists(path):
        tr.values["clifford.cache_bytes"] = max(tr.values["clifford.cache_bytes"],
                                                os.path.getsize(path))
    tr.values["clifford.group_elements"] += len(group)
    return group


def _realized_test(tr: Tracer, ev, povm, parent: int, **kwargs):
    n, dim = povm.vectors.shape
    big = dim * dim
    test = tr.call("testops.realized_test", ev.testops, "realized_test", povm,
                   parent=parent, attrs={"n": n, "D": big}, **kwargs)
    # one complex multiply-add (8 flops) per term of sum_i p_i pairs_ia conj(pairs_ib)
    tr.values["testops.realized_test_gflop_computed"] += 8 * n * big * big / 1e9
    return test


def _dump(tr: Tracer, ev, doc: dict, out: str) -> None:
    tr.call("jsonio.dump", ev.jsonio, "dump_json", doc, out)
    tr.values["jsonio.out_bytes"] += os.path.getsize(out)


def _povm(tr: Tracer, ev, scheme: str, d: int, seed, cache: str):
    if scheme == "sic":
        f = _fiducial(tr, ev, d, seed, cache)
        return tr.call("sic.orbit", ev.sic, "weyl_orbit", f)
    if scheme == "mub":
        fam = tr.call("mub.build", ev.mub, "mub_prime", d)
        return tr.call("mub.build", ev.mub, "mub_povm", fam)
    group = _group(tr, ev, d, cache)
    return tr.call("clifford.povm", ev.clifford, "clifford_povm", group)


def _verify(tr: Tracer, ev, cmd, cache: str, out: str) -> int:
    d = cmd.d
    if cmd.scheme == "sic":
        f = _fiducial(tr, ev, d, cmd.seed, cache)
        report = tr.call("sic.verify", ev.sic, "verify_sic_identity", d, f)
        parent = tr.last
        povm = tr.call("sic.orbit", ev.sic, "weyl_orbit", f, parent=parent)
        _realized_test(tr, ev, povm, parent, require_complete=False)
    elif cmd.scheme == "mub":
        fam = tr.call("mub.build", ev.mub, "mub_prime", d)
        report = tr.call("mub.verify", ev.mub, "verify_mub_identity", d)
        parent = tr.last
        povm = tr.call("mub.build", ev.mub, "mub_povm", fam, parent=parent)
        _realized_test(tr, ev, povm, parent)
    else:
        group = _group(tr, ev, d, cache)
        if d in (2, 3):
            report = tr.call("clifford.verify_identity", ev.clifford,
                             "verify_clifford_identity", d, group)
            parent = tr.last
            povm = tr.call("clifford.povm", ev.clifford, "clifford_povm", group, parent=parent)
            _realized_test(tr, ev, povm, parent, double=True)
        else:
            report, _ = tr.call("clifford.verify_group", ev.clifford,
                                "verify_clifford_group", d, group)
    _dump(tr, ev, report.to_dict(), out)
    return 0 if report.overall else 1


def _gen(tr: Tracer, ev, cmd, cache: str, out: str) -> int:
    povm = _povm(tr, ev, cmd.scheme, cmd.d, cmd.seed, cache)
    doc = tr.call("jsonio.povm_to_dict", ev.jsonio, "povm_to_dict", povm, cmd.scheme, cmd.d)
    _dump(tr, ev, doc, out)
    return 0


def _count(tr: Tracer, ev, cmd, cache: str, out: str) -> int:
    d = cmd.d
    formula = tr.call("clifford.count", ev.clifford, "clifford_cardinality", d)
    doc = {"schema": 1, "d": d, "formula_value": formula, "enumerated": None}
    if cmd.enumerate or d in (2, 3):
        if d in (2, 3, 5):
            doc["enumerated"] = len(_group(tr, ev, d, cache))
    _dump(tr, ev, doc, out)
    return 0


def _simulate(tr: Tracer, ev, cmd, cache: str, out: str) -> int:
    protocol = ev.protocol
    povm = _povm(tr, ev, cmd.scheme, cmd.d, cmd.seed, cache)
    double = cmd.scheme == "clifford"
    state = tr.call("protocol.state_build", protocol,
                    "double_isotropic_state" if double else "isotropic_state",
                    cmd.d, cmd.fidelity)
    transcript = tr.call("protocol.run", protocol, "run_protocol", povm, state,
                         cmd.shots, cmd.seed, attrs={"shots": cmd.shots, "n": povm.n_elements})
    run = tr.last
    tr.values["protocol.shots"] += cmd.shots
    tr.call("protocol.outcome_distribution", protocol, "outcome_distribution", povm, state,
            parent=run, attrs={"n": povm.n_elements, "dim": povm.dim})
    test = _realized_test(tr, ev, povm, run, double=double)
    tr.call("testops.acceptance", ev.testops, "acceptance_probability", test, state.rho,
            parent=run)
    doc = {"schema": 1, "scheme": cmd.scheme, "d": cmd.d, "fidelity": cmd.fidelity}
    doc.update(transcript.to_dict())
    _dump(tr, ev, doc, out)
    return 0 if transcript.consistent_3sigma else 1


MIRRORS = {"verify": _verify, "gen": _gen, "count": _count, "simulate": _simulate}


# --- the run ---------------------------------------------------------------

def import_seconds(env: dict, cwd: str) -> float:
    """Median wall time of a fresh interpreter running `import entverify`."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import entverify"], env=env, cwd=cwd,
                       timeout=60, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(wl, tmp: str, env: dict, cwd: str) -> tuple[dict, dict]:
    """Trace one set-up (if any) and one pass of `wl`; return (metrics, detail)."""
    ev = SimpleNamespace(**{name: importlib.import_module(f"entverify.{name}")
                            for name in LAYERS if name != "cli"})
    tr = Tracer()
    records = []
    out = os.path.join(tmp, "trace-out.json")
    shared = os.path.join(tmp, "trace-cache")
    os.makedirs(shared, exist_ok=True)
    plan = [("setup", c) for c in wl.fill] + [("timed", c) for c in wl.commands]
    for i, (phase, cmd) in enumerate(plan):
        cache = shared if (phase == "setup" or wl.fill) else os.path.join(tmp, f"trace-cache-{i}")
        os.makedirs(cache, exist_ok=True)
        record = {"cmd": cmd.label(), "phase": phase}
        try:
            with tr.command(cmd.label(), phase) as span:
                rc = MIRRORS[cmd.kind](tr, ev, cmd, cache, out)
            record["seconds"] = span["end"] - span["start"]
            with open(out, "rb") as fh:
                record["outcome"], record["reason"] = check(cmd, rc, fh.read(), ev.jsonio.povm_from_dict)
        except Absent as exc:
            record["outcome"], record["reason"] = "absent", f"{exc} no longer exists"
        except Exception as exc:  # keep tracing the other commands; report this one
            record["outcome"], record["reason"] = FAIL, f"{type(exc).__name__}: {exc}"
        records.append(record)

    counts = {phase: sum(1 for p, _ in plan if p == phase) for phase in ("timed", "setup")}
    metrics, shares = summarize(tr, import_seconds(env, cwd), counts)
    detail = {"commands": records, "absent": sorted(tr.absent), "shares": shares,
              "all_metrics": metrics, "spans": tr.spans}
    return metrics, detail


def _self_times(spans: list[dict], phase: str | None = None) -> dict[str, float]:
    """Self time per span name: duration minus the durations of its child spans."""
    phases = {s["id"]: s["attrs"]["phase"] for s in spans if s["name"] == "cmd"}
    layer_spans = [s for s in spans if s["name"] != "cmd"
                   and (phase is None or phases.get(s["cmd"]) == phase)]
    child = defaultdict(float)
    for s in layer_spans:
        child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for s in layer_spans:
        out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
    return out


def summarize(tr: Tracer, import_s: float, counts: dict[str, int]) -> tuple[dict, dict]:
    """Every per-layer metric of the trace, and each layer's share per phase."""
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in tr.spans:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
    ref_rt = defaultdict(float)   # reference realized_test time under each parent span
    for s in tr.spans:
        if s["name"] == "testops.realized_test":
            ref_rt[s["parent"]] += s["end"] - s["start"]
    verify_self = sum(s["end"] - s["start"] - ref_rt[s["id"]]
                      for s in tr.spans if s["name"] == "mub.verify")
    run_self = _self_times(tr.spans).get("protocol.run", 0.0)

    m = {"cli.import_s": import_s}
    for key in ("testops.realized_test", "testops.acceptance", "mub.build", "mub.verify",
                "sic.search", "sic.orbit", "sic.verify", "sic.cache_load", "sic.cache_save",
                "clifford.enumerate", "clifford.verify_group", "clifford.cache_save",
                "clifford.cache_load", "protocol.state_build", "protocol.outcome_distribution",
                "protocol.run", "jsonio.povm_to_dict", "jsonio.dump"):
        m[f"{key}_s"] = total[key]
    m["mub.verify_self_s"] = verify_self
    m["protocol.sample_s_derived"] = run_self
    m["testops.realized_test_calls"] = calls["testops.realized_test"]
    m["sic.search_calls"] = calls["sic.search"]
    for key in ("testops.realized_test_gflop_computed", "sic.search_residual_max",
                "clifford.group_elements", "clifford.cache_bytes", "protocol.shots",
                "jsonio.out_bytes"):
        m[key] = tr.values[key]

    shares = {}
    for phase in ("timed", "setup"):
        per_layer = defaultdict(float)
        for name, t in _self_times(tr.spans, phase).items():
            per_layer[name.split(".")[0]] += max(t, 0.0)
        per_layer["cli"] = import_s * counts[phase]
        whole = sum(per_layer.values())
        if whole > 0:
            shares[phase] = {"seconds": {k: per_layer[k] for k in LAYERS},
                             "share_pct": {k: 100 * per_layer[k] / whole for k in LAYERS}}
    for layer in LAYERS:
        m[f"{layer}.share_pct"] = shares.get("timed", {}).get("share_pct", {}).get(layer, 0.0)
    return m, shares
