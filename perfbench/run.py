"""Benchmark entry point: one workload of the entverify CLI, end to end or traced.

    python3 perfbench/run.py --workload large-d --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. With `--trace 0` the workload's commands run
as `python -m entverify.cli ...`, each in its own subprocess, one after
another (a closed loop with one client), and the end-to-end metrics are
reported. With `--trace 1` the same commands are replayed in process with a
span around each layer call (see traced.py) and the per-layer metrics are
reported. Every command's cache dir lies under `.bench_tmp/` in the checkout.

Standard output ends with two JSON lines: the run's details (environment,
per-command records, failure reasons), then the result
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_KEYS = ("name", "version", "openblas configuration")   # not the build's directories
DEADLINE_S = 170.0          # a run must end within 180 s
WARMUP = workloads.Command("count", None, 2)   # interpreter start and bytecode, own cache dir
PROGRAM = [sys.executable, "-m", "entverify.cli"]

END_TO_END_UNITS = {"wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# The traced run measures more (see traced.summarize); these are the metrics
# that are measured on every workload. A layer time that is 0 on some
# workload (e.g. sic.search_s on large-d) stays in the trace file only.
PER_LAYER_UNITS = {
    "cli.import_s": "s", "testops.realized_test_s": "s", "jsonio.dump_s": "s",
    "testops.realized_test_calls": "count", "testops.realized_test_gflop_computed": "GFLOP",
    "sic.search_calls": "count", "clifford.cache_bytes": "B", "jsonio.out_bytes": "B",
    **{f"{layer}.share_pct": "%" for layer in
       ("cli", "testops", "mub", "sic", "clifford", "protocol", "jsonio")},
}


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env(cache: Path | None, tmp: Path) -> dict:
    """Environment for one CLI process: this checkout's source, its own cache dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)
    env.update({var: str(blas_threads()) for var in BLAS_VARS})
    if cache is not None:
        env["ENTVERIFY_CACHE_DIR"] = str(cache)
    return env


def execute(argv: list[str], env: dict, out: Path, err: Path,
            timeout: float) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, max RSS in MB)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * k / (n - 1), n


class Runner:
    """Runs CLI commands for one workload and checks their outputs afterwards."""

    def __init__(self, tmp: Path, program: list[str], deadline: float, povm_from_dict):
        self.tmp = tmp
        self.program = program
        self.deadline = deadline
        self.povm_from_dict = povm_from_dict
        self.records: list[dict] = []
        self._pending: list[tuple[dict, workloads.Command, Path, Path]] = []

    def run(self, cmd: workloads.Command, cache: Path, phase: str) -> dict:
        i = len(self.records)
        out, err = self.tmp / f"out-{i}.json", self.tmp / f"err-{i}.txt"
        timeout = max(1.0, self.deadline - time.monotonic())
        seconds, rc, rss = execute(self.program + cmd.argv(), child_env(cache, self.tmp),
                                   out, err, timeout)
        record = {"cmd": cmd.label(), "phase": phase, "seconds": seconds,
                  "exit": rc, "rss_mb": rss}
        self.records.append(record)
        self._pending.append((record, cmd, out, err))
        return record

    def check_pending(self) -> None:
        """Check the outputs of the commands run since the last call (untimed)."""
        for record, cmd, out, err in self._pending:
            record["outcome"], record["reason"] = checks.check(
                cmd, record["exit"], out.read_bytes(), self.povm_from_dict)
            if record["outcome"] == checks.FAIL:
                record["stderr"] = err.read_text(errors="replace")[-500:]
            out.unlink()
            err.unlink()
        self._pending.clear()


def set_up(wl: workloads.Workload, runner: Runner, base: Path):
    """One set-up: fresh cache dirs, and the fill or warm-up commands. Returns cache_for."""
    base.mkdir(parents=True)
    if wl.fill:
        cache = base / "cache"
        cache.mkdir()
        for cmd in wl.fill:
            runner.run(cmd, cache, "setup")
        return lambda j: cache
    dirs = [base / f"cache-{j}" for j in range(len(wl.commands))]
    for d in dirs:
        d.mkdir()
    warm = base / "warmup"
    warm.mkdir()
    runner.run(WARMUP, warm, "setup")
    return dirs.__getitem__


def run_end_to_end(wl: workloads.Workload, seconds: float, tmp: Path, runner: Runner):
    """Passes of the workload for about `seconds`, each after its own set-up.

    A pass starts only if a typical pass still fits in `seconds`; there are at
    least two. Returns the run's metrics and details.
    """
    setup_times, pass_walls, timed, pass_totals = [], [], [], []
    run_start = time.perf_counter()
    while len(timed) < 2 or (time.perf_counter() - run_start
                             + statistics.median(pass_totals) <= seconds):
        if time.monotonic() > runner.deadline:
            break
        p = len(timed)
        pass_start = start = time.perf_counter()
        cache_for = set_up(wl, runner, tmp / f"pass-{p}")
        setup_times.append(time.perf_counter() - start)
        runner.check_pending()
        start = time.perf_counter()
        timed.append([runner.run(cmd, cache_for(j), f"pass {p}")
                      for j, cmd in enumerate(wl.commands)])
        pass_walls.append(time.perf_counter() - start)
        runner.check_pending()
        pass_totals.append(time.perf_counter() - pass_start)

    # A command's time is its median over the passes. The machine this was
    # built on drifts in speed by up to 1.5x over seconds to minutes (README);
    # the best sample follows the fastest stretch a run happens to see, the
    # median follows the run as a whole.
    per_cmd = [statistics.median(r["seconds"] for r in column) for column in zip(*timed)]
    tail_s, tail_pct, n = tail(per_cmd)
    metrics = {"wall_s": sum(per_cmd),
               "cmd_p50_s": statistics.median(per_cmd),
               "cmd_tail_s": tail_s,
               "peak_rss_mb": max(r["rss_mb"] for pass_records in timed for r in pass_records),
               "setup_s": statistics.median(setup_times)}
    detail = {"passes": len(pass_walls), "pass_walls_s": pass_walls,
              "setup_times_s": setup_times, "cmd_tail_percentile": tail_pct,
              "cmd_samples": n}
    return metrics, detail


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in BLAS_KEYS}
    except (TypeError, KeyError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "nproc": blas_threads(), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(), "git_commit": commit, "workload_seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 program: list[str] | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result, detail). The result is the last output line."""
    os.environ.update({var: str(blas_threads()) for var in BLAS_VARS})
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from entverify.jsonio import povm_from_dict

    wl = workloads.make(name, seed, tiny)
    tmp = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    detail = {"workload": name, "seed": seed, "trace": int(trace), "tiny": tiny,
              "env": environment(seed)}
    try:
        if trace:
            import traced

            metrics, extra = traced.run(wl, str(tmp), child_env(None, tmp), str(ROOT))
            records = extra["commands"]
            units = PER_LAYER_UNITS
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{name}-seed{seed}.json"
            trace_file.write_text(json.dumps({**detail, **extra}, indent=1))
            detail.update(trace_file=str(trace_file.relative_to(ROOT)),
                          shares=extra["shares"], absent=extra["absent"],
                          all_metrics=extra["all_metrics"])
        else:
            runner = Runner(tmp, program or PROGRAM, time.monotonic() + DEADLINE_S,
                            povm_from_dict)
            metrics, extra = run_end_to_end(wl, seconds, tmp, runner)
            records = runner.records
            units = END_TO_END_UNITS
            detail.update(extra)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = [r.get("outcome") for r in records]
    failed = sum(1 for o in outcomes if o == checks.FAIL)
    detail.update(commands=records, attempted=len(records), failed=failed,
                  failed_frac=failed / len(records),
                  miss_3sigma=outcomes.count(checks.MISS_3SIGMA))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long (whole passes, at least two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its running command and removes .bench_tmp
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "entverify" / "cli.py").is_file():
        print(f"error: no entverify source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
