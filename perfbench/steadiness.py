"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/results/steadiness.json
    python3 perfbench/steadiness.py --workloads warm-cache --seeds 1-5
    python3 perfbench/steadiness.py --trace --seeds 1 --out perfbench/results/trace_shares.json

Each run is the command from BENCHMARK.json with its `run_seconds`, one after
another. For every workload and end-to-end metric the table gives the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to a third of the metric's bound. With `--trace` it runs the
traced mode instead and reports each layer's share of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]),
                               "--trace", str(int(trace))]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900,
                         check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write all runs and the summary here as JSON")
    args = parser.parse_args()

    report = {"run_seconds": bench["run_seconds"], "seeds": seeds(args.seeds), "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in report["seeds"]:
            detail, result = run_once(bench, name, seed, args.trace)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": values, "env": detail["env"],
                         **({"shares": detail["shares"], "all_metrics": detail["all_metrics"],
                             "absent": detail["absent"]} if args.trace else
                            {"cmd_tail_percentile": detail["cmd_tail_percentile"],
                             "cmd_samples": detail["cmd_samples"],
                             "miss_3sigma": detail["miss_3sigma"]})})
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        entry = {"runs": runs}
        if not args.trace and len(runs) >= 2:
            entry["summary"] = {m["name"]: {**spread([r["metrics"][m["name"]] for r in runs]),
                                            "bound": m["bound"]}
                                for m in bench["end_to_end"]}
        report["workloads"][name] = entry

    for name, entry in report["workloads"].items():
        for metric, s in entry.get("summary", {}).items():
            flag = "" if s["spread"] is not None and s["spread"] < s["bound"] / 3 else "  <-- wide"
            print(f"{name:11s} {metric:12s} median={s['median']:.4g} spread={s['spread']:.3f} "
                  f"(bound/3={s['bound'] / 3:.3f}){flag}")
        if args.trace:
            for run in entry["runs"]:
                pct = run["shares"]["timed"]["share_pct"]
                print(f"{name:11s} seed {run['seed']}: "
                      + " ".join(f"{k}={v:.1f}%" for k, v in pct.items()))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
