"""Repeat the benchmark over seeds and summarise each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/collect.py --workloads circle,zonal --seeds 1-10 --sets 2 \
        --held-out 1009 --out perfbench/out/baseline.json

For each set, workload and seed it runs ``run.py --trace 0`` once, one run
at a time, then reports per metric the median, the quartiles and the spread
(q3 - q1) / median, as ``statistics.quantiles(values, n=4)`` gives them.
A later set is compared with the first: ``worse_by`` is the relative move
of its median in the metric's worse direction.  The held-out seed gets one
plain and one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["failures"] = [line.strip() for line in lines if line.startswith("  ")]
    for line in lines:
        if line.startswith("run record: "):
            result["run_record"] = json.loads(line[len("run record: "):])
    return result


def summarise(runs, bench: dict) -> dict:
    metrics = {}
    for spec in bench["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[spec["name"]] = {
            "unit": spec["unit"], "values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": spec["bound"],
        }
    failures = Counter(f for r in runs for f in r["failures"])
    return {
        "metrics": metrics,
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "failing_ops": dict(failures),
        "run_record": runs[0]["run_record"],
    }


def worse_by(first: dict, later: dict, bench: dict) -> dict:
    out = {}
    for spec in bench["end_to_end"]:
        a, b = first[spec["name"]]["median"], later[spec["name"]]["median"]
        move = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        out[spec["name"]] = {"worse_by": move, "within_bound": move <= spec["bound"]}
    return out


def seed_range(text: str):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    record = {"seeds": args.seeds, "seconds": args.seconds, "sets": []}
    for k in range(args.sets):
        summary = {}
        for workload in workloads:
            summary[workload] = summarise([run(workload, s, args.seconds) for s in args.seeds], bench)
            if k:
                summary[workload]["against_first_set"] = worse_by(
                    record["sets"][0][workload]["metrics"], summary[workload]["metrics"], bench
                )
            for name, m in summary[workload]["metrics"].items():
                print(f"set {k + 1} {workload:<15} {name:<12} median {m['median']:.6g} "
                      f"spread {m['spread']:.3f} (bound {m['bound']})", flush=True)
        record["sets"].append(summary)
    if args.held_out is not None:
        record["held_out_seed"] = args.held_out
        record["held_out"] = {w: run(w, args.held_out, args.seconds) for w in workloads}
        record["traced"] = {w: run(w, args.held_out, args.seconds, trace=1) for w in workloads}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
