"""confsphere benchmark: one workload, measured end to end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload circle --seed 1 --seconds 30 --trace 0

It builds nothing: the package is imported from ``src/`` of the checkout.
Set-up is measured on fresh interpreters, then one worker process runs the
workload's ops in a closed loop with one client, checks each op against an
independent reference and reports.  Every process runs on one CPU, and
op and set-up times are scaled to a reference host speed (probe.py).  ``--trace 1`` runs the traced variant
and prints the per-layer metrics instead.  The last line of output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

See perfbench/README.md for the metrics, the workloads and the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("circle", "zonal", "cli-cold")

#: BLAS/OpenMP threads for every process the benchmark starts
THREADS = 1
#: fresh interpreters timed through import and warm-up; the median is setup_s
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
#: every run ends well inside the 180 s a run may take
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, extra, started: float):
    """Start worker.py; return (process, seconds until its ``ready`` line)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--out", str(OUT),
        *extra,
    ]
    t0 = perf_counter()
    # a session of its own, so that a kill also ends the CLI processes it started
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=str(ROOT), start_new_session=True
    )
    if not select.select([proc.stdout], [], [], _remaining(started))[0]:
        _kill(proc)
        raise WorkerFailed("worker passed the run deadline before getting ready")
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, started)
        raise WorkerFailed(f"worker did not get ready: {line.strip()!r}")
    return proc, ready


def _remaining(started: float) -> float:
    return max(DEADLINE_S - (perf_counter() - started), 1.0)


def _kill(proc) -> None:
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def finish(proc, started: float) -> str:
    """Wait for the worker within the run's deadline; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=_remaining(started))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise WorkerFailed("worker passed the run deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return out


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU.

    The probe then sees the core the ops run on, also for the CLI processes
    of cli-cold.  Returns the CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_worker(args, started: float):
    """(set-up times, unscaled set-up times, result).

    Set-up is sampled on set-up-only workers, each bracketed by probes, and
    scaled like an op.  Then the measured worker runs.
    """
    from probe import probe, scaled

    setups, probes = [], [probe()]
    for _ in range(SETUP_SAMPLES if not args.trace else 0):
        proc, ready = start_worker(args, ["--setup-only"], started)
        finish(proc, started)
        setups.append(ready)
        probes.append(probe())
    extra = ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
    proc, _ = start_worker(args, extra, started)
    lines = finish(proc, started).splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        raise WorkerFailed("worker printed no result")
    return scaled(setups, probes), setups, json.loads(lines[-1][len("RESULT "):])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values, percentile: float):
    """Nearest-rank percentile of ``values``, with the count of samples beyond it."""
    ordered = sorted(values)
    rank = max(int(-(-percentile * len(ordered) // 100)), 1)
    return ordered[rank - 1], len(ordered) - rank


def slot_times(result: dict) -> dict:
    """Scaled wall times of the completed round ops, by slot.

    Op k of every round does the same work, and ``first()`` ops (slot None)
    run once, so they are left out.
    """
    from probe import scaled

    times = scaled([t for t, _ in result["records"]], result["probes"])
    by_slot = defaultdict(list)
    for t, (_, status), slot in zip(times, result["records"], result["slots"]):
        if status == "ok" and slot is not None:
            by_slot[slot].append(t)
    return by_slot


def end_to_end(result: dict, setups, unscaled_setups) -> dict:
    by_slot = slot_times(result)
    if not by_slot:
        raise WorkerFailed("no op of a round completed")
    missing = {slot for slot in result["slots"] if slot is not None} - set(by_slot)
    if missing:
        print(f"slots with no completed op, left out: {sorted(missing)}")
    medians = [statistics.median(v) for v in by_slot.values()]
    value, beyond = tail([t for v in by_slot.values() for t in v], result["tail_percentile"])
    rounds = sum(slot == 0 for slot in result["slots"])
    ok = [t for t, status in result["records"] if status == "ok"]
    print(f"{rounds} rounds of {len(medians)} ops; op_s.tail is p{result['tail_percentile']}, {beyond} beyond it")
    print(
        f"unscaled: op p50 {statistics.median(ok):.6g} s over {len(ok)} completed ops; "
        f"set-up median {statistics.median(unscaled_setups):.6g} s; "
        f"probe {min(result['probes']):.6g} to {max(result['probes']):.6g} s"
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(medians) / sum(medians), "1/s"),
        "op_s.p50": (statistics.median(medians), "s"),
        "op_s.tail": (value, "s"),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024.0, "MB"),
    }


def import_times() -> dict:
    """Median over fresh interpreters of ``-X importtime`` for ``import confsphere``.

    Each figure sums the self time of every module of one package, so time
    spent importing other packages on its behalf is not counted twice.
    """
    samples = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import confsphere"],
            capture_output=True, text=True, env=worker_env(), cwd=str(ROOT), check=True,
        )
        self_us = Counter()
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if m:
                self_us[m[2].split(".")[0]] += int(m[1])
        for package, name in (("numpy", "numpy"), ("scipy", "scipy"), ("confsphere", "confsphere_self")):
            samples[f"import.{name}_s"].append(self_us[package] / 1e6)
    return {k: (statistics.median(v), "s") for k, v in samples.items()}


def per_layer(result: dict, workload: str):
    """(report, metrics): every per-layer figure, and the subset the JSON carries.

    The JSON carries only figures that are defined on every workload and are
    never a time that reads zero by construction: call counts, self time as
    a share of the traced op wall time, counters, import times and the
    tracing overhead.  The report adds total and self seconds, the ratios
    and the per-subcommand wall times.
    """
    from tracer import DISTINCT, LABELS

    trace = result["trace"]
    traced_wall = sum(t for t, _ in result["traced_records"])
    report, metrics = {}, {}
    missing = set(trace["missing"])
    if missing:
        print("missing functions (no span, not zero): " + ", ".join(sorted(missing)))
    for label in LABELS:
        if label in missing:
            continue
        self_s = trace["self_s"].get(label, 0.0)
        metrics[f"{label}.calls"] = (trace["calls"].get(label, 0), "count")
        metrics[f"{label}.self_share"] = (100.0 * self_s / traced_wall, "%")
        report[f"{label}.total_s"] = (trace["total_s"].get(label, 0.0), "s")
        report[f"{label}.self_s"] = (self_s, "s")
    for label in DISTINCT:
        if label in missing:
            continue
        metrics[f"{label}.distinct"] = (trace["distinct"][label], "count")
        calls = trace["calls"].get(label, 0)
        if calls:
            report[f"{label}.distinct_ratio"] = (trace["distinct"][label] / calls, "ratio")
    metrics["spectral.transform.gflop_computed"] = (trace["flop"] / 1e9, "GFLOP")
    metrics["spectral.transform.gbyte_computed"] = (trace["byte"] / 1e9, "GB")
    metrics["extremize.accepted"] = (trace["accepted"], "count")
    metrics["extremize.candidates"] = (trace["candidates"], "count")
    if trace["candidates"]:
        report["extremize.accept_ratio"] = (trace["accepted"] / trace["candidates"], "ratio")
    for reason, count in sorted(trace["terminations"].items()):
        report[f"extremize.term.{reason}"] = (count, "count")
    metrics["mobius.find_center.converged"] = (trace["centers_converged"], "count")
    centers = trace["calls"].get("mobius.find_center", 0)
    if centers:
        report["mobius.find_center.converged_ratio"] = (trace["centers_converged"] / centers, "ratio")
        report["mobius.find_center.barycenter_per_call"] = (
            trace["barycenter_in_find_center"] / centers, "count",
        )
    report["functional.nonpositive_raised"] = (trace["nonpositive_raised"], "count")
    metrics.update(import_times())
    if workload == "cli-cold":
        walls = defaultdict(list)
        for label, (seconds, _) in zip(result["labels"], result["records"]):
            walls[label.split()[1]].append(seconds)
        for sub, values in sorted(walls.items()):
            report[f"cli.{sub}.wall_s"] = (statistics.median(values), "s")
    untraced_wall = sum(t for t, _ in result["records"])
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    report.update(metrics)
    return report, metrics


def run_record(args, result: dict) -> dict:
    record = dict(result["environment"])
    record.update(
        {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "python": sys.version.split()[0],
            "blas_threads": THREADS,
            "pinned_cpu": args.cpu,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "bandwidth": "not claimed: no array reaches 4x the last-level cache",
        }
    )
    return record


def _read(path: str):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    m = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    return m[1].strip() if m else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="confsphere benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "confsphere" / "__init__.py").is_file():
        sys.stderr.write(f"no confsphere sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    OUT.mkdir(exist_ok=True)
    args.cpu = pin_to_one_cpu()
    try:
        setups, unscaled_setups, result = run_worker(args, started)
        if args.trace:
            report, metrics = per_layer(result, args.workload)
        else:
            report = metrics = end_to_end(result, setups, unscaled_setups)
    except (WorkerFailed, subprocess.CalledProcessError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    records = result["records"] + result.get("traced_records", [])
    failed = sum(status != "ok" for _, status in records)
    wrong = any(status.startswith("wrong:") for _, status in records)
    failures = Counter(
        f"{label}: {status}" for label, (_, status) in zip(result["labels"], result["records"]) if status != "ok"
    )
    print("run record: " + json.dumps(run_record(args, result), sort_keys=True))
    print(f"ops attempted {len(records)}, failed {failed} (failed_frac {failed / len(records):.4f})")
    for failure, count in sorted(failures.items()):
        print(f"  {count} x {failure}")
    for name, (value, unit) in sorted(report.items()) if args.trace else report.items():
        print(f"{name:<48} {value:.6g} {unit}")
    record = {"run_record": run_record(args, result), "failures": failures, "metrics": report}
    with open(OUT / f"{'layers' if args.trace else 'metrics'}-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
