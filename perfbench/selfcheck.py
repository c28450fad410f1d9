"""The benchmark's own test: ``python3 perfbench/selfcheck.py`` from a checkout.

Fails (exit 1) when a function the tracer wraps is absent from confsphere,
so that a refactor states which span moved instead of reporting zero; when
the independent references disagree with their closed forms; when span
self times do not add up; or when the benchmark, run outside a checkout,
does not refuse to run.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
from probe import REFERENCE_S  # noqa: E402
from run import slot_times, tail, worker_env  # noqa: E402
from tracer import LABELS, Tracer  # noqa: E402

failures = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def check_wrapped_functions_exist():
    tracer = Tracer().install()
    tracer.uninstall()
    expect(not tracer.missing, f"wrapped functions missing from confsphere: {tracer.missing}")


def check_references():
    expect(ref.close(ref.sharp_constant(1, 1), -math.pi**2, 1e-14), "S^1 first-order constant != -pi^2")
    expect(ref.close(ref.sharp_constant(1, 2), 9 * math.pi**4, 1e-14), "S^1 second-order constant != 9 pi^4")
    for n, m in ((1, 1), (1, 2), (3, 2), (3, 3), (5, 3), (5, 4)):
        expect(
            ref.close(ref.functional_at_one(n, m), ref.sharp_constant(n, m), 1e-13),
            f"I(1) != closed form at ({n}, {m})",
        )
    expect(ref.multiplier(1, 2, 1) == -ref.Fraction(15, 16), "p_4(1) on S^1 != -15/16")
    expect(ref.hessian_eigenvalue(1, 3, 2) == ref.Fraction(-315, 16), "S^1 m=3 degree-2 eigenvalue")
    expect([ref.is_stable(3, m) for m in (2, 3, 4)] == [True, True, False], "stable orders on S^3")


def check_self_time_accounting():
    import confsphere as cs

    tracer = Tracer().install()
    try:
        cs.functional_value(cs.constant_function(3, 1.0, 16), 2)
        cs.minimize(cs.constant_function(1, 1.0, 8), 1, cs.OptimizerConfig(degree=8, max_iter=2))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    roots = sum(end - start for _, parent, _, start, end, _ in tracer.spans if parent < 0)
    expect(
        math.isclose(sum(summary["self_s"].values()), roots, rel_tol=1e-9),
        "self times do not add up to the root spans' durations",
    )
    for label in summary["calls"]:
        expect(summary["self_s"][label] <= summary["total_s"][label] + 1e-12, f"{label}: self > total")
    expect(set(summary["calls"]) <= set(LABELS), "span with an unknown label")
    expect(summary["calls"].get("functional.neg_power_integral") == 1, "nested span not recorded")
    expect(summary["accepted"] <= summary["candidates"], "more accepted steps than candidates")


def check_tail():
    values = list(range(1, 101))
    expect(tail(values, 90) == (90, 10), "p90 of 1..100 is not 90 with 10 beyond")
    expect(tail(values, 100) == (100, 0), "p100 of 1..100")


def check_slot_times():
    # op i lies between probes i and i + 1; at twice the reference probe
    # time, an op's scaled time is half its wall time
    p = 2.0 * REFERENCE_S
    result = {
        "records": [(5.0, "ok"), (2.0, "ok"), (3.0, "ok"), (1.0, "ok"), (0.5, "miss:x")],
        "slots": [None, 0, 1, 0, 0],
        "probes": [p, p, p, p, REFERENCE_S, REFERENCE_S],
    }
    got = slot_times(result)
    want = {0: [1.0, 2.0 / 3.0], 1: [1.5]}
    expect(
        set(got) == set(want) and all(all(map(math.isclose, got[k], want[k])) for k in want),
        "slot times: scaling, first() ops or failed ops",
    )


def check_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zonal", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=worker_env(),
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0, "the benchmark ran without confsphere sources")
    expect('"metrics"' not in proc.stdout, "the benchmark printed a result without sources")


def main() -> int:
    for check in (
        check_wrapped_functions_exist,
        check_references,
        check_self_time_accounting,
        check_tail,
        check_slot_times,
        check_refuses_without_sources,
    ):
        check()
    for message in failures:
        print("FAIL: " + message)
    print("selfcheck: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
