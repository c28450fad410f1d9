"""One benchmark process: import confsphere, warm up, then run ops.

Started by ``run.py`` from a fresh interpreter, so that the time to its
``ready`` line is the set-up time.  The timed loop is a closed loop with one
client: each op starts when the previous one and its check have ended.  The
last line of output is ``RESULT <json>``.

Untraced, every op is bracketed by probes of a fixed kernel (probe.py), so
that run.py can scale its time to the reference host speed.  With
``--trace`` every op runs twice, untraced and traced, which gives the
per-layer numbers and the tracing overhead on identical work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter


def _run_op(op):
    """(seconds, status): status is ok, miss:<why>, wrong:<why> or raised:<Type>."""
    from workloads import Miss, Wrong

    start = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the program's failure is a measured outcome
        return perf_counter() - start, f"raised:{type(exc).__name__}"
    seconds = perf_counter() - start
    try:
        op.check(result)
    except Miss as exc:
        return seconds, f"miss:{exc}"
    except Wrong as exc:
        return seconds, f"wrong:{exc}"
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return seconds, f"wrong:unreadable output ({type(exc).__name__}: {exc})"
    return seconds, "ok"


def _loop(workload, seconds: float, step):
    """Ops in whole rounds until ``seconds`` have passed; ``step(i, op)`` runs one.

    Returns the ops and their slots: an op's index in its round, or None for
    the ops of ``first()``, which run once per run.
    """
    ops = list(workload.first())
    slots = [None] * len(ops)
    start = perf_counter()
    k = 0
    i = 0
    while True:
        while i < len(ops):
            step(i, ops[i])
            i += 1
        if perf_counter() - start >= seconds:
            return ops, slots
        batch = workload.round(k)
        ops += batch
        slots += range(len(batch))
        k += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import confsphere

    src = os.path.join(os.path.realpath(args.root), "src", "")
    if not os.path.realpath(confsphere.__file__).startswith(src):
        sys.stderr.write(f"confsphere imported from {confsphere.__file__}, not from {src}\n")
        return 2

    from workloads import WORKLOADS, CliCold

    cls = WORKLOADS[args.workload]
    if cls is CliCold:
        out = os.path.join(args.out, "cli")
        os.makedirs(out, exist_ok=True)
        workload = cls(args.seed, args.root, out)
    else:
        workload = cls(args.seed)
    for op in workload.warmup():
        seconds, status = _run_op(op)
        if status.startswith(("wrong:", "raised:")):
            sys.stderr.write(f"warm-up op {op.label} ended {status}\n")
            return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from probe import probe

    records = []
    probes = []
    if args.trace:
        traced = _Traced(workload, args)
        ops, slots = _loop(workload, args.seconds, traced.step)
        records = traced.plain
    else:
        def step(i, op):
            probes.append(probe())
            records.append(_run_op(op))

        ops, slots = _loop(workload, args.seconds, step)
        probes.append(probe())
    usage = resource.RUSAGE_CHILDREN if cls is CliCold else resource.RUSAGE_SELF
    result = {
        "labels": [op.label for op in ops],
        "records": records,
        "slots": slots,
        "probes": probes,
        "tail_percentile": workload.tail_percentile,
        "peak_rss_kib": resource.getrusage(usage).ru_maxrss,
        "environment": _environment(),
    }
    if args.trace:
        result.update(traced.result())
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class _Traced:
    """Runs every op twice, untraced and traced, alternating which goes first.

    The alternation cancels the advantage of running second on the ratio of
    traced to untraced time.  CLI ops are traced through the launcher.
    """

    def __init__(self, workload, args):
        from tracer import Tracer

        self.workload = workload
        self.args = args
        self.tracer = Tracer()
        self.plain = []
        self.traced = []

    def step(self, i, op):
        if i % 2:
            self._traced(i, op)
            self.plain.append(_run_op(op))
        else:
            self.plain.append(_run_op(op))
            self._traced(i, op)

    def _traced(self, i, op):
        self.tracer.install()
        if hasattr(self.workload, "launcher"):
            self.workload.launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launcher.py")
        self.tracer.op_id = i
        try:
            self.traced.append(_run_op(op))
        finally:
            self.tracer.uninstall()
            if hasattr(self.workload, "launcher"):
                self.workload.launcher = None

    def result(self) -> dict:
        from tracer import merge

        summaries = [self.tracer.summary()]
        # a subcommand killed on its timeout leaves no summary; its op failed
        for path in getattr(self.workload, "summaries", []):
            if os.path.exists(path):
                with open(path) as fh:
                    summaries.append(json.load(fh))
        self.tracer.write(os.path.join(self.args.out, f"spans-{self.args.workload}-{self.args.seed}.jsonl"))
        return {"traced_records": self.traced, "trace": merge(summaries)}


if __name__ == "__main__":
    sys.exit(main())
