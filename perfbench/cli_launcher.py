"""Traced entry point for one CLI subcommand.

Usage: ``python perfbench/cli_launcher.py SUMMARY.json <subcommand> [args]``.
Installs the tracer's wrappers, calls ``confsphere.cli.main`` and exits with
its code.  On exit it writes the span summary to SUMMARY.json and the spans
beside it, as ``SUMMARY.spans.jsonl``.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    import confsphere.cli

    tracer.op_id = 0
    try:
        return confsphere.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.write(summary_path[: -len(".json")] + ".spans.jsonl")


if __name__ == "__main__":
    sys.exit(main())
