"""Traced CLI child for the cli-cold workload's traced run.

Usage: python3 bench/child.py SPANS_FILE <conewalk CLI arguments>

Runs ``conewalk.cli.main`` with the tracer installed and writes the spans to
SPANS_FILE; exits with the CLI's exit code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import conewalk.cli

    tracer = Tracer()
    tracer.install()
    tracer.recording = True
    idx = tracer.open(f"cli.{argv[0]}")
    try:
        return conewalk.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.recording = False
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
