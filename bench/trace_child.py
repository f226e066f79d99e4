"""Run one ``lacunary`` command with its layers traced, for the traced cli_cold run.

Usage: python3 trace_child.py SPANS.json ARGS...  (PYTHONPATH must reach src)

Runs ``lacunary.cli.main(ARGS)`` exactly as ``python -m lacunary.cli ARGS``
would, then writes the recorded spans to SPANS.json and exits with the
command's status.
"""

import json
import sys

import lacunary.cli
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = lacunary.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
