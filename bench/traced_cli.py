"""Run one archlab command with span tracing and write its spans to a file.

Usage: python3 bench/traced_cli.py SPANS.json COMMAND [ARGS...]
(the source tree's ``src`` must be on PYTHONPATH).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from archlab import cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
