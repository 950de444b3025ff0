"""Run ``coorbit_lab.cli`` with the tracer installed.

    python perfbench/traced_cli.py --trace-out PREFIX <coorbit-lab arguments...>

Writes PREFIX.summary.json (per-span calls, total and self time) and
PREFIX.spans.npz (every span), then exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: traced_cli.py --trace-out PREFIX <coorbit-lab arguments...>", file=sys.stderr)
        return 3
    prefix, cli_args = argv[1], argv[2:]
    from coorbit_lab import cli

    tracer = Tracer()
    try:
        with tracer.installed():
            return cli.main(cli_args)
    finally:
        with open(prefix + ".summary.json", "w") as fh:
            json.dump(tracer.summary(), fh)
        tracer.dump(prefix + ".spans.npz")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
