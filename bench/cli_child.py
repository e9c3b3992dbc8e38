"""Traced ``sepfx`` command: ``python3 bench/cli_child.py RECORD ARGV...``.

Installs the layer wrappers, calls ``sepfx.cli.main(ARGV)`` and writes the
op's spans and counters to RECORD as JSON.  The exit code is main's.
"""

from __future__ import annotations

import json
import sys

from layers import Tracer


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import sepfx.cli

    tracer.reset()
    code = sepfx.cli.main(argv)
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
