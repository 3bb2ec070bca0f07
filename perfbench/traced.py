"""Run the ``repro.experiments`` CLI with layer spans recorded.

Usage: ``python3 perfbench/traced.py SPANS.json <cli arguments...>``

Installs the span wrappers of :mod:`spans` and then hands the remaining
arguments to the CLI's ``main`` (e.g. ``serve-http --model ...``).  The
spans are written to ``SPANS.json`` when the process exits (``serve-http``
exits cleanly on SIGINT).
"""

from __future__ import annotations

import atexit
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    import spans

    recorder = spans.SpanRecorder()
    spans.install(recorder)
    atexit.register(recorder.dump, out)
    from repro.experiments.__main__ import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
