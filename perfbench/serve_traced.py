"""Traced server launcher: ``serve_traced.py SPANS_OUT serve --store DIR ...``.

Installs the layer wrappers in this process, then hands the remaining
arguments to the program's own CLI, so the service starts exactly as
``repro-consensus serve`` starts it.  When the server shuts down (SIGINT)
every recorded span is written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys

import layers
from spans import SpanRecorder


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    layers.install(recorder)
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as out:
            json.dump(recorder.dump(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
