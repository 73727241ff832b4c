"""Run one adft1024 CLI command in this process with layer spans recorded.

Usage: python3 perfbench/trace_child.py SPAN_FILE [CLI ARGS...]

The CLI module is imported, the layers are wrapped (layers.install), and
``adft1024.cli.main`` runs inside a ``cli.main`` span.  The spans are written
to SPAN_FILE as JSON lines when the command ends; the exit code is the CLI's.
Import time falls outside the span, so the parent's wall time minus the
span is the CLI start-up cost.
"""

import sys

import layers
import tracer as tr


def main() -> int:
    span_file, args = sys.argv[1], sys.argv[2:]
    from adft1024 import cli

    tracer = tr.Tracer()
    layers.install(tracer)
    idx = tracer.begin("cli.main")
    try:
        return cli.main(args)
    finally:
        tracer.end(idx)
        tr.dump(tracer.spans, span_file)


if __name__ == "__main__":
    sys.exit(main())
