"""Run the ``qmagic`` command line with spans recorded around its layers.

    python3 perfbench/traced_cli.py TRACE_OUT obstruction-check square.json --mode weak

The spans are written to TRACE_OUT when the command ends, also when it ends
in an exception, which then propagates as it would without tracing.
"""

import sys

from tracing import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.square = "cli"
    tracer.install()
    import qmagic.cli

    try:
        return qmagic.cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
