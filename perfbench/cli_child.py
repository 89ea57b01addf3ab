"""Run the journalrank CLI with the benchmark's tracer installed.

Usage: python3 perfbench/cli_child.py SPANS_JSON CLI_ARGS...

Used by the traced phase of the ``cli_files`` workload in place of
``python -m journalrank.cli``. Writes the spans recorded in this process to
SPANS_JSON and exits with the CLI's exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import journalrank.cli

    tracer.active = True
    try:
        return journalrank.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
