"""One choqlab CLI call run in this process with trace wrappers installed.

    python3 perfbench/traced_cli.py SPANS_JSON OP_ID SUBCOMMAND [ARGS...]

Stdout and the exit code are the CLI's own.  The spans, including one for
the import of `choqlab.cli`, are written to SPANS_JSON when the call ends.
"""

import sys
import time

start = time.perf_counter()
import choqlab.cli  # noqa: E402  (timed as the cli.import span)

imported = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    tracer.add_span("cli.import", start, imported)
    with tracer.installed():
        code = choqlab.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
