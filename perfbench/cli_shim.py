"""`python -m dualdeg.cli` with timers around it, for the traced cli runs.

Usage: python perfbench/cli_shim.py <dualdeg arguments>

The CLI's output goes to stdout unchanged; the last line on stderr is a JSON
object with the import time (networkx alone and in all), the self time of
cli.main, the time in cli.emit and the bytes written.
"""

import io
import json
import sys
import time

t0 = time.perf_counter()
import networkx  # noqa: E402,F401  (timed on its own: most of `import dualdeg`)

t1 = time.perf_counter()
from dualdeg import cli  # noqa: E402

t2 = time.perf_counter()


def main(argv):
    emit_s = 0.0
    emit = cli.emit

    def timed_emit(*args, **kwargs):
        nonlocal emit_s
        start = time.perf_counter()
        try:
            return emit(*args, **kwargs)
        finally:
            emit_s += time.perf_counter() - start

    cli.emit = timed_emit
    buffer = io.StringIO()
    stdout, sys.stdout = sys.stdout, buffer
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout = stdout
    text = buffer.getvalue()
    sys.stdout.write(text)
    stats = {
        "import_s": t2 - t0,
        "import.networkx_s": t1 - t0,
        "main.self_s": main_s - emit_s,
        "emit.self_s": emit_s,
        "output_bytes": len(text.encode()),
    }
    print(json.dumps(stats), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
