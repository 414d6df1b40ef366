"""Run one `stochex` invocation in a fresh interpreter, traced or timed.

    python3 bench/clichild.py trace STATS_FILE ARGV...
        installs the layer spans, runs stochex.cli.main(ARGV) with the real
        stdout and exit code, and writes the span totals to STATS_FILE.
    python3 bench/clichild.py time ARGV...
        imports stochex.cli, then prints the milliseconds one in-process
        stochex.cli.main(ARGV) takes; the command's own output is discarded.

The benchmark starts it with src/ on PYTHONPATH.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    from stochex import cli

    if mode == "time":
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                cli.main(rest)
            except Exception:  # the known input-error defects raise; time them anyway
                pass
            elapsed = time.perf_counter() - t0
        print(f"{elapsed * 1000.0!r}")
        return 0

    import spans

    stats_file, argv = rest[0], rest[1:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_file, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
