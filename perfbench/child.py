"""Run one orlov-kit command in this fresh interpreter and report on it.

    python3 child.py SRC TRACE SPANS COMMAND_ID DESCRIPTOR -- ARGV...

SRC is the checkout's ``src`` directory, TRACE is 0 or 1, SPANS is the file
the spans go to when tracing (or "-"), COMMAND_ID tags those spans, and
DESCRIPTOR is the algebra file loaded during set-up (or "-").  With an empty
ARGV the child only sets up, which is how the benchmark takes extra set-up
samples.

The last stdout line is one JSON object: the perf_counter readings at
interpreter start and after set-up, the seconds ``cli.main`` took, its exit
code and captured output, and with tracing the per-layer summary.
perf_counter is CLOCK_MONOTONIC on Linux, so the parent can subtract its own
spawn time from ``t_start``.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, trace, spans_path, command_id, descriptor, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py SRC TRACE SPANS COMMAND_ID DESCRIPTOR -- ARGV...", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import orlov_kit
    from orlov_kit import cli
    from orlov_kit.nakayama import load_algebra

    if os.path.dirname(os.path.abspath(orlov_kit.__file__)) != os.path.join(os.path.abspath(src), "orlov_kit"):
        print(f"imported orlov_kit from {orlov_kit.__file__}, not from {src}", file=sys.stderr)
        return 2
    if descriptor != "-":
        load_algebra(descriptor)
    t_loaded = time.perf_counter()
    report = {"t_start": T_START, "t_loaded": t_loaded}
    if not argv:
        print(json.dumps(report))
        return 0

    tracer = None
    if trace == "1":
        from spans import Tracer  # the script's own directory is on sys.path

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        t1 = time.perf_counter()
    report.update(rc=rc, wall_s=t1 - t0, stdout=out.getvalue())
    if tracer is not None:
        report["layers"] = tracer.summary()
        if spans_path != "-":
            tracer.write(spans_path, int(command_id))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
