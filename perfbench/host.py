"""Run the repro CLI in a child process with the benchmark's probes.

Usage::

    python perfbench/host.py [--spans FILE] [--slowdown NAME:FACTOR] -- <repro args>

Without options this is ``python -m repro <repro args>``.  With
``--spans`` it times ``import repro.cli`` and ``repro.cli.main``,
installs every layer probe and a :mod:`repro.obs` tracer, and writes
the recorded spans to FILE when the command returns (for the daemon:
after SIGTERM).  ``--slowdown`` injects the self-test's slowdown into
one layer of the child.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write recorded spans to this JSON file")
    parser.add_argument("--slowdown", help="slow one layer: NAME[:FACTOR]")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="repro CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import_start = time.perf_counter()
    import repro.cli
    import_end = time.perf_counter()

    from probes import TRACK, install, parse_slowdown
    from repro.obs.trace import Tracer, set_active_tracer

    tracer = Tracer() if args.spans else None
    install(trace=tracer is not None, slowdown=parse_slowdown(args.slowdown))
    if tracer is not None:
        ids = {"pid": os.getpid(), "tid": threading.get_ident()}
        tracer.wall_span("cli.import", TRACK, import_start, import_end, **ids)
        set_active_tracer(tracer)
    main_start = time.perf_counter()
    try:
        return repro.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.wall_span("cli.main", TRACK, main_start, time.perf_counter(), **ids)
            set_active_tracer(None)
            with open(args.spans, "w") as handle:
                json.dump({"pid": os.getpid(), "spans": tracer.span_dicts()}, handle)


if __name__ == "__main__":
    sys.exit(main())
