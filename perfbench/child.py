"""One measured process of the benchmark; started by run.py, not by hand.

    python3 -E -s perfbench/child.py REPORT_FD SPAWN_NS MODE PARAMS_JSON TRACE

MODE is ``setup`` (import and build the CLI parser, then exit), ``cli``
(PARAMS_JSON is the argv of ``cubicount``) or ``rings_triples``
(PARAMS_JSON holds the keyword arguments of ``rings_triples.run``).
The program's output goes to stdout untouched; a JSON report (set-up time,
run time and, with TRACE=1, the per-layer metrics) goes to REPORT_FD.
SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before the spawn,
which is system-wide on Linux, so set-up time is counted from the spawn.
"""

import json
import os
import sys
import time


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv):
    fd, spawn_ns, mode, params, trace = int(argv[0]), int(argv[1]), argv[2], json.loads(argv[3]), argv[4] == "1"
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import cubicount.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print("cubicount was imported from %s, not from %s" % (cli.__file__, src), file=sys.stderr)
        return 2
    cli.build_parser()
    report = {"setup_ns": _now_ns() - spawn_ns}
    rc = 0
    if mode != "setup":
        tracer = None
        if mode == "rings_triples":
            import rings_triples
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter_ns()
        if mode == "cli":
            rc = cli.main(params)
        else:
            rc = rings_triples.run(**params)
        sys.stdout.flush()
        report["main_ns"] = time.perf_counter_ns() - t0
        if tracer is not None:
            report["layers"] = tracer.metrics()
            report["wrapped_ns"] = tracer.top_ns
            report["absent"] = tracer.absent
    with os.fdopen(fd, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
