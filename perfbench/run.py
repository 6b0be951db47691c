"""The cubicount benchmark.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # every workload
    python3 perfbench/run.py --record    # re-take perfbench/reference.json

Every measured run is a fresh child process (perfbench/child.py) started
with ``python3 -E -s`` and without CUBICOUNT_BUDGET, so neither PYTHON*
variables nor the enumeration budget of the caller change the work done.
Each run is checked: exit code 0 and a sha256 of its stdout equal to the
digest recorded in reference.json for that workload and input variant.

--trace 0 prints the end-to-end metrics, each the median over the runs that
passed: wall_s (spawn to exit), cpu_s and peak_rss_mb (from the child's
own rusage, via wait4), setup_s (spawn until cubicount is imported and the
CLI parser is built, reported by the child).  --trace 1 runs the workload
once with per-layer spans (perfbench/tracer.py) and then untraced, and
prints the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
from tracer import metric_units  # noqa: E402

# A seed selects input variant seed % (number of variants); each variant has
# a recorded output digest.  Variant 0 is the workload as specified.
# CLI workloads: cubicount argv, the |delta| bound of variant 0, the bound
# offsets that define the variants, and the bound of the smoke size.  The
# offsets keep the work within ~2% of variant 0: every scholz variant
# (197..204) includes the 0.7 s check at |D| = 197 and none the 0.6 s one at
# 205; the bridge_sweep variants (297..302) lie between the 0.1 s steps at
# 296 and 303.
CLI_WORKLOADS = {
    "cubic_table": (["table"], 2000, (0, -20, 20, -10, 10, -15, 15, -5), 100),
    "quad_scholz": (["verify", "scholz"], 200, (0, -3, 4, -2, 3, -1, 1, 2), 30),
    "bridge_sweep": (["verify", "on", "rhs", "lhs", "fields-pic", "prop6"], 300, (0, -3, 2, -2, 1, -1), 20),
}
# rings_triples: |disc| bounds of the criterion-7 and criterion-4 paths.
RINGS_TRIPLES = {"triples_disc": 6000, "subring_disc": 600}
RINGS_TRIPLES_VARIANTS = 8
RINGS_TRIPLES_SMOKE = {"triples_disc": 800, "subring_disc": 100}
WORKLOADS = tuple(CLI_WORKLOADS) + ("rings_triples",)

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_SAMPLES = 5  # set-up-only children per run, on top of each workload child's own
HARD_LIMIT_S = 165  # every child is killed by then, so a run ends within 180 s
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "CUBICOUNT_BUDGET"}


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def variants(workload):
    if workload == "rings_triples":
        return RINGS_TRIPLES_VARIANTS
    return len(CLI_WORKLOADS[workload][2])


def workload_inputs(workload, variant):
    """(mode, params) for the child; variant is 0..variants(workload)-1 or 'smoke'."""
    if workload == "rings_triples":
        if variant == "smoke":
            return "rings_triples", dict(RINGS_TRIPLES_SMOKE, variant=0)
        return "rings_triples", dict(RINGS_TRIPLES, variant=variant)
    argv, bound, offsets, smoke = CLI_WORKLOADS[workload]
    return "cli", argv + ["--max", str(smoke if variant == "smoke" else bound + offsets[variant])]


class Child:
    """One finished child process and its checks."""

    def __init__(self, rc, wall_ns, cpu_s, rss_kib, digest, out_bytes, report, err, timed_out):
        self.rc = rc
        self.wall_s = wall_ns / 1e9
        self.cpu_s = cpu_s
        self.rss_mib = rss_kib / 1024
        self.digest = digest
        self.out_bytes = out_bytes
        self.report = report
        self.err = err
        self.timed_out = timed_out

    def ok(self, expected):
        return (
            not self.timed_out and self.rc == 0 and self.report is not None
            and (expected is None or self.digest == expected)
        )


def spawn(mode, params, trace, deadline_ns):
    """Run one child to completion (killed at deadline_ns) and account for it
    alone: wait4 returns this child's rusage, not the sum over children."""
    rfd, wfd = os.pipe()
    spawn_ns = _now_ns()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-E", "-s", CHILD, str(wfd), str(spawn_ns), mode, json.dumps(params),
             "1" if trace else "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(wfd,), env=CHILD_ENV,
        )
    finally:
        os.close(wfd)
    digest = hashlib.sha256()
    sizes = {"out": 0}
    chunks = {"err": [], "report": []}

    def pump_out():
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            sizes["out"] += len(chunk)

    def pump(name, fh):
        chunks[name].append(fh.read())

    report_fh = os.fdopen(rfd, "rb")
    pumps = [
        threading.Thread(target=pump_out),
        threading.Thread(target=pump, args=("err", proc.stderr)),
        threading.Thread(target=pump, args=("report", report_fh)),
    ]
    for t in pumps:
        t.start()
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(0.0, (deadline_ns - _now_ns()) / 1e9), kill)
    timer.start()
    reaped = False
    try:
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        end_ns = _now_ns()
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
        for t in pumps:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
        report_fh.close()
    raw = b"".join(chunks["report"])
    try:
        report = json.loads(raw) if raw else None
    except ValueError:
        report = None
    return Child(
        proc.returncode, end_ns - spawn_ns, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
        digest.hexdigest(), sizes["out"], report, b"".join(chunks["err"])[-2000:].decode(errors="replace"),
        state["timed_out"],
    )


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _setup_child(deadline_ns):
    c = spawn("setup", {}, False, deadline_ns)
    if not c.ok(None):
        sys.stderr.write(c.err)
        raise SystemExit("set-up child failed (exit %s): cubicount does not import" % c.rc)
    return c


def _stats(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def measure(workload, seed, seconds, trace, smoke=False, expected=None, log=print):
    """Run one benchmark run and return its result object (the last line)."""
    variant = "smoke" if smoke else seed % variants(workload)
    mode, params = workload_inputs(workload, variant)
    if expected is None:
        expected = load_reference()[workload][str(variant)]
    start = _now_ns()
    deadline = start + HARD_LIMIT_S * 10 ** 9
    load_before = os.getloadavg()
    _setup_child(deadline)  # warm-up, discarded: compiles .pyc and warms the page cache
    setups = [_setup_child(deadline).report["setup_ns"] / 1e9 for _ in range(SETUP_SAMPLES)]
    traced = spawn(mode, params, True, deadline) if trace else None
    runs = []
    while True:
        c = spawn(mode, params, False, deadline)
        runs.append(c)
        elapsed = (_now_ns() - start) / 1e9
        if c.timed_out or (len(runs) >= (1 if trace else 2) and elapsed + c.wall_s > seconds):
            break
    children = runs + ([traced] if traced else [])
    failed = [c for c in children if not c.ok(expected)]
    good = [c for c in runs if c.ok(expected)] or runs
    setups += [c.report["setup_ns"] / 1e9 for c in good if c.report]

    log("workload %s  seed %d  variant %s  %s %s" % (workload, seed, variant, mode, json.dumps(params)))
    log("env: python %s  nproc %d  loadavg %s -> %s" % (
        sys.version.split()[0], len(os.sched_getaffinity(0)),
        " ".join("%.2f" % x for x in load_before), " ".join("%.2f" % x for x in os.getloadavg())))
    for c in failed:
        log("FAILED run: exit %s%s, digest %s (want %s)\n%s" % (
            c.rc, " (timeout)" if c.timed_out else "", c.digest, expected, c.err.strip()))
    samples = {
        "wall_s": [c.wall_s for c in good],
        "cpu_s": [c.cpu_s for c in good],
        "setup_s": setups,
        "peak_rss_mb": [c.rss_mib for c in good],
    }
    for name, unit in END_TO_END:
        med, q1, q3 = _stats(samples[name])
        log("%-12s %.6f %s  (q1 %.6f  q3 %.6f  n=%d)" % (name, med, unit, q1, q3, len(samples[name])))
    log("%-12s %.4f  (%d failed / %d attempted)" % (
        "fail_frac", len(failed) / len(children), len(failed), len(children)))

    if trace:
        rep = traced.report or {}
        layers = dict(rep.get("layers", {}))
        layers["cli.self_s"] = (rep.get("main_ns", 0) - rep.get("wrapped_ns", 0)) / 1e9
        layers["cli.out_bytes"] = traced.out_bytes
        layers["trace_overhead_s"] = traced.wall_s - _stats(samples["wall_s"])[0]
        if rep.get("absent"):
            log("absent layers (read as 0): %s" % ", ".join(rep["absent"]))
        log("traced main %.6f s, wrapped %.6f s" % (rep.get("main_ns", 0) / 1e9, rep.get("wrapped_ns", 0) / 1e9))
        units = metric_units()
        for name, unit in units:
            log("%-44s %s %s" % (name, layers.get(name, 0), unit))
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in units}
    else:
        metrics = {name: {"value": _stats(samples[name])[0], "unit": unit} for name, unit in END_TO_END}
    return {"correct": not failed, "attempted": len(children), "failed": len(failed), "metrics": metrics}


def record():
    """Re-take the reference digest of every workload variant (and of the
    smoke sizes) from the code in src/, and write reference.json."""
    ref = {}
    for workload in WORKLOADS:
        ref[workload] = {}
        for variant in list(range(variants(workload))) + ["smoke"]:
            mode, params = workload_inputs(workload, variant)
            c = spawn(mode, params, False, _now_ns() + HARD_LIMIT_S * 10 ** 9)
            if not c.ok(None):
                sys.stderr.write(c.err)
                raise SystemExit("%s variant %s failed (exit %s)" % (workload, variant, c.rc))
            ref[workload][str(variant)] = c.digest
            print("%s %s %s wall %.3f s cpu %.3f s %s" % (workload, variant, json.dumps(params), c.wall_s, c.cpu_s, c.digest[:12]), flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description="cubicount benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-take reference.json and exit")
    args = ap.parse_args(argv)
    # on SIGTERM unwind through spawn(), which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "cubicount", "cli.py")):
        print("run from the root of a cubicount checkout: src/cubicount is missing", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
