"""Smoke test of the benchmark itself, at tiny input sizes (about 20 s).
Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that
- every workload, in both modes, prints exactly the metrics named in
  BENCHMARK.json, each with its unit and a numeric value, and passes its
  digest check;
- a run whose output digest differs from the expected one counts as failed;
- span accounting holds in a traced child: every self time is >= 0 and the
  wrapped self times add up to the wrapped time, which is no more than the
  traced run time;
- the tracer patches every binding of a wrapped function, and a function
  that does not exist reads as absent with zero metrics.
Exit code 0 if all hold, 1 otherwise.
"""

import json
import os
import sys

import run


def _check(errors, ok, what):
    if not ok:
        errors.append(what)


def check_metrics(errors, spec):
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in run.WORKLOADS:
        for trace, declared in modes.items():
            res = run.measure(workload, 0, 1, bool(trace), smoke=True, log=lambda line: None)
            where = "%s trace=%d" % (workload, trace)
            _check(errors, res["correct"] and res["failed"] == 0, where + ": smoke run failed")
            _check(errors, sorted(res) == ["attempted", "correct", "failed", "metrics"], where + ": result keys")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            _check(errors, got == want, where + ": metric names or units differ from BENCHMARK.json")
            for name, m in res["metrics"].items():
                v = m["value"]
                _check(errors, isinstance(v, (int, float)) and not isinstance(v, bool), where + ": %s not a number" % name)


def check_corrupt_digest(errors, ref):
    good = ref["cubic_table"]["smoke"]
    bad = ("0" if good[0] != "0" else "1") + good[1:]
    res = run.measure("cubic_table", 0, 1, False, smoke=True, expected=bad, log=lambda line: None)
    _check(errors, not res["correct"] and res["failed"] == res["attempted"] >= 1,
           "a corrupted digest did not count as failed: %r" % {k: res[k] for k in ("correct", "attempted", "failed")})


def check_span_accounting(errors):
    for workload in run.WORKLOADS:
        mode, params = run.workload_inputs(workload, "smoke")
        c = run.spawn(mode, params, True, run._now_ns() + run.HARD_LIMIT_S * 10 ** 9)
        rep = c.report or {}
        layers = rep.get("layers", {})
        selfs = {k: v for k, v in layers.items() if k.endswith(".self_s")}
        where = "span accounting on %s" % workload
        _check(errors, c.ok(None) and selfs, where + ": traced child failed")
        _check(errors, all(v >= 0 for v in selfs.values()), where + ": negative self time")
        _check(errors, abs(sum(selfs.values()) - rep.get("wrapped_ns", 0) / 1e9) < 1e-6,
               where + ": self times do not add up to the wrapped time")
        _check(errors, rep.get("wrapped_ns", 0) <= rep.get("main_ns", -1) and rep.get("main_ns", 0) / 1e9 <= c.wall_s,
               where + ": wrapped time exceeds traced run time")


def check_patching(errors):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from cubicount import bridge, forms, quad
    from tracer import Tracer

    saved = forms.canonicalize
    del forms.canonicalize
    try:
        tracer = Tracer()
        tracer.install()
    finally:
        forms.canonicalize = saved
    _check(errors, tracer.absent == ["forms.canonicalize"], "absent layers: %r" % tracer.absent)
    m = tracer.metrics()
    _check(errors, m["forms.canonicalize.calls"] == 0 and m["forms.canonicalize.self_s"] == 0,
           "an absent layer does not read as 0")
    _check(errors, bridge.picard_group is quad.picard_group and hasattr(quad.picard_group, "__wrapped__"),
           "bridge's own picard_group binding was not patched")


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ref = run.load_reference()
    errors = []
    check_metrics(errors, spec)
    check_corrupt_digest(errors, ref)
    check_span_accounting(errors)
    check_patching(errors)
    for e in errors:
        print("FAIL", e)
    print("selftest: %s" % ("ok" if not errors else "%d failures" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
