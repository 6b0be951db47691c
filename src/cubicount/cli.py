"""Batch driver: class-number tables, Dirichlet coefficients, Picard group
dumps, and every identity check as a subcommand with machine-readable
output.

Exit codes: 0 all requested checks pass, 1 a mathematical identity failed
(the first counterexample is printed), 2 operational failure (budget, IO,
bad arguments or config), 3 an internal invariant of the computation broke
(forms.InvariantError: a bug, not a counterexample).

--budget N (or config "budget": N) caps the |disc| enumerated by every check
and dump-pic: main sets CUBICOUNT_BUDGET=N for the call and restores it
after, so the flag beats the environment, which beats the default 10^6.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bridge, counting, quad
from .counting import frac_str
from .forms import BUDGET_ENV, BudgetExceeded, InvariantError
from .quad import is_fundamental


CHECKS = ("on", "recursion", "rhs", "lhs", "fields-pic", "prop6", "scholz", "oracle")


def cmd_table(args) -> int:
    if args.max <= 0:
        payload = "[]\n" if args.format == "json" else "delta,h_num,h_den,hhat_num,hhat_den\n"
        _emit(args.out, payload)
        return 0
    if args.format == "json":
        _emit(args.out, counting.table_json(args.max) + "\n")
        return 0
    # --shards is validated but does not change the work: the output is one
    # table, byte-identical for every shard count
    _emit(args.out, "\n".join(counting.table_csv_lines(args.max)) + "\n")
    return 0


def cmd_zeta(args) -> int:
    z = counting.zeta_coefficients(args.max)
    rows = []
    for n in range(1, args.max + 1):
        rows.append(
            {
                "n": n,
                "zeta_plus": frac_str(z["zeta_plus"][n]),
                "zeta_minus": frac_str(z["zeta_minus"][n]),
                "zhat_plus": frac_str(z["zhat_plus"][n]),
                "zhat_minus": frac_str(z["zhat_minus"][n]),
            }
        )
    if args.format == "json":
        _emit(args.out, json.dumps(rows, indent=0) + "\n")
    else:
        lines = ["n,zeta_plus,zeta_minus,zhat_plus,zhat_minus"]
        for row in rows:
            lines.append(
                "%(n)d,%(zeta_plus)s,%(zeta_minus)s,%(zhat_plus)s,%(zhat_minus)s" % row
            )
        _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_dump_pic(args) -> int:
    deltas = args.delta or []
    if not deltas and args.max:
        deltas = [D for D in range(-args.max, args.max + 1) if quad.in_discs(D)]
    payload = [quad.picard_dump(D) for D in deltas]
    _emit(args.out, json.dumps(payload, indent=0) + "\n")
    return 0


def _verify_on(args, reports):
    for D, (h, hh) in counting.class_numbers(args.max).items():
        want = 3 * h if D > 0 else h
        reports.append(
            {"check": "on", "delta": D, "lhs": hh, "rhs": want, "pass": hh == want}
        )


# per-delta checks: name -> (cap on |delta| or None, which delta to check,
# the reports at one delta).  Module functions are looked up per call, so a
# patched binding is the one used.  The caps keep the default budget: the
# recursion reaches p^6 |D|, prop6 the orders of discriminant up to 27 |D|.
_PER_DELTA = {
    "recursion": (20, quad.in_discs, lambda args, D: [
        r for p in args.primes
        for r in counting.check_recursion(D, p, include_hhat=args.hhat)
    ]),
    "rhs": (None, quad.in_discs, lambda args, D: [bridge.rhs_identity_check(D)]),
    "lhs": (None, bridge.has_cubefree_conductor, lambda args, D: [bridge.lhs_identity_check(D)]),
    "fields-pic": (None, quad.in_discs, lambda args, D: [bridge.check_fields_pic(D)]),
    "prop6": (40, lambda D: quad.in_discs(D) and D % 3 != 0, lambda args, D: [bridge.check_prop_3notdiv(D)]),
    "scholz": (None, lambda D: D != 1 and is_fundamental(D), lambda args, D: [bridge.check_scholz(D)]),
}


def _capped_max(name, args, cap):
    """--max cut to the check's cap, saying so on stderr when it cuts."""
    if cap is None or args.max <= cap:
        return args.max
    print("%s: checked for |delta| <= %d only (its cap), not up to --max %d" % (name, cap, args.max), file=sys.stderr)
    return cap


def _verify_per_delta(name, args, reports):
    cap, wanted, reports_at = _PER_DELTA[name]
    if name == "recursion" and args.D:
        deltas = args.D
    else:
        top = _capped_max(name, args, cap)
        deltas = [D for D in range(-top, top + 1) if wanted(D)]
    for D in deltas:
        reports.extend(reports_at(args, D))


def _verify_oracle(args, reports):
    X = _capped_max("oracle", args, 200)
    table = counting.orbit_table(X, False)
    box = counting.box_orbit_counts(X)
    keys = sorted(set(box) | set(table))
    for D in keys:
        lhs = len(table.get(D, []))
        rhs = box.get(D, 0)
        reports.append(
            {"check": "oracle", "delta": D, "lhs": Fraction(lhs), "rhs": Fraction(rhs), "pass": lhs == rhs}
        )


def _summary_lines(reports):
    lines = ["check        delta      lhs        rhs        pass"]
    for r in reports:
        lines.append(
            "%-12s %-10s %-10s %-10s %s"
            % (r["check"], r["delta"], _jsonable(r["lhs"]), _jsonable(r["rhs"]),
               "ok" if r["pass"] else "FAIL")
        )
    return lines


def cmd_verify(args) -> int:
    which = args.which or ["on"]
    reports = []
    bulk = {"on": _verify_on, "oracle": _verify_oracle}
    for name in which:
        if name in bulk:
            bulk[name](args, reports)
        elif name in _PER_DELTA:
            _verify_per_delta(name, args, reports)
        else:
            print("unknown check: %s (choose from %s)" % (name, ", ".join(CHECKS)), file=sys.stderr)
            return 2
    payload = [
        {
            "check": r["check"],
            "delta": r["delta"],
            "lhs": _jsonable(r["lhs"]),
            "rhs": _jsonable(r["rhs"]),
            "pass": bool(r["pass"]),
        }
        for r in reports
    ]
    _emit(args.out, json.dumps(payload, indent=0) + "\n")
    if args.summary:
        print("\n".join(_summary_lines(reports)), file=sys.stderr)
    failures = [r for r in reports if not r["pass"]]
    if failures:
        first = failures[0]
        print(
            "FAIL %s at delta=%s: lhs=%s rhs=%s"
            % (first["check"], first["delta"], first["lhs"], first["rhs"]),
            file=sys.stderr,
        )
        return 1
    print("%d checks passed" % len(reports), file=sys.stderr)
    return 0


def _jsonable(v):
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def _emit(path, text):
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    ap = argparse.ArgumentParser(prog="cubicount")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max", type=int, default=60, help="bound on |delta|")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--shards", type=int, default=1)
        p.add_argument("--out", default="-")
        p.add_argument("--budget", type=int, default=None,
                       help="|disc| cap for every check (else CUBICOUNT_BUDGET, else 10^6)")

    t = sub.add_parser("table", help="h/hhat table as CSV or JSON")
    common(t)
    t.set_defaults(func=cmd_table)

    z = sub.add_parser("zeta", help="Dirichlet coefficients of the four series")
    common(z)
    z.set_defaults(func=cmd_zeta)

    v = sub.add_parser("verify", help="run identity checks")
    common(v)
    v.add_argument("which", nargs="*", choices=CHECKS, help="checks to run")
    v.add_argument("--primes", type=int, nargs="*", default=[2, 3])
    v.add_argument("--D", type=int, nargs="*", default=None, help="recursion base discriminants")
    v.add_argument("--p", type=int, default=None, help="single recursion prime")
    v.add_argument("--no-hhat", dest="hhat", action="store_false", help="skip the hhat recursion variant")
    v.add_argument("--summary", action="store_true", help="print a readable summary table to stderr")
    v.set_defaults(func=cmd_verify, hhat=True)

    d = sub.add_parser("dump-pic", help="Picard group dumps as JSON")
    common(d)
    d.add_argument("--delta", type=int, nargs="*", default=None)
    d.set_defaults(func=cmd_dump_pic)
    return ap


def _apply_config(argv):
    """Optional JSON config file supplies defaults; explicit flags win."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if "--config" not in argv:
        return argv, None
    i = argv.index("--config")
    path = argv[i + 1]
    del argv[i : i + 2]
    with open(path) as fh:
        cfg = json.load(fh)
    _check_config(cfg)
    return argv, cfg


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# config key -> (test of its value, what the value must be)
_CONFIG_TYPES = {
    "max": (_is_int, "an integer"),
    "shards": (_is_int, "an integer"),
    "budget": (lambda v: v is None or _is_int(v), "an integer or null"),
    "format": (lambda v: v in ("csv", "json"), '"csv" or "json"'),
    "out": (lambda v: isinstance(v, str), "a string"),
    "primes": (lambda v: isinstance(v, list) and all(_is_int(p) for p in v), "a list of integers"),
}


def _check_config(cfg):
    """ValueError unless cfg is a JSON object whose known keys have values
    of the type the matching flag takes; other keys are ignored."""
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object, not %s" % type(cfg).__name__)
    for key, (ok, want) in _CONFIG_TYPES.items():
        if key in cfg and not ok(cfg[key]):
            raise ValueError("config %r must be %s, got %r" % (key, want, cfg[key]))


def main(argv=None) -> int:
    ap = build_parser()
    try:
        argv, cfg = _apply_config(argv)
    except (OSError, ValueError, IndexError) as exc:
        print("bad config: %s" % exc, file=sys.stderr)
        return 2
    args = ap.parse_args(argv)
    if cfg:
        for key, val in cfg.items():
            if key in _CONFIG_TYPES and "--" + key not in argv and hasattr(args, key):
                setattr(args, key, val)
    if getattr(args, "p", None) is not None:
        args.primes = [args.p]
    if getattr(args, "shards", 1) < 1:
        print("shard count must be >= 1", file=sys.stderr)
        return 2
    if args.max < 0:
        print("--max must be >= 0, got %d" % args.max, file=sys.stderr)
        return 2
    saved = os.environ.get(BUDGET_ENV)
    if args.budget is not None:
        os.environ[BUDGET_ENV] = str(args.budget)
    try:
        for p in getattr(args, "primes", ()):
            quad.require_prime(p)
        return args.func(args)
    except BudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("io failure: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 2
    except InvariantError as exc:
        print("internal invariant failed: %s" % exc, file=sys.stderr)
        return 3
    finally:
        os.environ.pop(BUDGET_ENV, None)
        if saved is not None:
            os.environ[BUDGET_ENV] = saved


if __name__ == "__main__":
    raise SystemExit(main())
