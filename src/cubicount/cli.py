"""Batch driver: class-number tables, Dirichlet coefficients, Picard group
dumps, and every identity check as a subcommand with machine-readable
output.

Exit codes: 0 all requested checks pass, 1 a mathematical identity failed
(the first counterexample is printed), 2 operational failure (budget, IO,
bad arguments or config), 3 an internal invariant of the computation broke
(forms.InvariantError: a bug, not a counterexample).

verify runs the checks named in CHECKS and streams their identity reports
(counting.report) as one JSON list, through _write, the one writer of
every command.  Every check takes the deltas --D names (dump-pic those
--delta names), in that order, else those in [-max, max] that it accepts,
ascending, max cut to its cap (only oracle's cap binds --D); before any
row, every delta is accepted and each counts table built once, by kind,
to the largest |disc| read.  --format (csv or json) belongs to table and zeta.

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
from itertools import chain, islice

from . import bridge, counting, quad
from .counting import frac_str
from .forms import BUDGET_ENV, BudgetExceeded, InvariantError, check_budget, disc_budget
from .quad import is_fundamental


def cmd_table(args) -> int:
    # the keys in sorted order, as the JSON rows have always had them
    rows = [{"delta": D, "h_den": h.denominator, "h_num": h.numerator,
             "hhat_den": hh.denominator, "hhat_num": hh.numerator}
            for D, (h, hh) in counting.class_numbers(args.max).items()]
    _write(args.out, rows, args.format, ("delta", "h_num", "h_den", "hhat_num", "hhat_den"))
    return 0


def cmd_zeta(args) -> int:
    z = counting.zeta_coefficients(args.max)
    names = ("zeta_plus", "zeta_minus", "zhat_plus", "zhat_minus")
    rows = [{"n": n, **{name: frac_str(z[name][n]) for name in names}} for n in range(1, args.max + 1)]
    _write(args.out, rows, args.format, ("n",) + names)
    return 0


def cmd_dump_pic(args) -> int:
    deltas, X = _deltas("dump-pic", args, args.delta, None, quad.in_discs)
    check_budget(X)
    _write(args.out, (quad.picard_dump(D) for D in deltas), "json")
    return 0


def _deltas(name, args, given, cap, wanted):
    """(deltas, X), X their largest |delta| (0 for none): those given, in
    order, ValueError unless wanted accepts each; else, ascending and lazily,
    those in [-max, max] wanted accepts, max cut to cap (None: no cap),
    saying so on stderr when the cap cuts."""
    if given:
        for D in given:
            if not wanted(D):
                raise ValueError("%s does not take delta %d" % (name, D))
        return given, max(map(abs, given))
    top = args.max
    if cap is not None and top > cap:
        print("%s: checked for |delta| <= %d only (its cap), not up to --max %d" % (name, cap, top), file=sys.stderr)
        top = cap
    X = next((t for t in range(top, 0, -1) if wanted(t) or wanted(-t)), 0)
    return filter(wanted, range(-X, X + 1)), X


def _recursion_reads(args, X):
    # h(p^6 D), and hhat(p^6 D) at disc -27 p^6 D, at the largest p
    return [(table, k * max(args.primes) ** 6 * X) for table, k in (("plain", 1), ("zmat", 27)) if k == 1 or args.hhat]


# the largest |delta| oracle checks, given or swept: the budget cannot bound
# the box, whose cost grows far faster than the |disc| it reaches
_ORACLE_CAP = 200


def _oracle_reads(args, X):
    if X > _ORACLE_CAP:
        raise BudgetExceeded("oracle checks |delta| <= %d only, got %d" % (_ORACLE_CAP, X))
    return [("plain", X)]


def _oracle_rows(args, deltas, X):
    # h(D) by counting.h_value against the box's sum of 1/|stabilizer|
    box = counting.box_orbits(X)
    for D in deltas:
        yield counting.report("oracle", D, counting.h_value(D),
                              sum((Fraction(1, s) for s in box.get(D, {}).values()), Fraction(0)))


# check name -> (cap, wanted, reads, rows): reads(args, X) lists the
# (table, |disc|) pairs the check reads at its largest |delta| X, and
# rows(args, deltas, X) yields its reports, by module functions looked up
# per call (so a patched one is used).  The caps keep the default budget.
# scholz plans no read: its Picard groups reach 3 |D| only when 3 ∤ D.
CHECKS = {
    "on": (None, quad.in_discs, lambda args, X: [("zmat", 27 * X), ("plain", X)],
           lambda args, deltas, X: map(counting.check_on, deltas)),
    "recursion": (20, quad.in_discs, _recursion_reads, lambda args, deltas, X: (
        r for D in deltas for p in args.primes for r in counting.check_recursion(D, p, include_hhat=args.hhat))),
    "rhs": (None, quad.in_discs, lambda args, X: [("zmat", 27 * X)],
            lambda args, deltas, X: map(bridge.rhs_identity_check, deltas)),
    "lhs": (None, bridge.has_cubefree_conductor, lambda args, X: [("plain", X)],
            lambda args, deltas, X: map(bridge.lhs_identity_check, deltas)),
    "fields-pic": (None, quad.in_discs, lambda args, X: [("fields", X)],
                   lambda args, deltas, X: map(bridge.check_fields_pic, deltas)),
    "prop6": (40, lambda D: quad.in_discs(D) and D % 3 != 0, lambda args, X: [("picard", 27 * X), ("plain", X)],
              lambda args, deltas, X: map(bridge.check_prop_3notdiv, deltas)),
    "scholz": (None, lambda D: D != 1 and is_fundamental(D), lambda args, X: [],
               lambda args, deltas, X: map(bridge.check_scholz, deltas)),
    "oracle": (_ORACLE_CAP, quad.in_discs, _oracle_reads, _oracle_rows),
}


def cmd_verify(args) -> int:
    # a p over the budget is refused before its (trial-division) primality
    # test: the recursion's first term h(p^6 D) is out of reach anyway
    budget = disc_budget()
    for p in args.primes:
        if p > budget:
            raise BudgetExceeded("--primes %d over budget %d" % (p, budget))
        quad.require_prime(p)
    reach, reports = {}, []
    for name in args.which:
        cap, wanted, reads, rows = CHECKS[name]
        deltas, X = _deltas(name, args, args.D, cap, wanted)
        for read, x in reads(args, X):
            reach[read] = max(reach.get(read, 0), x)
        reports.append(rows(args, deltas, X))
    # the plan: every read within the budget, each counts table built once
    # (sixths_table by kind); Picard groups build as read
    check_budget(max(reach.values(), default=0))
    for read, x in reach.items():
        if read != "picard":
            counting.sixths_table(x, read)
    count, first = 0, None

    def tallied():
        nonlocal count, first
        for count, r in enumerate(chain.from_iterable(reports), 1):
            if first is None and not r["pass"]:
                first = r
            yield r

    _write(args.out, tallied(), "json")
    if first is not None:
        lhs, rhs = ("(%s)" % ", ".join(map(frac_str, v)) if isinstance(v, tuple) else frac_str(v)
                    for v in (first["lhs"], first["rhs"]))
        print("FAIL %s at delta=%s: lhs=%s rhs=%s" % (first["check"], first["delta"], lhs, rhs), file=sys.stderr)
        return 1
    print("%d checks passed" % count, file=sys.stderr)
    return 0


def _write(out, rows, fmt, columns=()):
    """The one writer of every command's output, rows as they come: one JSON
    list of the row dicts (fmt "json"; a Fraction as its frac_str), else CSV,
    a header of columns and one line of those values per row; then a newline.
    out is opened when the first rows are ready."""
    # 64 rows per json.dumps: a call per row took twice as long as one call
    rows = iter(rows)
    batches = iter(lambda: list(islice(rows, 64)), [])
    if fmt == "json":
        # with indent=0 a row's text is the same at any depth in the list
        parts = (json.dumps(batch, indent=0, default=frac_str)[1:-2] for batch in batches)
        first = next(parts, None)
        texts = ["[]\n"] if first is None else chain(["[" + first], ("," + p for p in parts), ["\n]\n"])
    else:
        lines = ("".join(",".join(str(row[c]) for c in columns) + "\n" for row in batch) for batch in batches)
        texts = chain([",".join(columns) + "\n"], lines)
    _emit(out, texts)


def _emit(path, texts):
    if path and path != "-":
        with open(path, "w") as fh:
            fh.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def build_parser():
    ap = argparse.ArgumentParser(prog="cubicount")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max", type=int, default=60, help="bound on |delta|")
        p.add_argument("--out", default="-")
        p.add_argument("--budget", type=int, default=None,
                       help="|disc| cap for every check (else CUBICOUNT_BUDGET, else 10^6)")

    t = sub.add_parser("table", help="h/hhat table as CSV or JSON")
    common(t)
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.set_defaults(func=cmd_table)

    z = sub.add_parser("zeta", help="Dirichlet coefficients of the four series")
    common(z)
    z.add_argument("--format", choices=("csv", "json"), default="csv")
    z.set_defaults(func=cmd_zeta)

    v = sub.add_parser("verify", help="run identity checks")
    common(v)
    v.add_argument("which", nargs="+", choices=CHECKS, help="checks to run")
    v.add_argument("--primes", type=int, nargs="+", default=[2, 3])
    v.add_argument("--D", type=int, nargs="+", default=None, help="the deltas of every check")
    v.add_argument("--no-hhat", dest="hhat", action="store_false", help="skip the hhat recursion variant")
    v.set_defaults(func=cmd_verify, hhat=True)

    d = sub.add_parser("dump-pic", help="Picard group dumps as JSON")
    common(d)
    d.add_argument("--delta", type=int, nargs="+", default=None)
    d.set_defaults(func=cmd_dump_pic)
    return ap


def _apply_config(argv):
    """Optional JSON config file supplies defaults; explicit flags win."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    i = next((i for i, token in enumerate(argv) if token.partition("=")[0] == "--config"), None)
    if i is None:
        return argv, None
    # --config PATH or --config=PATH; a missing PATH is an IndexError
    _, eq, path = argv.pop(i).partition("=")
    if not eq:
        path = argv.pop(i)
    with open(path) as fh:
        cfg = json.load(fh)
    _check_config(cfg)
    return argv, cfg


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# config key -> (test of its value, what the value must be)
_CONFIG_TYPES = {
    "max": (_is_int, "an integer"),
    "budget": (lambda v: v is None or _is_int(v), "an integer or null"),
    "format": (lambda v: v in ("csv", "json"), '"csv" or "json"'),
    "out": (lambda v: isinstance(v, str), "a string"),
    "primes": (lambda v: isinstance(v, list) and v and all(_is_int(p) for p in v),
               "a nonempty list of integers"),
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
    if cfg:
        # the known keys become defaults of each subcommand with that flag,
        # so argparse lets a flag in any spelling (--max=1, --ma 1) win
        (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
        for p in sub.choices.values():
            dests = {a.dest for a in p._actions}
            p.set_defaults(**{k: v for k, v in cfg.items() if k in _CONFIG_TYPES and k in dests})
    args = ap.parse_args(argv)
    for flag, value in (("max", args.max), ("budget", args.budget or 0)):
        if value < 0:
            print("--%s must be >= 0, got %d" % (flag, value), file=sys.stderr)
            return 2
    saved = os.environ.get(BUDGET_ENV)
    if args.budget is not None:
        os.environ[BUDGET_ENV] = str(args.budget)
    try:
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
