"""Source rules.  The failure contract: an internal fault raises
forms.InvariantError (CLI exit 3), which survives python -O, never an
assert (gone under -O) or a bare RuntimeError or AssertionError (exit 1 with
a traceback, which reads as a failed identity).  One enumeration budget:
forms.disc_budget is its only source, so no function takes a budget
parameter that some caller could forget to pass on.  One writer: every
command's output goes through cli._write.  One library surface: every name
defined in src is reached from what the program runs, and every name a
module imports is used in it.  One decision per condition: the
reduced-domain scans yield d-intervals, and one loop visits their d.
Bounded memos: every cache in src has an integer maxsize, save a listed
few."""

import argparse
import ast
import glob
import importlib
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "cubicount")


def test_no_assert_or_bare_runtime_error_in_src():
    bad = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                bad.append("%s:%d assert" % (os.path.basename(path), node.lineno))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("RuntimeError", "AssertionError"):
                    bad.append("%s:%d raise %s" % (os.path.basename(path), node.lineno, exc.id))
    assert not bad, bad



_ENV_NAMES = ("environ", "environb", "getenv", "getenvb", "putenv", "unsetenv")


def _env_uses(tree):
    """(line, enclosing top-level function or None, key) for every use of
    os.environ and its kin and every import of them from os; key is the
    key expression of os.environ[key] and os.environ.get/pop(key, ...),
    else None."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    top = {}
    for fn in tree.body:
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            top.update((node, fn.name) for node in ast.walk(fn))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in _ENV_NAMES for a in node.names):
                yield node.lineno, top.get(node), None
        elif isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES:
            if not (isinstance(node.value, ast.Name) and node.value.id == "os"):
                continue
            key, up = None, parent.get(node)
            if node.attr == "environ" and isinstance(up, ast.Subscript):
                key = up.slice
            elif node.attr == "environ" and isinstance(up, ast.Attribute) and up.attr in ("get", "pop"):
                call = parent.get(up)
                if isinstance(call, ast.Call) and call.func is up and call.args:
                    key = call.args[0]
            yield node.lineno, top.get(node), key


def test_budget_has_one_source():
    # no function takes a budget parameter; os.environ is read only in
    # forms.disc_budget, and cli.main only saves, sets and restores
    # CUBICOUNT_BUDGET around the call
    bad = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
                if any(p.arg == "budget" for p in params):
                    bad.append("%s:%d budget parameter" % (name, node.lineno))
        for line, fn, key in _env_uses(tree):
            if (name, fn) == ("forms.py", "disc_budget"):
                continue
            if (name, fn) == ("cli.py", "main") and isinstance(key, ast.Name) and key.id == "BUDGET_ENV":
                continue
            bad.append("%s:%d environment access in %s" % (name, line, fn))
    assert not bad, bad


def _reach(module, start, forbidden, methods=False):
    """Walk the call graph of src/cubicount/<module>.py from the functions
    named in start, following every reference to a top-level function of
    the module (and to a method, when methods is true).  Returns the names
    reached and, as "function:line name", every reference to a name in
    forbidden."""
    with open(os.path.join(SRC, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    nodes = ast.walk(tree) if methods else tree.body
    funcs = {fn.name: fn for fn in nodes if isinstance(fn, ast.FunctionDef)}
    bad = []
    seen = set()
    todo = list(start)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(funcs[name]):
            ref = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if ref in forbidden:
                bad.append("%s:%d %s" % (name, node.lineno, ref))
            elif ref in funcs:
                todo.append(ref)
    return seen, bad


def test_counts_path_builds_no_orbit():
    # class_numbers and h_value, and every counting function they reach,
    # read the integer counts table only: none may fall back to building
    # Orbit tables, and none acts on a form, looks up its orbit or counts
    # its stabilizer
    seen, bad = _reach("counting", ["class_numbers", "h_value"], {
        "orbit_table", "_build_orbit_table", "Orbit",
        "reduced_orbit", "reduced_stabilizer_order", "orbit_closure", "act"})
    assert not bad, bad
    assert {"sixths_table", "_build_sixths_table", "_scanned"} <= seen


def test_fields_pic_builds_no_orbit():
    # the field count reads the counts table by weight: check_fields_pic,
    # and every bridge function it reaches, neither builds an Orbit table
    # nor looks up an orbit or its stabilizer
    seen, bad = _reach("bridge", ["check_fields_pic"], {
        "orbit_table", "_build_orbit_table", "Orbit", "reduced_orbit", "reduced_stabilizer_order"})
    assert not bad, bad
    assert "weight_w" in seen


def test_cli_builds_no_orbit():
    # every cubic number the program prints or checks comes from the counts
    # table: cli.py names no Orbit table, Orbit, orbit lookup or stabilizer
    # count, not even in a string (getattr)
    with open(os.path.join(SRC, "cli.py")) as fh:
        refs = {name for name, _ in _refs(ast.parse(fh.read()), strings=True)}
    bad = refs & {"orbit_table", "enumerate_orbits", "Orbit", "reduced_orbit", "reduced_stabilizer_order"}
    assert not bad, sorted(bad)


def test_box_oracle_is_independent_of_the_fast_path():
    # the box oracle checks the counts table, so box_orbits and every
    # counting function it reaches stay off the reduced-domain scan, the
    # tables built on it and the boundary-matrix table
    seen, bad = _reach("counting", ["box_orbits", "box_reduced_forms"], {
        "_scanned", "_scan_pos", "_scan_neg", "sixths_table", "_build_sixths_table", "orbit_table",
        "BOUNDARY_MATRICES", "boundary_signature", "reduced_orbit"})
    assert not bad, bad
    assert {"box_orbits", "box_reduced_forms", "_check_bound"} <= seen


def test_scan_d_loops_only_yield():
    # the reduced-domain scans decide every condition on d before any d is
    # visited: neither scan has a d loop, and each yields only 5-tuples,
    # the d-intervals (a, b, c, lo, hi); _scanned holds the one d loop,
    # `for d in range(lo, hi + 1)`; and no clamp named capd bounds d
    # anywhere in src
    with open(os.path.join(SRC, "counting.py")) as fh:
        tree = ast.parse(fh.read())
    funcs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}

    def d_loops(fn):
        return [node for node in ast.walk(fn)
                if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and node.target.id == "d"]

    bad = []
    for name in ("_scan_pos", "_scan_neg"):
        bad += ["%s:%d d loop" % (name, node.lineno) for node in d_loops(funcs[name])]
        yields = [node for node in ast.walk(funcs[name]) if isinstance(node, (ast.Yield, ast.YieldFrom))]
        bad += ["%s:%d yield" % (name, node.lineno) for node in yields if not (
            isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple) and len(node.value.elts) == 5)]
        if not yields:
            bad.append("%s yields nothing" % name)
    loops = [ast.unparse(node.iter) for node in d_loops(funcs["_scanned"])]
    if loops != ["range(lo, hi + 1)"]:
        bad.append("_scanned d loops %r" % loops)
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            if "capd" in fh.read():
                bad.append("%s capd" % os.path.basename(path))
    assert not bad, bad


# the caches that may still grow without bound, as module.function; the
# rule below fails when one of them is bounded, so the list shrinks with them
_UNBOUNDED_CACHES = {"quad._picard_group"}


def test_every_cache_is_bounded():
    # every lru_cache (or functools.cache) in src has an integer maxsize,
    # read off the decorated function (lru_cache takes an int or None),
    # except the listed ones, which are unbounded
    bad, unbounded = [], set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        owners = {fn: None for fn in tree.body}
        owners.update((fn, cls.name) for cls in tree.body if isinstance(cls, ast.ClassDef) for fn in cls.body)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in fn.decorator_list:
                name = dec.func if isinstance(dec, ast.Call) else dec
                name = name.id if isinstance(name, ast.Name) else name.attr if isinstance(name, ast.Attribute) else None
                if name not in ("lru_cache", "cache"):
                    continue
                label = "%s.%s" % (module, fn.name)
                if fn not in owners:
                    bad.append("%s:%d cache on a nested function" % (label, fn.lineno))
                    continue
                obj = importlib.import_module("cubicount." + module)
                if owners[fn] is not None:
                    obj = getattr(obj, owners[fn])
                if getattr(obj, fn.name).cache_parameters()["maxsize"] is None:
                    unbounded.add(label)
    assert not bad, bad
    assert unbounded == _UNBOUNDED_CACHES, (sorted(unbounded - _UNBOUNDED_CACHES), sorted(_UNBOUNDED_CACHES - unbounded))


def test_picard_law_builds_no_ideal():
    # the group law composes the forms of the representatives: quad._structure,
    # and every quad function it reaches, builds no ideal and takes no
    # ideal product or conjugate
    seen, bad = _reach("quad", ["_structure"], {
        "ideal_from_generators", "make_ideal", "hnf2", "QuadIdeal", "mul", "conj"})
    assert not bad, bad
    assert {"_compose", "_key", "_smith"} <= seen


def test_subring_enumeration_reads_no_splitting_type():
    # criterion 4 compares subrings_of_index with s_sequence of the
    # splitting type; the enumeration, and every rings function it
    # reaches, must stay independent of that side
    seen, bad = _reach("rings", ["subrings_of_index"], {
        "s_sequence", "s_closed_form", "splitting_type", "_local_type", "counting"}, methods=True)
    assert {"subrings_of_index", "discriminant"} <= seen
    assert not bad, bad


def test_triple_extraction_uses_no_ring_arithmetic():
    # the triple is read off the covariants of the form: extract_triple,
    # and every bridge function or method it reaches, builds no ring and
    # takes no ring product or determinant
    seen, bad = _reach("bridge", ["extract_triple"], {"CubicRing", "ring_from_form", "mul", "_det3"}, methods=True)
    assert not bad, bad
    assert {"cubic_covariant", "gamma_cube", "norm_condition", "containment_condition"} <= seen


def _top_level(tree):
    """name -> node for the top-level functions and assigned names."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    return defs


def test_report_literal_has_one_home():
    # every identity report is built by counting.report: no other dict
    # literal in src has a "pass" key
    homes, bad = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        where = {}
        for top, node in _top_level(tree).items():
            where.update((sub, top) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "pass" for k in node.keys):
                (homes if (name, where.get(node)) == ("counting.py", "report") else bad).append(
                    "%s:%d" % (name, node.lineno))
    assert len(homes) == 1 and not bad, (homes, bad)


def test_output_has_one_writer():
    # every command's output goes through cli._write: only it calls
    # json.dumps and _emit, only _emit touches sys.stdout, and every print
    # goes to stderr
    homes, bad = set(), []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        where = {}
        for top, node in _top_level(tree).items():
            where.update((sub, top) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if callee == "print" and not any(k.arg == "file" for k in node.keywords):
                    bad.append("%s:%d print to stdout" % (name, node.lineno))
                if callee not in ("dumps", "_emit"):
                    continue
                home = ("cli.py", "_write")
            elif (isinstance(node, ast.Attribute) and node.attr == "stdout"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                callee, home = "sys.stdout", ("cli.py", "_emit")
            else:
                continue
            if (name, where.get(node)) == home:
                homes.add(callee)
            else:
                bad.append("%s:%d %s in %s" % (name, node.lineno, callee, where.get(node)))
    assert homes == {"dumps", "_emit", "sys.stdout"} and not bad, (homes, bad)


def test_sixths_format_has_one_home():
    # the counts tables hold integer sixths, and only counting knows it:
    # only counting.py names _build_sixths_table and _SIXTHS_CACHE, and
    # outside it only cli.cmd_verify names sixths_table, to build the
    # plan's tables; every count is read through h_value(D, kind)
    homes, bad = set(), []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        if name == "counting.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        where = {}
        for top, node in _top_level(tree).items():
            where.update((sub, top) for sub in ast.walk(node))
        for node in ast.walk(tree):
            ref = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                   else node.name if isinstance(node, ast.alias)
                   else node.value if isinstance(node, ast.Constant) else None)
            if ref not in ("sixths_table", "_build_sixths_table", "_SIXTHS_CACHE"):
                continue
            if (ref, name, where.get(node)) == ("sixths_table", "cli.py", "cmd_verify"):
                homes.add((name, where.get(node)))
            else:
                bad.append("%s:%d %s in %s" % (name, node.lineno, ref, where.get(node)))
    assert homes == {("cli.py", "cmd_verify")} and not bad, (homes, bad)


def test_every_flag_is_read():
    # each subcommand's flags are read as args.<dest> by its handler (or
    # the cli code it reaches) or by main; build_parser declares them and
    # is not followed
    from cubicount.cli import build_parser

    with open(os.path.join(SRC, "cli.py")) as fh:
        defs = _top_level(ast.parse(fh.read()))

    def reads(start):
        got, seen, todo = set(), {"build_parser"}, [start]
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in ast.walk(defs[name]):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name) and node.value.id == "args"):
                    got.add(node.attr)
                elif isinstance(node, ast.Name) and node.id in defs:
                    todo.append(node.id)
        return got

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    bad = []
    for command, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        read = reads(parser.get_default("func").__name__) | reads("main")
        bad += ["%s --%s" % (command, dest) for dest in sorted(dests - read)]
    assert len(sub.choices) == 4 and not bad, bad


def test_every_import_is_used():
    # every name a src module imports is used in that module; the package
    # __init__ imports only to export
    bad = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        if name == "__init__.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += ["%s:%d %s" % (name, line, n) for n, line in sorted(imported.items()) if n not in used]
    assert not bad, bad


# the names of the cubicount modules: obj.name reaches a top-level name
# only when obj is one of them
_MODULES = {"cubicount"} | {os.path.basename(p)[:-3] for p in glob.glob(os.path.join(SRC, "*.py"))}


def _refs(node, strings=False):
    """Every reference node makes, as (identifier, methods_only): the names
    it reads (a name stored to is not a reference), the attributes it
    reads, which reach only methods and fields unless read off a cubicount
    module, and with strings the dotted parts of string constants that are
    identifiers."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id, False
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            obj = sub.value
            owner = obj.id if isinstance(obj, ast.Name) else obj.attr if isinstance(obj, ast.Attribute) else None
            yield sub.attr, owner not in _MODULES
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from ((part, False) for part in parts)


def test_every_library_name_is_reached():
    # every top-level function, class, constant and method in src is
    # reached, by name, from what the program runs: cli.main, the package
    # exports, the demos and the benchmark (whose tracer names its spans
    # in strings, so only there do strings count); an attribute reaches a
    # top-level name only when read off a module, so a dead function is
    # not hidden by a live method or field of its name; a helper only a
    # test calls lives in the tests
    defs = {}  # name -> [(label, node, is_method)]; a name reaches every def of it
    implicit = {}  # class name -> the dunder methods Python calls itself
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        if module == "__init__":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for top, node in _top_level(tree).items():
            defs.setdefault(top, []).append(("%s.%s" % (module, top), node, False))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            defs.setdefault(cls.name, []).append(("%s.%s" % (module, cls.name), cls, False))
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if fn.name.startswith("__") and fn.name.endswith("__"):
                        implicit.setdefault(cls.name, []).append(fn)
                    else:
                        defs.setdefault(fn.name, []).append(("%s.%s.%s" % (module, cls.name, fn.name), fn, True))

    with open(os.path.join(SRC, "__init__.py")) as fh:
        init = ast.parse(fh.read())
    todo = [("main", False)] + [(a.name, False) for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    for pattern in ("demos/*.py", "perfbench/*.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path) as fh:
                todo.extend(_refs(ast.parse(fh.read(), path), strings=pattern.startswith("perfbench")))

    seen, reached = set(), set()
    while todo:
        name, methods_only = todo.pop()
        if (name, methods_only) in seen:
            continue
        seen.add((name, methods_only))
        for label, node, is_method in defs.get(name, ()):
            if methods_only and not is_method:
                continue
            reached.add(label)
            if isinstance(node, ast.ClassDef):
                # bases, decorators, fields and dunders, not the methods
                body = [n for n in node.body if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
                for part in node.bases + node.keywords + node.decorator_list + body + implicit.get(name, []):
                    todo.extend(_refs(part))
            else:
                todo.extend(_refs(node))
    unreached = sorted(label for nodes in defs.values() for label, _, _ in nodes if label not in reached)
    assert not unreached, "unreached: " + " ".join(unreached)
