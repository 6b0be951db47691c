"""Source rules of the failure contract: an internal fault raises
forms.InvariantError (CLI exit 3), which survives python -O, never an
assert (gone under -O) or a bare RuntimeError or AssertionError (exit 1 with
a traceback, which reads as a failed identity)."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "cubicount")


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
