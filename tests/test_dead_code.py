"""Every module-level function and class in the library is used, and so
is every method of a library class that is not a dunder.

A definition counts as used when its name is referenced outside its own
body: in a library module (the package `__init__.py` included, since its
imports are the public API) or in a benchmark script, where the tracer
also names its targets in strings such as "bivar.bivar_gcd".  Tests do
not count: code that only its own test calls is dead.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = {p.name: p.read_text() for p in (ROOT / "src" / "rittkit").glob("*.py")}
BENCH = {p.name: p.read_text() for p in (ROOT / "bench").glob("*.py")}


def references(node, strings: bool) -> Counter:
    """Names that `node` refers to; with `strings`, also the identifiers
    inside string literals that are not docstrings."""
    docstrings = {id(n.value) for n in ast.walk(node)
                  if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)}
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str) and id(n) not in docstrings):
            out.update(re.findall(r"[A-Za-z_]\w*", n.value))
    return out


def unreferenced(library: dict, bench: dict) -> list:
    """`module:name` for each top-level def or class of `library` whose
    name is referenced nowhere outside its own body."""
    trees = {name: ast.parse(src) for name, src in library.items()}
    total = Counter()
    for tree in trees.values():
        total += references(tree, strings=False)
    for src in bench.values():
        total += references(ast.parse(src), strings=True)
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = references(node, strings=False)[node.name]
                if total[node.name] - own == 0:
                    dead.append(f"{name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if (isinstance(meth, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not re.fullmatch(r"__\w+__", meth.name)):
                        own = references(meth, strings=False)[meth.name]
                        if total[meth.name] - own == 0:
                            dead.append(f"{name}:{node.name}.{meth.name}")
    return sorted(dead)


def test_detects_unreferenced_definitions():
    library = {
        "a.py": "def used():\n    pass\n\n"
                "def unused():\n    '''used() is named here only.'''\n\n"
                "def recursive(n):\n    return recursive(n - 1)\n\n"
                "class Traced:\n    def __mul__(self, o):\n        pass\n\n"
                "    def called(self):\n        return self.spare\n\n"
                "    def spare(self):\n        return self.spare\n\n"
                "    def orphan(self):\n        return self.orphan()\n",
        "b.py": "from .a import used\n\nused().called()\n",
    }
    bench = {"tracer.py": "TARGETS = ('a.Traced.__mul__',)\n"}
    assert unreferenced(library, bench) == [
        "a.py:Traced.orphan", "a.py:recursive", "a.py:unused"]


# Public methods kept although only tests call them, each with its reason.
KEPT = {
    # the acceptance gate (tests/test_acceptance.py) prints its bounds
    # through it; the constructors already simplify, so no library path
    # needs it
    "bounds.py:ConstantExpr.normalized",
}


def test_no_unreferenced_definitions():
    assert unreferenced(LIBRARY, BENCH) == sorted(KEPT)
