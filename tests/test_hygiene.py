"""Code hygiene of the package: no private helper or private method
without a caller, no public function or class that is neither exported
nor used, no module importing another module's private name, no import
that a module does not use, no package module imported inside a function,
no cycle among the modules' imports, no attribute guard outside the record
base, and no slow standard module loaded by importing the CLI."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "xctangle"


def _modules():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def _names(node, skip=None):
    """Every name read in ``node``, as a bare name or an attribute, leaving
    out the subtree ``skip``."""
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def _imported(tree):
    """Every name that ``tree`` imports from a module."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _unnamed(private):
    """The module-level functions and classes, private or public ones,
    that no module names outside their own definition.  A name imported
    by another module counts as named, so an export from __init__.py
    does.  Each module is walked once: the names each of its top-level
    statements reads, and the number of its statements that read each
    name, which tell whether a statement other than a definition names
    it."""
    modules = _modules()
    read = {name: [_names(node) for node in tree.body]
            for name, tree in modules.items()}
    counts = {name: Counter(n for got in stmts for n in got)
              for name, stmts in read.items()}
    named = {name: set(counts[name]) | _imported(tree)
             for name, tree in modules.items()}
    unused = []
    for name, tree in modules.items():
        others = set().union(*[got for other, got in named.items()
                               if other != name])
        for node, got in zip(tree.body, read[name]):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or \
                    node.name.startswith("_") != private:
                continue
            if node.name not in others and \
                    counts[name][node.name] == (node.name in got):
                unused.append(f"{name}: {node.name}")
    return unused


def _uncalled_methods():
    """The methods that nothing in the package reads outside their own
    definition: each one with one leading underscore, and each one of a
    class with one, such as ``moves._Side``.  A method is read as an
    attribute (``self.spots``, ``Coefficient._normal``), so only attribute
    reads count, and a local variable of the same name does not.  The
    reads are counted once per module, and a method is uncalled when all
    of them fall inside its own definition."""
    def reads(node):
        return Counter(sub.attr for sub in ast.walk(node)
                       if isinstance(sub, ast.Attribute)
                       and isinstance(sub.ctx, ast.Load))

    modules = _modules()
    total = sum((reads(tree) for tree in modules.values()), Counter())
    uncalled = []
    for name, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or \
                        node.name.startswith("__"):
                    continue
                if not (node.name.startswith("_") or
                        cls.name.startswith("_")):
                    continue
                if total[node.name] == reads(node)[node.name]:
                    uncalled.append(f"{name}: {cls.name}.{node.name}")
    return uncalled


def test_every_private_helper_has_a_caller():
    assert _unnamed(private=True) == []


def test_every_private_method_has_a_caller():
    assert _uncalled_methods() == []


def test_every_public_name_is_exported_or_used():
    assert _unnamed(private=False) == []


def test_no_module_imports_a_private_name():
    private = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("xctangle")):
                private += [f"{name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":  # re-exports the public names
            continue
        used = _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def _package_modules(node):
    """The modules of the package that an import statement loads, by
    their file stems: ``moves`` for ``from .moves import apply``, ``from .
    import moves`` and ``import xctangle.moves``, ``__init__`` for
    ``import xctangle``."""
    if isinstance(node, ast.ImportFrom):
        path = (node.module or "").split(".")
        if not node.level:
            if path[0] != "xctangle":
                return []
            path = path[1:]
        return [path[0]] if path else [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[2] or "__init__"
                for alias in node.names
                if alias.name.split(".")[0] == "xctangle"]
    return []


def test_no_function_imports_a_package_module():
    # a package module imported inside a function hides a dependency, or
    # breaks an import cycle that the module layout should not have;
    # standard modules that are slow to load (fractions,
    # importlib.resources) are still imported where they are needed
    inner = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner += [f"{name}: {fn.name} imports {module}"
                          for node in ast.walk(fn)
                          for module in _package_modules(node)]
    assert inner == []


def test_module_imports_form_no_cycle():
    # the modules import one way: errors and record below the ring, the
    # diagrams below the algebras, the move engine below the evaluator
    graph = {name[:-3]: {m for node in tree.body for m in _package_modules(node)}
             for name, tree in _modules().items()}
    done, path, cycles = set(), [], []

    def visit(module):
        if module in path:
            cycles.append(path[path.index(module):] + [module])
            return
        if module in done:
            return
        path.append(module)
        for dep in sorted(graph.get(module, ())):
            visit(dep)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
    assert cycles == []


def test_only_the_record_base_guards_its_fields():
    # every immutable value type derives from record.FrozenRecord, the one
    # class that refuses assignment to and deletion of its fields
    guards = [f"{name}: {cls.name}.{node.name}"
              for name, tree in _modules().items() if name != "record.py"
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef)
              and node.name in ("__setattr__", "__delattr__")]
    assert guards == []


def test_cli_import_does_not_load_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize, which cost most
    # of the import time of the package when its records were dataclasses
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = "import sys, xctangle.cli; print('dataclasses' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_cli_import_does_not_load_resources():
    # importlib.resources loads pathlib, zipfile and tempfile; only the
    # shipped data files need it, so it is imported where they are read.
    # fractions loads decimal, and only the rational variant needs it;
    # typing and threading are not needed at all.  -S keeps site from
    # loading these modules before the package does.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    slow = ("importlib.resources", "pathlib", "tempfile", "fractions",
            "decimal", "typing", "threading")
    code = ("import sys, xctangle.cli; "
            f"print([m for m in {slow!r} if m in sys.modules])")
    res = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_zeval_does_not_load_fractions():
    # the payload kernel of the Laurent variant needs neither fractions
    # nor the decimal it loads; only the rational variant imports them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from xctangle import builtin_uqsl2, long_knot_scalar, zeval\n"
        "from xctangle.gauss import parse_diagram\n"
        "from xctangle.virtualt import lift\n"
        "trefoil = parse_diagram('strands: 1\\nchords: 1:+ 2:+ 3:+\\n'\n"
        "                        'strand 1: O1 U2 O3 U1 O2 U3\\n')\n"
        "print(long_knot_scalar(zeval(lift(trefoil), builtin_uqsl2())))\n"
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])\n")
    res = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines() == ["q^4 + 1 - q^-2", "[]"]
