import ast
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import quiverperm


def test_public_names_resolve():
    # a name left in __all__ after its definition is gone breaks star imports
    assert [name for name in quiverperm.__all__
            if not hasattr(quiverperm, name)] == []
    namespace = {}
    exec("from quiverperm import *", namespace)
    assert set(quiverperm.__all__) <= set(namespace)


def test_public_names_are_exported():
    # a name the package imports but leaves out of __all__ is missing from
    # star imports
    public = [name for name, value in vars(quiverperm).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(set(public) - set(quiverperm.__all__)) == []


def test_cli_import_leaves_fractions_out():
    # fractions pulls in decimal and numbers, a few ms on every CLI start;
    # roots needs Fraction only for an annotation
    src = str(Path(quiverperm.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, quiverperm.cli; "
            "print(quiverperm.__file__); print('fractions' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == [quiverperm.__file__, "False"]


def test_no_unused_imports():
    package = Path(quiverperm.__file__).parent
    root = Path(__file__).parent.parent
    # __init__ imports names only to re-export them
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(root.glob("tests/*.py")) + sorted(root.glob("demos/*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0]
                                for alias in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported.update(alias.asname or alias.name
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(path.parent.parent)}: {name}"
                   for name in sorted(imported - used)]
    assert unused == []


def test_benchmark_trace_targets_resolve():
    # a traced name that no longer exists silently drops its per-layer
    # metrics from the benchmark's traced runs
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, owner, attr in tracing.TARGETS:
        module_name, _, class_name = owner.partition(":")
        holder = importlib.import_module(module_name)
        if class_name:
            holder = getattr(holder, class_name, None)
        if holder is None or attr not in vars(holder):
            missing.append(f"{owner}.{attr}")
    assert missing == []


FORMULA_NAMES = {"transposition_of", "formula_permutation",
                 "check_preservation"}
# the modules observations come from: none of them may see the formula
OBSERVERS = ("perm", "quiver", "roots", "picture", "standard", "search")


def test_only_formula_knows_the_formula():
    package = Path(quiverperm.__file__).parent
    # __init__ re-exports and cli reports; neither observes anything
    paths = [p for p in sorted(package.glob("*.py"))
             if p.stem not in ("__init__", "cli", "formula")]
    assert set(OBSERVERS) <= {p.stem for p in paths}
    leaks = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
                names = set()
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = "quiverperm" + (f".{base}" if base else "")
                names = {alias.name for alias in node.names}
                modules = {base} | {f"{base}.{name}" for name in names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                modules, names = set(), {node.name}
            else:
                continue
            if path.stem in OBSERVERS and "quiverperm.formula" in modules:
                leaks.append(f"{path.name} imports quiverperm.formula")
            leaks += [f"{path.name}: {name}"
                      for name in sorted(names & FORMULA_NAMES)]
    assert leaks == []
