"""Import structure of the package: every import sits at module level, the
modules of ``priceband`` import each other without a cycle, importing the
CLI loads no ``scipy`` module and starts no thread, only the CLI turns
weather volatility into a noise sigma, only ``ctsgan`` knows the model
file's format, only ``jsonread`` checks the type of a parsed JSON value,
every entry point the benchmark's tracer wraps and every module attribute
its workloads read exists, and every public function and class is named
outside its own definition."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "priceband"


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _package_imports(tree: ast.Module, names) -> set[str]:
    """Sibling modules a module imports: ``from . import x``, ``from .x
    import y`` and ``import priceband.x`` forms."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.split(".")[0] == "priceband":
                parts = node.module.split(".")
                found.update(parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "priceband" and len(parts) > 1:
                    found.add(parts[1])
    return found & set(names)


def test_no_import_inside_a_function():
    offenders = []
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        offenders.append(f"{name}.{func.name} (line {node.lineno})")
    assert offenders == []


def test_package_import_graph_is_acyclic():
    modules = _modules()
    graph = {name: _package_imports(tree, modules) for name, tree in modules.items()}
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        if name in path:
            cycle = path[path.index(name):] + (name,)
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        for dep in sorted(graph[name]):
            visit(dep, path + (name,))
        done.add(name)

    for name in sorted(graph):
        visit(name, ())


def test_importing_the_cli_loads_no_scipy_and_starts_no_thread():
    """Checked in a fresh interpreter: the package needs numpy alone
    (``scipy.special`` costs about 26 MB and 0.25 s of import), and the
    evaluation pool is made per call."""
    code = (
        "import sys, threading, priceband.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
        "threading.active_count())"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert result.stdout.split() == ["[]", "1"]


def test_only_cli_imports_weather_volatility():
    """The commands decide each day's sigma once; prediction and scoring take
    it as a number."""
    modules = _modules()
    importers = [
        name for name, tree in modules.items()
        if "weather_volatility" in _package_imports(tree, modules)
    ]
    assert importers == ["cli"]


def test_only_ctsgan_knows_the_checkpoint_format():
    """No module but ``ctsgan`` imports ``base64`` or names
    ``CheckpointError`` (``errors`` defines it), so the model file's format
    sits behind one module."""
    knowers = set()
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Import)
                and any(alias.name.split(".")[0] == "base64" for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "base64"
                or "CheckpointError" in {getattr(node, f, None) for f in ("id", "attr", "name")}
            ):
                knowers.add(name)
    assert knowers == {"ctsgan", "errors"}


# Types of parsed JSON values whose checks belong to ``jsonread``.
_JSON_TYPES = {"bool", "int", "float", "str", "dict", "list"}


def _type_predicates(tree: ast.Module) -> list[int]:
    """Lines of ``isinstance(x, T)`` and of ``type(x)`` compared with T
    (``is``, ``is not``, ``in``, ``==``, ...) where T names a JSON value type."""

    def named(node: ast.expr) -> bool:
        return bool({n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & _JSON_TYPES)

    def type_call(node: ast.expr) -> bool:
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"

    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2 and named(node.args[1])
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            others = [o for o in operands if not type_call(o)]
            if len(others) < len(operands) and any(named(o) for o in others):
                lines.append(node.lineno)
    return lines


def test_only_jsonread_checks_json_value_types():
    """Every JSON input reads its fields through ``jsonread``, so no other
    module tests a value with ``isinstance(v, bool | dict | list)`` or
    ``type(v) is int``; ``jsonread`` imports nothing of the package but
    ``errors``."""
    modules = _modules()
    found = {name: _type_predicates(tree) for name, tree in modules.items()}
    assert found.pop("jsonread")
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _package_imports(modules["jsonread"], modules) == {"errors"}


def _attribute_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``("wv", "VolatilityThresholds", "from_json")`` for the expression
    ``wv.VolatilityThresholds.from_json``; None unless it is names joined by
    dots."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, *reversed(names)) if isinstance(node, ast.Name) else None


def _bench_tree(name: str) -> ast.Module:
    return ast.parse((ROOT / "bench" / name).read_text(encoding="utf-8"))


def _entry_points() -> dict[str, tuple[str, ...]]:
    """bench/tracer.py's ``ENTRY_POINTS``: module name -> the functions the
    tracer wraps."""
    return next(
        ast.literal_eval(node.value)
        for node in _bench_tree("tracer.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets)
    )


def test_bench_entry_points_resolve():
    """Each ``ENTRY_POINTS`` name in bench/tracer.py is a callable of its
    priceband module, and each attribute chain that bench/workloads.py reads
    off a priceband module it imports (``wv.classify_volatility``,
    ``wv.VolatilityThresholds.from_json``, ``data_ingest.load_dataset``, ...)
    resolves. Both files are read with ``ast``, so ``bench`` is not
    imported."""
    entry_points = _entry_points()
    missing = [
        f"{module}.{name}"
        for module, names in entry_points.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"priceband.{module}"), name, None))
    ]
    assert entry_points and missing == []

    workloads = _bench_tree("workloads.py")
    modules = {
        alias.asname or alias.name: importlib.import_module(f"priceband.{alias.name}")
        for node in workloads.body
        if isinstance(node, ast.ImportFrom) and node.module == "priceband"
        for alias in node.names
    }
    chains = {
        chain
        for node in ast.walk(workloads)
        if isinstance(node, ast.Attribute)
        and (chain := _attribute_chain(node)) is not None
        and chain[0] in modules
    }
    unresolved = []
    for root, *names in sorted(chains):
        target = modules[root]
        for name in names:
            if not hasattr(target, name):
                unresolved.append(".".join([root, *names]))
                break
            target = getattr(target, name)
    assert {"wv", "data_ingest", "ctsgan"} <= modules.keys() and len(chains) > len(modules)
    assert unresolved == []


def _names_used(tree: ast.Module, names) -> set[tuple[str, str]]:
    """``(module, name)`` for each name of a package module that ``tree``
    names: ``from .m import f`` and ``from priceband.m import f`` give
    ``(m, f)``, and so does ``m.f`` after ``from . import m`` or ``from
    priceband import m as alias``."""
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level <= 1:
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "priceband":
                    continue
                path = path[1:]
            if not path or path == [""]:
                aliases.update({a.asname or a.name: a.name for a in node.names if a.name in names})
            elif path[0] in names:
                used.update((path[0], a.name) for a in node.names)
    for node in ast.walk(tree):
        chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            used.add((aliases[chain[0]], chain[1]))
    return used


def test_every_public_name_has_a_caller():
    """Each public top-level function and class of the package is named
    outside its own definition: by another package module, by its own
    module (``cli``'s command table names the ``cmd_*`` functions, the
    harness names ``metrics.ecpas``), or by the benchmark (the tracer's
    ``ENTRY_POINTS`` or what bench/workloads.py reads). So nothing in the
    library lives for the tests alone. Two names are kept without a caller:
    ``seqnet.gradient_check``, the reference the gradient tests compare
    against, and ``weather_volatility.pearson_correlation``, which waits for
    ``calibrate`` to screen the weather factors against price, as the paper
    does."""
    modules = _modules()
    used = {(module, name) for module, names in _entry_points().items() for name in names}
    used |= _names_used(_bench_tree("workloads.py"), modules)
    for name, tree in modules.items():
        used |= {(module, f) for module, f in _names_used(tree, modules) if module != name}
        for top in tree.body:
            defined = getattr(top, "name", None)
            used |= {(name, n.id) for n in ast.walk(top) if isinstance(n, ast.Name) and n.id != defined}
    public = {
        (name, node.name)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    allowed = {("seqnet", "gradient_check"), ("weather_volatility", "pearson_correlation")}
    assert sorted(public - used) == sorted(allowed)
