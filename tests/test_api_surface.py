"""The package keeps only names something reads.

Parses ``src/agencykit`` and ``bench/`` with ``ast``: every imported name is
used in its module, every module-level public function, class or UPPER_CASE
constant is referenced somewhere in the package outside its own definition,
used by the benchmark, or exported in ``agencykit.__all__``, and every
module-level private function or class is referenced by another package
statement (the benchmark and ``__all__`` do not count for a private name).
A module imports single-underscore names from ``agencykit.kernel`` alone,
which holds the shared input checks and the translation convention. Outside
``bench/``, the adapters only the benchmark calls appear in their own
definitions, in the package imports the benchmark reads and in
``tests/test_bench_adapters.py``, nowhere else.
"""

import ast
from pathlib import Path

import pytest

import agencykit

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "agencykit"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(nodes) -> set[str]:
    """Names read as variables or attributes, or imported by name, under ``nodes``."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


def defined_names(node: ast.stmt) -> list[str]:
    """Public functions and classes, and UPPER_CASE constants, a module statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [] if node.name.startswith("_") else [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name) and sub.id.isupper()]
    return []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        elif isinstance(node, ast.Import):
            imported.update({(alias.asname or alias.name).split(".")[0]: node.lineno
                             for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def unread_definitions(names_of) -> list[str]:
    """``path:line name`` of each name ``names_of(statement)`` lists that no other statement reads."""
    trees = {path: parse(path) for path in MODULES}
    statements = [(node, referenced_names([node])) for tree in trees.values() for node in tree.body]
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            for name in names_of(node):
                if not any(name in names for other, names in statements if other is not node):
                    unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_every_public_definition_is_read():
    bench = referenced_names(parse(p) for p in sorted((ROOT / "bench").rglob("*.py")))
    kept = bench | set(agencykit.__all__)
    assert unread_definitions(lambda node: [n for n in defined_names(node) if n not in kept]) == []


def test_every_private_helper_has_a_caller():
    def private(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            return [node.name]
        return []

    assert unread_definitions(private) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_are_imported_only_from_kernel(path):
    borrowed = [f"{node.module}.{alias.name}" for node in ast.walk(parse(path))
                if isinstance(node, ast.ImportFrom) and node.module != "agencykit.kernel"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert borrowed == []


def test_one_paper_configuration():
    # the paper configuration is a value: only holonomy_config, which the
    # benchmark calls with "paper", still takes a profile name
    takes_profile, profiles = [], []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "profile" for p in params):
                    takes_profile.append(f"{path.name}:{getattr(node, 'name', 'lambda')}")
            elif isinstance(node, ast.Name) and node.id == "PROFILES":
                profiles.append(f"{path.name}:{node.lineno}")
    assert takes_profile == ["experiments.py:holonomy_config"]
    assert profiles == []


# the adapters only ``bench/`` still calls (ROADMAP item 2 deletes them)
ADAPTERS = {"channel_capacity", "feasible_empowerment", "median_empowerment_on_kernel",
            "validate_kernel", "ValidationReport", "holonomy_config"}
# what an adapter's definition may name besides itself: the report validate_kernel
# returns, and the call to channel_capacity whose span nesting bench/tests pins
WITHIN = {"validate_kernel": {"ValidationReport"}, "feasible_empowerment": {"channel_capacity"}}


def identifiers(node):
    """(line, name) of each name read, imported or defined under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.lineno, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.lineno, sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from ((sub.lineno, alias.name) for alias in sub.names)
        elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            yield sub.lineno, sub.name


def test_adapters_appear_only_where_the_benchmark_needs_them():
    # names the benchmark reads as attributes of the package itself
    bench_reads = {node.attr for path in sorted((ROOT / "bench").rglob("*.py"))
                   for node in ast.walk(parse(path)) if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id in ("agencykit", "ak")}
    stray = []
    for path in sorted({*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
                        *(ROOT / "demos").rglob("*.py")}):
        if path.name == "test_bench_adapters.py":
            continue
        for node in parse(path).body:
            allowed = set()
            if path.parent == PACKAGE and getattr(node, "name", None) in ADAPTERS:
                allowed = {node.name, *WITHIN.get(node.name, ())}
            elif path == PACKAGE / "__init__.py" and isinstance(node, ast.ImportFrom):
                allowed = bench_reads
            stray += [f"{path.relative_to(ROOT)}:{line} {name}" for line, name in identifiers(node)
                      if name in ADAPTERS and name not in allowed]
    assert stray == []
