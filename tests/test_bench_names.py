"""Every library name the benchmark's own code reads must exist.

``perfbench/`` imports names from ``pzeta`` and reads attributes off the
library modules it imports (``zeta.odd_supplement_indices``,
``lattice.SubgroupLattice.maximal_node_ids``, ...).  Those scripts are
not run by the tier-1 suite, so this reads their source with ``ast``
and resolves each name, and a cut in ``src/`` cannot silently break
``make_expected.py`` or the workloads."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))
MODULES = ("dirichlet", "rationality", "zeta", "lattice", "permgroup")


def _is_pzeta(module: str | None) -> bool:
    return module == "pzeta" or (module or "").startswith("pzeta.")


def _imports(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for every ``from pzeta[.x] import name``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _is_pzeta(node.module)
        for alias in node.names
    ]


def _module_bindings(tree: ast.Module) -> dict[str, str]:
    """Local name -> library module, for ``from pzeta import zeta`` and
    ``from pzeta import lattice as L`` style imports of ``MODULES``."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pzeta"
        for alias in node.names
        if alias.name in MODULES
    }


def _chain(node: ast.expr, bound: dict[str, str]) -> tuple[str, ...] | None:
    """``m.a.b`` as (module, "a", "b") when its root m is a bound
    library module; the module alone for ``m``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return (bound[node.id], *reversed(parts))
    return None


def _attribute_chains(tree: ast.Module, bound: dict[str, str]) -> set[tuple[str, ...]]:
    """Every dotted read ``m.a.b`` off a bound library module, and every
    ``(m.a, "b", ...)`` tuple, the form in which the tracer names the
    attributes it patches, as (module, "a", "b")."""
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _chain(node, bound)
        elif (
            isinstance(node, ast.Tuple)
            and len(node.elts) >= 2
            and isinstance(node.elts[1], ast.Constant)
            and isinstance(node.elts[1].value, str)
        ):
            owner = _chain(node.elts[0], bound)
            chain = owner and (*owner, node.elts[1].value)
        else:
            continue
        if chain:
            chains.add(chain)
    return chains


def _parsed():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SCRIPTS}


def test_perfbench_scripts_found():
    assert {"make_expected.py", "tracing.py", "workloads.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("script", [p.name for p in SCRIPTS])
def test_every_imported_library_name_resolves(script):
    for module, name in _imports(_parsed()[script]):
        owner = importlib.import_module(module)
        if not hasattr(owner, name):
            importlib.import_module(f"{module}.{name}")  # a submodule


@pytest.mark.parametrize("script", [p.name for p in SCRIPTS])
def test_every_attribute_read_off_a_library_module_resolves(script):
    tree = _parsed()[script]
    for module, *attrs in sorted(_attribute_chains(tree, _module_bindings(tree))):
        obj = importlib.import_module(f"pzeta.{module}")
        for i, attr in enumerate(attrs):
            assert hasattr(obj, attr), f"{script}: pzeta.{'.'.join([module, *attrs[: i + 1]])}"
            obj = getattr(obj, attr)


def test_the_scan_sees_the_names_the_benchmark_uses():
    trees = _parsed()
    imported = {name for tree in trees.values() for _, name in _imports(tree)}
    chains = {c for tree in trees.values() for c in _attribute_chains(tree, _module_bindings(tree))}
    assert "generation_counts" in imported
    assert ("zeta", "odd_supplement_indices") in chains
    assert ("lattice", "SubgroupLattice", "quotient_with_hom") in chains
