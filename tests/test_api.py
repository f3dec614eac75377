"""The public surface: what `crystalembed` exports, and what it no longer has."""

import ast
import importlib
from dataclasses import fields
from inspect import signature
from pathlib import Path

import pytest

import crystalembed
from crystalembed.augmentation import AugmentedView
from crystalembed.optim import adam_step

# names each module no longer has: code only tests used, and the canonical
# edge order, which only periodic_graph knows
REMOVED = {
    "augmentation": ["DroppedEdges", "identity_view", "reconstruct_original",
                     "_lex_order"],
    "augmentation.AugmentedView": ["graph", "dropped"],
    "periodic_graph.PeriodicGraph": ["edge_keys", "edge_multiset",
                                     "unordered_keys"],
    "encoder": ["message_passing"],
    "encoder.EncoderParams": ["edge_dim"],
    "autograd": ["exp", "grad_check"],
    "autograd.Tensor": ["item"],
    "structures": ["structures_equal"],
}


def test_every_exported_name_resolves():
    assert len(set(crystalembed.__all__)) == len(crystalembed.__all__)
    for name in crystalembed.__all__:
        assert getattr(crystalembed, name) is not None, name


@pytest.mark.parametrize("owner", sorted(REMOVED))
def test_removed_names_stay_gone(owner):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"crystalembed.{module}")
    if cls:
        obj = getattr(obj, cls)
    for name in REMOVED[owner]:
        assert not hasattr(obj, name), f"{owner}.{name}"
        assert name not in crystalembed.__all__


def test_a_view_is_its_masks():
    assert [f.name for f in fields(AugmentedView)] == [
        "source", "keep", "masked_nodes"]


def test_adam_step_reads_only_the_parameter_gradients():
    assert list(signature(adam_step).parameters) == ["state", "params"]


def _names_read(tree):
    """The names a module reads, plus the names its __all__ exports."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return read


def _unused_imports(path):
    """(line, name) of every name a module imports and never reads, except
    the names it exports through __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _names_read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name != "*" and name not in read:
                    yield node.lineno, name


def _unread_definitions(paths):
    """(path, line, name) of every module-level def or class, and every
    non-dunder method of a module-level class, that no module among paths
    reads (by name or as an attribute) and no __all__ exports. A method is
    named Class.method."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set()
    for tree in trees.values():
        read |= _names_read(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in read):
                yield path, node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, ast.FunctionDef)
                            and not method.name.startswith("__")
                            and method.name not in read):
                        yield path, method.lineno, f"{node.name}.{method.name}"


def test_no_module_imports_a_name_it_never_reads():
    root = Path(__file__).resolve().parents[1]
    paths = sorted([*(root / "src" / "crystalembed").rglob("*.py"),
                    *(root / "tests").rglob("*.py")])
    assert paths
    assert [f"{path.relative_to(root)}:{line}: {name}" for path in paths
            for line, name in _unused_imports(path)] == []


def test_every_src_definition_is_read():
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "crystalembed").rglob("*.py"))
    assert paths
    assert [f"{path.relative_to(root)}:{line}: {name}"
            for path, line, name in _unread_definitions(paths)] == []
