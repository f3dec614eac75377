"""The public surface: what `crystalembed` exports, and what it no longer has."""

import ast
import importlib
import sys
from dataclasses import fields
from inspect import signature
from pathlib import Path

import pytest

import crystalembed
from crystalembed import autograd, contrastive, decoders, errors
from crystalembed.augmentation import AugmentedView
from crystalembed.downstream import DownstreamModel
from crystalembed.optim import adam_step

# names each module no longer has: code only tests used, the canonical edge
# order, which only periodic_graph knows, and the InfoNCE pairing, which the
# batch layout fixes, and the downstream feature closure, whose parameters
# are now the model's own fields
REMOVED = {
    "augmentation": ["DroppedEdges", "identity_view", "reconstruct_original",
                     "_lex_order"],
    "augmentation.AugmentedView": ["graph", "dropped"],
    "periodic_graph.PeriodicGraph": ["edge_keys", "edge_multiset",
                                     "unordered_keys", "_keys_and_mirrors",
                                     "_number_groups"],
    "encoder": ["message_passing"],
    "encoder.EncoderParams": ["edge_dim", "num_layers"],
    "autograd": ["exp", "grad_check"],
    "autograd.Tensor": ["item", "shape"],
    "contrastive": ["paired_batch_partners", "_check_pairing"],
    "structures": ["structures_equal"],
    "downstream": ["make_atom_featurizer", "_require_elements"],
    "downstream.DownstreamModel": ["trainable", "featurize", "feat_tensors"],
    "embeddings.ElementEmbeddingTable": ["row"],
    "checkpoint.CheckpointData": ["path"],
    "periodic_graph.MultiplicityTargets": ["__post_init__"],
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


def test_a_downstream_model_is_its_parameters():
    assert [f.name for f in fields(DownstreamModel)] == [
        "cfg", "lookup", "adapter_w", "adapter_b", "table", "layers",
        "head_w", "head_b"]


def test_adam_step_reads_only_the_parameter_gradients():
    assert list(signature(adam_step).parameters) == ["state", "params"]


def test_info_nce_and_l2_normalize_rows_take_no_options():
    assert list(signature(contrastive.info_nce).parameters) == [
        "z", "temperature"]
    assert list(signature(autograd.l2_normalize_rows).parameters) == ["a"]


@pytest.mark.parametrize("fn, name", [
    *((fn, "segments") for fn in (
        autograd.bilinear, decoders._segment_mean_nll, decoders.node_nll,
        decoders.adjacency_probs, decoders.adj_weighted_ce, contrastive.project)),
    (decoders.node_nll, "scope"),
], ids=lambda v: getattr(v, "__name__", v))
def test_loss_path_arguments_have_no_default(fn, name):
    param = signature(fn).parameters[name]
    assert param.default is param.empty


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
    """(path, line, name) of every module-level def or class that no module
    among paths reads (by name or as an attribute) and no __all__ exports,
    and every non-dunder method of a module-level class that no module among
    paths reads as an attribute: a local of the same name does not count. A
    method is named Class.method."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    names, attrs = set(), set()
    for tree in trees.values():
        names |= _names_read(tree)
        attrs |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read = names | attrs
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in read):
                yield path, node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, ast.FunctionDef)
                            and not method.name.startswith("__")
                            and method.name not in attrs):
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


def _third_party_imports(source):
    """(line, top-level name) of every absolute import in source that is
    neither the standard library, numpy nor crystalembed."""
    allowed = {*sys.stdlib_module_names, "numpy", "crystalembed"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in allowed:
                yield node.lineno, name.partition(".")[0]


def test_src_imports_only_the_stdlib_and_numpy():
    # pyproject declares numpy as the one runtime dependency
    assert list(_third_party_imports(
        "import scipy.linalg\nfrom os import path\nfrom . import x\n"
        "from numpy.linalg import norm\nfrom crystalembed import y\n"
        "import json, torch\n")) == [(1, "scipy"), (6, "torch")]
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "crystalembed").rglob("*.py"))
    assert paths
    assert [f"{path.relative_to(root)}:{line}: {name}" for path in paths
            for line, name in _third_party_imports(
                path.read_text(encoding="utf-8"))] == []


def _foreign_raises(source):
    """(line, exception) of every raise in source of a class outside the
    package's errors. A bare re-raise, `type(exc)(...)`, which re-raises the
    class caught, and argparse's ArgumentTypeError pass."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(raised, ast.Call) and ast.unparse(raised.func) == "type":
            continue
        name = ast.unparse(raised)
        cls = getattr(errors, name, None)
        if not (name == "argparse.ArgumentTypeError" or isinstance(cls, type)
                and issubclass(cls, errors.CrystalEmbedError)):
            yield node.lineno, name


def test_every_src_raise_is_a_package_error():
    # errors.py alone decides which class, and so which exit code, a fault has
    assert list(_foreign_raises(
        "raise ValueError('x')\nraise ParseError('y') from None\nraise\n"
        "raise type(exc)('z')\nraise TypeError\n"
        "raise argparse.ArgumentTypeError('a')\nraise ShapeError\n")) == [
            (1, "ValueError"), (5, "TypeError")]
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "crystalembed").rglob("*.py"))
    assert paths
    assert [f"{path.relative_to(root)}:{line}: {name}" for path in paths
            for line, name in _foreign_raises(path.read_text(encoding="utf-8"))] == []
