"""Every name a ``repro`` package or module exports in ``__all__`` resolves,
and no module carries a second engine next to its own."""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

MODULES = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))


def test_every_layer_is_found():
    layers = {"repro.core", "repro.datasets", "repro.downstream", "repro.evaluation",
              "repro.nn", "repro.trajectory"}
    assert layers <= set(MODULES)


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_no_loop_oracle_or_engine_fork(name):
    # Loop oracles live under tests/ as reference_<module>.py; one engine per
    # layer needs no "_vectorized_" name to tell it apart.
    source = inspect.getsource(importlib.import_module(name))
    forks = re.findall(r"^\s*def (_(?:reference|vectorized)_\w*)", source, re.MULTILINE)
    assert not forks, f"{name} defines {forks}"


def test_one_dijkstra_loop_in_road_search():
    # shortest_path, Yen's spur searches and DijkstraCache share one engine;
    # a second heap-pop loop would be a second engine.
    source = inspect.getsource(importlib.import_module("repro.roadnet.search"))
    assert len(re.findall(r"\bheappop\(", source)) == 1


def test_one_city_loop_in_the_table_runners():
    # Every run_* lists its rows and hands them to _table, which builds the
    # cities; a runner with a build_dataset call would be a second loop.
    harness = importlib.import_module("repro.evaluation.harness")
    assert len(re.findall(r"\bbuild_dataset\(", inspect.getsource(harness))) == 1
    assert re.search(r"\bbuild_dataset\(", inspect.getsource(harness._table))


def test_one_owner_of_the_frozen_node2vec_features():
    # core/model.py turns a WSCCLConfig into node2vec features; every layer,
    # encoder and baseline takes their arrays.  Only the Node2vec baseline
    # runs a fit of its own.
    root = pathlib.Path(repro.__file__).parent
    fits = sorted({
        str(path.relative_to(root)) for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Node2Vec"
    })
    assert fits == ["baselines/graph_embedding.py", "core/model.py"]
    core = "".join(path.read_text() for path in (root / "core").rglob("*.py"))
    assert len(re.findall(r"\bNode2VecConfig\(", core)) == 1


def test_one_update_step_in_src():
    # Every training loop updates through Optimizer.minimize; a
    # zero_grad/backward/step call anywhere else would be a second loop body.
    root = pathlib.Path(repro.__file__).parent
    calls = [
        f"{path.relative_to(root)}:{node.lineno} .{node.func.attr}()"
        for path in sorted(root.rglob("*.py")) if path != root / "nn" / "optim.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("zero_grad", "backward", "step")
    ]
    assert not calls, calls


def test_adam_takes_only_a_learning_rate():
    from repro import nn

    assert list(inspect.signature(nn.Adam).parameters) == ["parameters", "lr"]


def test_sequence_baselines_share_one_fit():
    # MB, BERT, InfoGraph and PIM give only their objective; the loop is
    # SpatialSequenceModel.fit.
    from repro.baselines import BERTPathModel, InfoGraphModel, MemoryBankModel, PIMModel
    from repro.baselines.sequence_encoder import SpatialSequenceModel

    for cls in (MemoryBankModel, BERTPathModel, InfoGraphModel, PIMModel):
        assert "fit" not in vars(cls), cls.__name__
        assert "_objective" in vars(cls), cls.__name__
        assert cls.fit is SpatialSequenceModel.fit


def test_graph_infomax_baselines_share_one_fit():
    from repro.baselines import DGIPathModel, GMIPathModel

    for cls in (DGIPathModel, GMIPathModel):
        assert "fit" not in vars(cls), cls.__name__
        assert "_objective" in vars(cls), cls.__name__
    assert DGIPathModel.fit is GMIPathModel.fit


def _src_trees():
    root = pathlib.Path(repro.__file__).parent
    return {str(path.relative_to(root)): ast.parse(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def _base_name(base):
    return base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)


def test_one_encode_on_a_module():
    # Every path encoder inherits PathEncoder.encode; a module writing out
    # its own would be a second chunked no-grad loop.
    classes = [(path, node) for path, tree in _src_trees().items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    modules = {"Module"}
    while True:
        grown = modules | {node.name for _, node in classes
                           if any(_base_name(base) in modules for base in node.bases)}
        if grown == modules:
            break
        modules = grown
    encodes = [f"{path}:{node.name}" for path, node in classes if node.name in modules
               for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name == "encode"]
    assert encodes == ["core/encoder.py:PathEncoder"]


def test_no_encode_or_predict_takes_a_batch_size():
    found = [f"{path}:{node.lineno} {node.name}" for path, tree in _src_trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name in ("encode", "predict")
             and "batch_size" in [arg.arg for arg in node.args.args + node.args.kwonlyargs]]
    assert not found, found


def test_serving_does_not_inspect_models():
    # The service calls model.encode(paths) and nothing else.
    imports = [f"{path}:{node.lineno}" for path, tree in _src_trees().items()
               if path.startswith("serving")
               for node in ast.walk(tree)
               if (isinstance(node, ast.Import) and any(a.name == "inspect" for a in node.names))
               or (isinstance(node, ast.ImportFrom) and node.module == "inspect")]
    assert not imports, imports


def _ranges_over_edges(node):
    """True for ``range(<...>.num_edges)``."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range"
            and any(isinstance(arg, ast.Attribute) and arg.attr == "num_edges"
                    for arg in node.args))


def test_per_edge_arrays_come_from_roadnet():
    # RoadNetwork's edge_endpoint_matrix, edge_lengths, node_coordinate_matrix
    # and FeatureEncoder.one_hot_matrix own how edges become arrays; a loop
    # over edge ids rebuilding one of them elsewhere would be a second copy.
    per_item = {"edge_endpoints", "edge_length", "node_coordinates", "one_hot"}
    found = []
    for path, tree in _src_trees().items():
        if path.startswith("roadnet"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                iterables = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables = [generator.iter for generator in node.generators]
            else:
                continue
            if not any(_ranges_over_edges(iterable) for iterable in iterables):
                continue
            found += [f"{path}:{call.lineno} .{call.func.attr}()" for call in ast.walk(node)
                      if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                      and call.func.attr in per_item]
    assert not found, found


def _call_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_one_wsc_epoch_loop():
    # The learned and heuristic curricula, "w/o CL" and the experts all train
    # through WSCTrainer.fit; a second minibatch_indices call in core would be
    # a second epoch loop.
    calls = [f"{path}:{node.lineno}" for path, tree in _src_trees().items()
             if path.startswith("core")
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _call_name(node) == "minibatch_indices"]
    assert len(calls) == 1, calls


def test_no_wsccl_fit_calls_another():
    # perfbench's tracer fingerprints every WSCCL.fit* call, nested ones too,
    # so no method of WSCCL may call one of them on self.
    wsccl = next(node for node in ast.walk(_src_trees()["core/wsccl.py"])
                 if isinstance(node, ast.ClassDef) and node.name == "WSCCL")
    fits = {item.name for item in wsccl.body
            if isinstance(item, ast.FunctionDef) and item.name.startswith("fit")}
    assert fits == {"fit", "fit_with_heuristic_curriculum", "fit_without_curriculum"}
    nested = [f"wsccl.py:{call.lineno} self.{call.func.attr}()" for call in ast.walk(wsccl)
              if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
              and call.func.attr in fits and getattr(call.func.value, "id", None) == "self"]
    assert not nested, nested
