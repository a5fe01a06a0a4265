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


def test_one_clock_walk_in_the_trajectory_layer():
    # The simulator, the route-choice prices and GPSSampler take edge times
    # from SpeedModel.edge_travel_times; a second .shift( loop would be a
    # second pricing path.
    shifts = [f"{path}:{node.lineno} in {function.name}"
              for path, tree in _src_trees().items() if path.startswith("trajectory")
              for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
              for node in ast.walk(function)
              if isinstance(node, ast.Call) and _call_name(node) == "shift"]
    assert shifts == [shifts[0]] and shifts[0].endswith(" in edge_travel_times"), shifts



#: Type names whose isinstance test decides what a numeric scalar is.
_SCALAR_TYPES = {"bool", "int", "float", "complex", "Integral", "Real", "Number",
                 "integer", "floating", "number"}


def _isinstance_kinds(node):
    """The type names an ``isinstance(x, kinds)`` call tests; empty for other nodes."""
    if not (isinstance(node, ast.Call) and _call_name(node) == "isinstance"
            and len(node.args) == 2):
        return set()
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return {_base_name(kind) for kind in kinds}


def test_one_owner_of_argument_checks():
    # repro/_checks.py decides what counts as an integer or a finite real; a
    # module deciding a scalar's type itself would hold a second policy.
    found = []
    for path, tree in _src_trees().items():
        if path == "_checks.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"):
                found.append(f"{path}:{node.lineno} imports numbers")
            if "bool" in _isinstance_kinds(node):
                found.append(f"{path}:{node.lineno} isinstance(..., bool)")
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith(("_check_", "check_"))
                    and any(_isinstance_kinds(inner) & _SCALAR_TYPES
                            or isinstance(inner, ast.Call) and _call_name(inner) == "index"
                            for inner in ast.walk(node))):
                found.append(f"{path}:{node.lineno} {node.name} tests a scalar's type")
            if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                    and _call_name(node.left) == "type"
                    and any(_base_name(kind) in _SCALAR_TYPES for kind in node.comparators)):
                found.append(f"{path}:{node.lineno} type(...) tests a scalar's type")
    assert not found, found


def _function(tree, class_name, name):
    """The ``def name`` of ``class class_name`` in a parsed module."""
    owner = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) and node.name == class_name)
    return next(node for node in owner.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_cold_start_kernels_avoid_shuffle_add_at_and_scalar_clip():
    # SkipGramTrainer reorders pairs with a permutation-take and scatters with
    # _scatter_add; Generator.shuffle moves an (n, 2) array row by row and
    # np.add.at is several times slower than one bincount.  The speed model
    # clips its two per-edge scalars with min/max: np.clip on a scalar pays
    # for an array round trip on every priced edge.  SpeedModel.__init__'s
    # clip of the per-edge sensitivity array stays.
    trees = _src_trees()
    found = [f"graph/skipgram.py:{node.lineno} {_call_name(node)}"
             for node in ast.walk(trees["graph/skipgram.py"])
             if isinstance(node, ast.Call)
             and (_call_name(node) == "shuffle"
                  or _call_name(node) == "at" and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "add")]
    for class_name, name in (("CongestionProfile", "level"), ("SpeedModel", "edge_speed")):
        found += [f"trajectory/speeds.py:{node.lineno} np.clip in {name}"
                  for node in ast.walk(_function(trees["trajectory/speeds.py"], class_name, name))
                  if isinstance(node, ast.Call) and _call_name(node) == "clip"]
    assert not found, found
    init = _function(trees["trajectory/speeds.py"], "SpeedModel", "__init__")
    assert any(isinstance(node, ast.Call) and _call_name(node) == "clip"
               for node in ast.walk(init))
