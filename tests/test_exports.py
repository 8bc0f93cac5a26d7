import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import mfbsde

MODULES = ["mfbsde"] + [f"mfbsde.{m.name}" for m in pkgutil.iter_modules(mfbsde.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    # a deleted class or function must not leave a stale export behind
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_a_law_carries_its_model_and_grid():
    # a route that takes a law reads the law's model and grid, so none takes
    # a second model or grid that could disagree with it
    law_takers, clashes = set(), []
    for name in ("forward", "backward", "fluctuation", "harness"):
        module = importlib.import_module(f"mfbsde.{name}")
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            params = set(inspect.signature(fn).parameters)
            assert not params & {"law_flow", "env_law"}, attr
            if "law" in params:
                law_takers.add(attr)
                if params & {"model", "grid"}:
                    clashes.append(f"{name}.{attr}")
    assert clashes == []
    assert law_takers >= {
        "simulate_blocks", "solve_sde_n", "solve_mfbsde", "value_law", "theoretical_covariance",
        "empirical_fields", "solve_limit_system", "coupled_gaps",
    }


def test_brownian_increments_is_called_in_forward_alone():
    # every Brownian draw has one route per kind of path: own paths
    # (`LawFlow.paths`), partner paths (`LawFlow._pools`) and particle clouds
    # (`solve_classical_system`); a call anywhere else is a new route
    callers = set()
    for path in sorted(Path(mfbsde.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "brownian_increments":
                continue
            while node in parents and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node = parents[node]
            callers.add((path.stem, getattr(node, "name", "<module>")))
    assert callers == {("forward", "paths"), ("forward", "_pools"), ("forward", "solve_classical_system")}
