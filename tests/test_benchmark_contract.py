"""The repository benchmark's view of the program still resolves.

``perfbench/`` drives only the public ``repro`` surface and, for traced
runs, wraps a fixed list of callables (``perfbench/spans.py``
``TRACE_POINTS``).  A rename there would otherwise surface only as a
crashed benchmark run, so these tests parse the benchmark's sources —
without importing or changing them — and check every name against the
program.
"""

import ast
import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("engine_census.py", "tcp_fleet.py", "stream_ingest.py")


def _trace_points() -> tuple:
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACE_POINTS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACE_POINTS")


def _repro_imports(source: str) -> list[tuple[str, str]]:
    """``(module, name)`` for every ``from repro... import name``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    ]


@pytest.mark.parametrize("point", _trace_points(), ids=lambda point: ".".join(
    part for part in point[:3] if part
))
def test_trace_point_resolves(point):
    module_name, owner_name, attribute = point[:3]
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    # Exactly how the tracer resolves the callable it wraps.
    raw = owner.__dict__[attribute]
    assert callable(getattr(raw, "__func__", raw))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_imports_exist(workload):
    source = (PERFBENCH / workload).read_text()
    imports = _repro_imports(source)
    assert imports, f"{workload} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{module_name}.{name} is gone"
