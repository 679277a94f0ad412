"""Documentation quality gates.

Two levels of enforcement:

* every public module/class/function anywhere in the library carries a
  docstring (the original deliverable-(e) gate);
* the **audited modules** — the flagship public surfaces named by the
  docs issue — additionally document every parameter by name, so an
  Args section cannot silently rot when a signature changes.
"""

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

#: Modules whose public docstrings must mention every parameter.
AUDITED_MODULES = [
    "repro.core.compose",
    "repro.core.release",
    "repro.core.sharding",
    "repro.queries.engine",
    "repro.planner",
    "repro.analysis.exact",
    "repro.serving.registry",
    "repro.serving.network",
    "repro.serving.requests",
    "repro.serving.server",
    "repro.serving.shm",
    "repro.serving.stats",
    "repro.streaming.publisher",
    "repro.streaming.release",
    "repro.streaming.tree",
]


def _public_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        names.append(info.name)
    return names


@pytest.mark.parametrize("module_name", _public_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert (module.__doc__ or "").strip(), f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", _public_modules())
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    undocumented = []
    for name in exported:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (inspect.getdoc(obj) or "").strip():
                undocumented.append(name)
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                    if method_name.startswith("_"):
                        continue
                    if not (inspect.getdoc(method) or "").strip():
                        undocumented.append(f"{name}.{method_name}")
    assert undocumented == [], f"{module_name}: undocumented public items {undocumented}"


def _documented_params(function, owner_doc: str) -> list[str]:
    """Parameter names the docstring (or the owning class's) must mention."""
    try:
        signature = inspect.signature(function)
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return []
    doc = (inspect.getdoc(function) or "") + "\n" + owner_doc
    missing = []
    for name, parameter in signature.parameters.items():
        if name in {"self", "cls"} or name.startswith("_"):
            continue
        if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
            continue
        if not re.search(rf"\b{re.escape(name)}\b", doc):
            missing.append(name)
    return missing


def test_every_public_name_has_an_executable_api_entry():
    """Each ``repro.__all__`` name appears in a ```python block of API.md.

    ``tests/test_docs.py`` already executes every fenced block and
    checks the page *mentions* each name; this gate is stricter — a
    public entry point must show up inside executable code, so its
    documented usage cannot rot without CI noticing.
    """
    api_doc = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    blocks = "\n".join(
        match.group(1)
        for match in re.finditer(r"```python\n(.*?)```", api_doc.read_text(), re.DOTALL)
    )
    missing = [
        name
        for name in repro.__all__
        if not re.search(rf"\b{re.escape(name)}\b", blocks)
    ]
    assert missing == [], (
        f"docs/API.md has no executable entry for: {missing}"
    )


@pytest.mark.parametrize("module_name", AUDITED_MODULES)
def test_audited_modules_document_every_parameter(module_name):
    """Flagship surfaces: each public callable names all its parameters."""
    module = importlib.import_module(module_name)
    violations = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            for param in _documented_params(obj, ""):
                violations.append(f"{name}({param})")
        elif inspect.isclass(obj):
            class_doc = inspect.getdoc(obj) or ""
            # Dataclass __init__s are generated; their fields are
            # documented as attribute comments, not parameter sections.
            if not dataclasses.is_dataclass(obj):
                for param in _documented_params(obj.__init__, class_doc):
                    violations.append(f"{name}.__init__({param})")
            for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                for param in _documented_params(method, class_doc):
                    violations.append(f"{name}.{method_name}({param})")
    assert violations == [], (
        f"{module_name}: parameters missing from docstrings: {violations}"
    )
