"""The benchmark under bench/ reads gl3ff from outside the package: the
tracer wraps functions by module and name, and the workloads call module
attributes.  These tests resolve every such name, and bind every such call
to the signature it reaches, so that a rename or a deleted parameter fails
here instead of in a benchmark run.  Of bench/selftest.py they resolve the
(module, name) pairs whose rebinding ``test_rebinding`` checks."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _bench_module("tracer")
    targets = tracer.gl3ff_targets(tracer.Tracer())
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), \
            f"{module.__name__}.{attr}"
    kernel = importlib.import_module("gl3ff.kernel")
    for name in tracer.KERNEL_PRODUCTS:
        assert callable(getattr(kernel, name, None)), f"gl3ff.kernel.{name}"


def _gl3ff_reads(path: Path) -> list:
    """``(line, module name, attribute, call)`` for every attribute read on
    a gl3ff module that ``path`` imports; ``call`` is the call node when the
    attribute is called, else None."""
    tree = ast.parse(path.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gl3ff":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"gl3ff.{alias.name}"
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    return [(node.lineno, aliases[node.value.id], node.attr,
             calls.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in aliases]


@pytest.mark.parametrize("script", ["workloads.py", "synth.py"])
def test_workload_reads_resolve(script):
    reads = _gl3ff_reads(BENCH / script)
    assert reads
    for line, module, attr, call in reads:
        where = f"bench/{script}:{line}: {module}.{attr}"
        obj = getattr(importlib.import_module(module), attr, None)
        assert obj is not None, where
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        try:
            signature = inspect.signature(obj)
        except ValueError:
            continue  # a builtin such as an exception class
        try:
            signature.bind(*call.args, **{k.arg: k for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{where}: {exc}")


def _rebound_names() -> list:
    """``(module name, attribute)`` for every pair that
    ``bench/selftest.py::test_rebinding`` reads as ``(module, "name")``."""
    tree = ast.parse((BENCH / "selftest.py").read_text())
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "test_rebinding")
    modules = {}
    for node in ast.walk(func):
        if isinstance(node, ast.ImportFrom) and node.module == "gl3ff":
            modules.update((a.asname or a.name, f"gl3ff.{a.name}")
                           for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names)
    pairs = [(modules[mod.id], name.value) for node in ast.walk(func)
             if isinstance(node, ast.Tuple) and len(node.elts) == 2
             for mod, name in [node.elts]
             if isinstance(mod, ast.Name) and mod.id in modules
             and isinstance(name, ast.Constant)]
    return list(dict.fromkeys(pairs))


# rebinding pairs of bench/selftest.py that name a function the package no
# longer has (ROADMAP item 1: gaudin_matrix moved from solver to model)
STALE_REBINDINGS = {("gl3ff.solver", "gaudin_matrix")}


@pytest.mark.parametrize("module, attr", [
    pytest.param(module, attr, marks=pytest.mark.xfail(
        strict=True, reason="stale pair in bench/selftest.py, ROADMAP item 1"))
    if (module, attr) in STALE_REBINDINGS else (module, attr)
    for module, attr in _rebound_names()])
def test_selftest_rebindings_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"bench/selftest.py rebinds {module}.{attr}"
