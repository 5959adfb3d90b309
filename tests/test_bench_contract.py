"""The benchmark under bench/ reads gl3ff from outside the package: the
tracer wraps functions by module and name, and the workloads call module
attributes.  These tests resolve every such name, and bind every such call
to the signature it reaches, so that a rename or a deleted parameter fails
here instead of in a benchmark run.  bench/selftest.py is not covered."""

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
