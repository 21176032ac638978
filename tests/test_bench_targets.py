"""The benchmark's traced run wraps library functions by name; they must exist.

perfbench/worker.py looks each TRACED function up in its toric_fiber_lab
module and counts lift failures by the LIFT_ERRORS class names.  A library
function kept only for the benchmark (eval_hessian has no library caller)
would otherwise break the benchmark, not the tests, when deleted.
"""

import ast
import importlib
import pathlib

import toric_fiber_lab.errors as errors

WORKER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _worker_constant(name: str):
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {WORKER.name}")


def test_traced_functions_exist():
    traced = _worker_constant("TRACED")
    assert traced
    for mod, funcs in traced.items():
        module = importlib.import_module(f"toric_fiber_lab.{mod}")
        for f in funcs:
            assert callable(getattr(module, f, None)), f"{mod}.{f}"


def test_lift_errors_exist():
    names = _worker_constant("LIFT_ERRORS")
    assert names
    for name in names:
        assert issubclass(getattr(errors, name, type(None)), Exception), name
