"""The benchmark harness under ``perfbench/`` looks datarecon names up by
string: the tracer wraps them with ``getattr`` and no default, the child
process replaces functions on ``datarecon.cli``, and the output checks
import them. A renamed or deleted name would crash every benchmark run, so
each one must still resolve. The harness files are read
as source and not executed."""

import ast
import importlib
from pathlib import Path

from datarecon import attack, cli, models

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _literal(path: Path, name: str):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {path}")


def test_tracer_targets_resolve():
    tracer = PERFBENCH / "tracer.py"
    module_functions = _literal(tracer, "MODULE_FUNCTIONS")
    assert module_functions
    for mod_name, pairs in module_functions.items():
        mod = importlib.import_module(f"datarecon.{mod_name}")
        for attr, _ in pairs:
            assert callable(getattr(mod, attr, None)), f"datarecon.{mod_name}.{attr}"
    for cls_name in _literal(tracer, "MODEL_CLASSES"):
        assert isinstance(getattr(models, cls_name, None), type), cls_name
    assert callable(cli.attack.callback)
    assert callable(attack.AttackTrace.write_csv)


# Model methods that the tracer still lists but no bundled model has since the
# per-point callbacks were deleted and the prior became the last entry of the
# coefficient maps; their spans read 0 until the tracer drops them.
STALE_MODEL_METHODS = {"trace_batch", "quad_batch", "jac_score_batch", "grad_trace_batch",
                       "grad_quad_batch", "prior_trace_batch", "prior_quad_batch",
                       "jac_data_batch", "log_prior", "prior_score_batch"}


def test_tracer_model_methods_resolve():
    # the tracer skips a method no class has, so a renamed one would time nothing
    tracer = PERFBENCH / "tracer.py"
    classes = [getattr(models, name) for name in _literal(tracer, "MODEL_CLASSES")]
    unresolved = {meth for meth in _literal(tracer, "MODEL_METHODS")
                  if not any(hasattr(cls, meth) for cls in classes)}
    assert unresolved == STALE_MODEL_METHODS


def test_check_imports_resolve():
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("datarecon")
             for alias in node.names]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_child_cli_names_resolve():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "cli"}
    assert attrs
    for attr in attrs:
        assert hasattr(cli, attr), f"datarecon.cli.{attr}"
