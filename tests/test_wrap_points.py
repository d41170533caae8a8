"""Every binding the benchmark tracer wraps must exist, and every argument
its work counters read must sit where they read it, so that a refactor
cannot silently turn one of its layers or counters into ``None`` or an
error."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAP_POINTS


@pytest.mark.parametrize("layer, module_name, attr", wrap_points())
def test_wrap_point_exists(layer, module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{layer}: {module_name}.{attr} is missing"


# The arguments the tracer's work counters read (``_count`` in spans.py), as
# (module, function, name, position).
COUNTED_ARGUMENTS = (
    ("hypstab.report", "scan_singular_points", "f", 0),
    ("hypstab.report", "scan_singular_points", "height_bound", 1),
    ("hypstab.torus", "torus_destabilize", "f", 0),
    ("hypstab.torus", "solve_lp", "A", 0),
    ("hypstab.torus", "enumerate_weight_oracle", "f", 0),
    ("hypstab.torus", "enumerate_weight_oracle", "bound", 1),
)


@pytest.mark.parametrize("module_name, attr, name, position", COUNTED_ARGUMENTS)
def test_counted_argument_exists(module_name, attr, name, position):
    fn = getattr(importlib.import_module(module_name), attr)
    params = list(inspect.signature(fn).parameters.values())
    assert params[position].name == name, f"{module_name}.{attr}: argument {position} is not {name}"
    assert params[position].kind in (
        inspect.Parameter.POSITIONAL_ONLY,
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
    )
