"""Every binding the benchmark tracer wraps must exist, so that a refactor
cannot silently turn one of its layers into ``None``."""
from __future__ import annotations

import importlib
import importlib.util
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
