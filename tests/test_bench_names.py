"""Every name the benchmark tracer wraps must exist in the library.

``bench/tracer.py`` wraps library functions by name and raises when one is
missing, so a rename in ``specpoly`` would break the benchmark.  This test
loads the tracer's target table by path and resolves each entry.
"""

import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("module, attr, span",
                         tracer.TARGETS + tracer.OPTIONAL)
def test_traced_name_resolves(module, attr, span):
    owner = importlib.import_module(f"specpoly.{module}")
    *cls_path, field = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert field in vars(owner), f"specpoly.{module}.{attr} is gone ({span})"
