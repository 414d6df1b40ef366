"""Every name the benchmark's tracer wraps still exists where it looks for it.

`bench/spans.py` patches the functions and methods listed in its `LAYERS`
table by name; a renamed or moved one would only show when the benchmark
runs.  The table is read from the file itself, so this test never drifts
from it.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module_name,name", [
    (module_name, name) for module_name, names in _layers().values() for name in names
])
def test_wrapped_name_resolves(module_name, name):
    module = import_module(module_name)
    if "." in name:
        cls_name, attr = name.split(".")
        raw = vars(getattr(module, cls_name))[attr]  # the class's own attribute
        if attr == "build":
            assert isinstance(raw, classmethod)
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)
    else:
        assert callable(getattr(module, name))
