"""Every function the benchmark's traced run wraps exists in ``phhs``.

``bench/spans.py`` lists, layer by layer, the functions and methods that a
traced benchmark run wraps in spans.  Renaming or deleting one of them in
``phhs`` breaks only that traced run, which the tests under ``tests/`` do
not execute, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in _layers().items() for name in names])
def test_traced_name_resolves_in_phhs(layer, name):
    mod = importlib.import_module(f"phhs.{layer}")
    if "." in name:
        # the tracer rebinds a method in its class's own namespace
        cls_name, meth = name.split(".")
        fn = vars(getattr(mod, cls_name)).get(meth)
    else:
        fn = getattr(mod, name, None)
    assert callable(fn), f"bench/spans.py traces phhs.{layer}.{name}, which does not exist"
