import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["SPANS", "COUNTS"])
def test_every_traced_name_resolves(table):
    # The benchmark's tracer wraps each (module, attribute path) in place,
    # reading the attribute from its owner's __dict__ (Tracer.install); a
    # name that no longer resolves there is reported as "not traced
    # (missing)" and its span or counter reads 0.
    targets = getattr(_tracer(), table)
    assert targets
    missing = []
    for modname, path, _ in targets:
        module = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or owner.__dict__.get(attr) is None:
            missing.append(f"{modname}.{path}")
    assert missing == []
