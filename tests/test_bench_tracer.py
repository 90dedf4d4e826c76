"""The benchmark tracer must keep matching the library it wraps.

bench/tracer.py names the functions and methods it times; a rename or
deletion in rittkit would only show when a traced benchmark run fails.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


@pytest.mark.parametrize("key", tracer.KEYS)
def test_tracer_target_is_callable(key):
    modname, name = key.split(".", 1)
    obj = importlib.import_module(f"rittkit.{modname}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def _namespaces():
    """Every rittkit module and class dictionary, copied."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "rittkit" or name.startswith("rittkit."):
            out[name] = dict(vars(mod))
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_tracer_install_uninstall_restores():
    for modname in tracer.TARGETS:
        importlib.import_module(f"rittkit.{modname}")
    before = _namespaces()
    undo = tracer.install(tracer.Tracer())
    try:
        assert undo
        mod = importlib.import_module("rittkit.conjugacy")
        assert mod.equivalence_witness is not before["rittkit.conjugacy"][
            "equivalence_witness"]
    finally:
        tracer.uninstall(undo)
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr}"
