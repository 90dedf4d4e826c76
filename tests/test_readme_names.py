"""Every `module.name` or `rittkit.module.name` that README.md cites in
backticks names an attribute of `rittkit.<module>`, so the README cannot
keep naming a helper after it is deleted or renamed."""

import importlib
import pkgutil
import re
from pathlib import Path

import rittkit

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
MODULES = sorted(m.name for m in pkgutil.iter_modules(rittkit.__path__))
CITATION = re.compile(r"(?<![\w.])(?:rittkit\.)?(" + "|".join(MODULES)
                      + r")\.([A-Za-z_]\w*)")


def cited_names(text: str) -> set:
    """(module, name) for each citation inside a backticked span."""
    return {m.groups() for span in re.findall(r"`([^`\n]+)`", text)
            for m in CITATION.finditer(span)}


def test_citations_are_found():
    text = ("`poly.series_root(Q, n, terms)` and `rittkit.field.power`, "
            "not `bench/run.py`, `Poly.scale` or `poly` alone")
    assert cited_names(text) == {("poly", "series_root"), ("field", "power")}


def test_readme_names_resolve():
    names = cited_names(README)
    assert names
    missing = sorted(f"{mod}.{name}" for mod, name in names
                     if not hasattr(importlib.import_module(f"rittkit.{mod}"),
                                    name))
    assert missing == []
