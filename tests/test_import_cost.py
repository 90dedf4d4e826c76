"""Importing the CLI loads none of the `dataclasses` machinery
(`dataclasses`, `inspect`, `ast`, `dis`): a CLI call pays only for the
interpreter, `fractions`, `argparse` and its own work."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rittkit

SRC = str(Path(rittkit.__file__).resolve().parent.parent)
HEAVY = ("dataclasses", "inspect", "ast", "dis")


def _loaded(code: str) -> list:
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=60, check=True)
    return out.stdout.split()


def test_cli_import_loads_no_dataclass_machinery():
    if _loaded(""):
        pytest.skip("the interpreter's site already loads one of " +
                    ", ".join(HEAVY))
    assert _loaded("import rittkit.cli") == []
