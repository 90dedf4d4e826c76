"""Replay the README CLI commands in bench/golden_cli.json in-process.

Each command must exit with the recorded code and print byte-identical
stdout.  The file is read only; it is the frozen reference output.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rittkit.cli import run_command

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "golden_cli.json")
    .read_text(encoding="utf-8"))["commands"]


@pytest.mark.parametrize("entry", GOLDEN,
                         ids=[e["argv"][0] for e in GOLDEN])
def test_golden_cli_byte_identical(entry):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_command(entry["argv"])
    assert code == entry["exit"]
    assert buf.getvalue() == entry["stdout"]
