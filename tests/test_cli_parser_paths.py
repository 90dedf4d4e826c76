"""The CLI builds only the subparser of the command it runs.  Help, an
unknown command, a missing flag and a bad integer must keep the exit code,
stdout and stderr of the parser with every command."""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from rittkit import cli


def _captured(call):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = call()
    return code, out.getvalue(), err.getvalue()


def _full_parse(argv):
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return cli.EXIT_INPUT if exc.code else cli.EXIT_OK
    return None


CASES = [
    (["--help"], 0, "usage: ritt-kit [-h]", ""),
    (["classify", "--help"], 0,
     "usage: ritt-kit classify [-h] [--field FIELD] --f F\n", ""),
    (["bogus"], 2, "", "invalid choice: 'bogus'"),
    (["classif"], 2, "", "invalid choice: 'classif'"),
    ([], 2, "", "the following arguments are required: command"),
    (["classify"], 2, "",
     "ritt-kit classify: error: the following arguments are required: --f"),
    (["bound-c", "2", "x"], 2, "",
     "ritt-kit bound-c: error: argument n: invalid int value: 'x'"),
    (["classify", "--f", "x^2", "--bogus"], 2, "",
     "ritt-kit: error: unrecognized arguments: --bogus"),
]


@pytest.mark.parametrize("argv,code,out_start,err_part", CASES,
                         ids=[" ".join(c[0]) or "empty" for c in CASES])
def test_parser_paths_keep_exit_code_and_output(monkeypatch, argv, code,
                                                out_start, err_part):
    monkeypatch.setenv("COLUMNS", "80")
    got = _captured(lambda: cli.run_command(argv))
    assert got[0] == code
    assert got[1].startswith(out_start) and (out_start or not got[1])
    assert err_part in got[2]
    assert got == _captured(lambda: _full_parse(argv))


def test_unrecognized_argument_usage_lists_every_command(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _, _, err = _captured(lambda: cli.run_command(
        ["classify", "--f", "x^2", "--bogus"]))
    assert "{" + ",".join(cli._commands()) + "}" in err


def _choices(parser):
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


def test_one_subparser_per_command():
    commands = list(cli._commands())
    assert len(commands) == 21
    assert _choices(cli._build_parser()) == commands
    assert _choices(cli._build_parser(["--help"])) == commands
    for name in commands:
        assert _choices(cli._build_parser([name, "--x"])) == [name]


def test_commands_run_through_one_subparser(capsys):
    assert cli.run_command(["bound-c", "2", "2"]) == 0
    assert capsys.readouterr().out.startswith("command: bound-c\nvalue: ")
    assert cli.run_command(["classify", "--field", "Q", "--f", "x^2"]) == 0
    assert "is_cyclic: true" in capsys.readouterr().out
