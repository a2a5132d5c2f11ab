"""The README's examples run as documented: the library block prints the
rho^2 exponent, and every command of the CLI block exits 0."""

import contextlib
import io
import os
import re
import shlex
from pathlib import Path

from nearcloak import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def _commands():
    """Every `nearcloak ...` line of the sh blocks, continuations joined."""
    text = "\n".join(_blocks("sh")).replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines()
            if line.startswith("nearcloak ")]


def test_library_example_prints_the_rho_squared_exponent():
    (code,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert 1.9 <= float(out.getvalue()) <= 2.1


def test_cli_examples_exit_zero(tmp_path):
    commands = _commands()
    assert len(commands) == 5
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        for args in commands:
            assert cli.main(args) == 0, args
    finally:
        os.chdir(old)
