"""The README's examples run as documented: the library block prints the
rho^2 exponent, every command of the CLI block exits 0, every example of
the exit-code list exits with its code and error type, the config-key
table matches cli._DEFAULTS, and each Layout bullet names its module's
public functions and classes."""

import contextlib
import importlib
import inspect
import io
import json
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


def test_layout_bullets_name_every_public_function_and_class():
    # A bullet "- `nearcloak.<module>` — ..." runs to the next bullet; it
    # names a function or class in backticks, possibly with a call or an
    # attribute after the name.
    section = README.split("## Layout\n", 1)[1].split("\n## ", 1)[0]
    bullets = dict(re.findall(r"^- `nearcloak\.(\w+)` — (.*?)(?=^- |\Z)", section,
                              flags=re.M | re.S))
    assert set(bullets) == {"specfun", "media", "mie", "bie", "analysis", "cli"}
    unnamed = {}
    for name, bullet in bullets.items():
        module = importlib.import_module(f"nearcloak.{name}")
        public = {attr for attr, obj in vars(module).items()
                  if not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__}
        unnamed[name] = sorted(public - set(re.findall(r"`(\w+)", bullet)))
    assert unnamed == {name: [] for name in bullets}


def test_cli_examples_exit_zero(tmp_path):
    commands = _commands()
    assert len(commands) == 6
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        for args in commands:
            assert cli.main(args) == 0, args
    finally:
        os.chdir(old)


def test_cli_table_lists_every_config_key_with_its_subcommands_and_default():
    # Rows are | `key`[, `key`...] | subcommands or all | defaults | meaning |;
    # a row with one `literal` per key gives each key's default.
    readme = {}
    for keys, commands, defaults in re.findall(
            r"^\| (`\w+`(?:, `\w+`)*) +\| ([\w, ]+?) +\| (.+?) +\|", README, flags=re.M):
        keys, literals = re.findall(r"`(\w+)`", keys), re.findall(r"`([^`]*)`", defaults)
        for i, key in enumerate(keys):
            readme[key] = (set(cli._DEFAULTS) if commands == "all" else set(commands.split(", ")),
                           literals[i] if len(literals) == len(keys) else None)
    taking = {}
    for command, defaults in cli._DEFAULTS.items():
        for key, default in defaults.items():
            taking.setdefault(key, {})[command] = default
    assert {key: commands for key, (commands, _) in readme.items()} == {
        key: set(by_command) for key, by_command in taking.items()}
    for key, (_, literal) in readme.items():
        if literal is not None:
            assert {str(default) for default in taking[key].values()} == {literal}, key


def _exit_examples():
    """(args, exit code, error type or None, message or None) of every
    subcommand example in the Exit codes list: a top bullet gives the code,
    a bullet under it the type, and the examples of nested bullets inherit
    both; an example followed by ": `text`" gives its message."""
    section = README.split("### Exit codes\n", 1)[1].split("\n## ", 1)[0]
    examples, code, error = [], None, None
    for bullet in re.split(r"\n(?= *- )", section):
        head = re.match(r"- \*\*(\d)\*\*|  - `(\w+)`", bullet)
        if head and head[1]:
            code, error = int(head[1]), None
        elif head:
            error = head[2]
        text = re.sub(r"\n +", " ", bullet)
        for command, message in re.findall(
                rf"`((?:{'|'.join(cli._DEFAULTS)}) -[^`]*)`(?:: `([^`]*)`)?", text):
            examples.append((shlex.split(command), code, error, message or None))
    return examples


def test_exit_code_examples_exit_with_their_code_and_type(tmp_path, capsys, monkeypatch):
    examples = _exit_examples()
    assert len(examples) == 27
    monkeypatch.chdir(tmp_path)
    for args, code, error, message in examples:
        assert cli.main(args) == code, args
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error in (None, record["error"]), args
        assert message in (None, record["message"]), args
