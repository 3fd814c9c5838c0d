"""The README's library tour and command lines run as written."""

import pathlib
import re
import shlex

import pytest

from ncplane import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# the indented `ncplane ...` block; selftest runs as a process in
# test_acceptance.py
COMMANDS = [shlex.split(line)[1:] for line in
            re.findall(r"^    ncplane (?!selftest\b).*$", README.read_text(),
                       re.M)]


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    integral, purity = map(float, lines[-1].split())
    assert abs(integral - 1.0) < 1e-6 and abs(purity - 1.0) < 1e-6


def test_readme_lists_the_commands():
    assert [argv[0] for argv in COMMANDS] == [
        "algebra-check", "classical", "classical", "spectrum",
        "eigenfunction", "wigner", "thermo"]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_line_runs(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
