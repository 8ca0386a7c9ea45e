"""Every `sklift ...` line of README's "Command line" block runs and exits 0.

The lines are read from the README itself, in order, and run through
`sklift.cli.main` in one scratch directory, so that a file the first line
writes is there for the next one to read."""

import shlex
from pathlib import Path

from sklift.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of each `sklift` line of the first sh block after the
    "## Command line" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sklift ")]


def test_readme_block_names_every_verb():
    verbs = [argv[0] for argv in readme_commands()]
    assert set(verbs) == {"gen", "lift", "verify", "hecke", "cohen"}
    assert verbs.index("gen") < verbs.index("lift") < verbs.index("verify")


def test_every_readme_command_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SK_CACHE_DIR", str(tmp_path / "cache"))
    commands = readme_commands()
    codes = []
    for argv in commands:
        codes.append(main(argv))
        capsys.readouterr()
    assert codes == [0] * len(commands), list(zip(map(" ".join, commands), codes))
