"""README's "Command line" examples, run in-process through ``cli.run``.

A ``$ cat FILE`` example gives the file's text, a ``|`` between ``tightlp``
commands pipes stdout to stdin, and a trailing ``| wc -l`` or ``| head -N``
is applied here.  The output shown is stdout and stderr in print order.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from tightlp.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def command_line_examples() -> tuple[dict[str, str], list[tuple[str, str]]]:
    """The files that ``cat`` shows, and each ``tightlp`` command with its output."""
    section = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    files, commands = {}, []
    for block in re.findall(r"^```\n(.*?)^```$", section, re.M | re.S):
        for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = example.partition("\n")
            shown = shown.rstrip("\n") + "\n"
            if command.startswith("cat "):
                files[command[4:]] = shown
            else:
                commands.append((command, shown))
    return files, commands


FILES, COMMANDS = command_line_examples()


def filtered(argv: list[str], text: str) -> str:
    if argv == ["wc", "-l"]:
        return "%d\n" % text.count("\n")
    if argv[0] == "head" and re.fullmatch(r"-[0-9]+", argv[1]):
        return "".join(text.splitlines(keepends=True)[: int(argv[1][1:])])
    raise ValueError(f"unsupported command in README: {shlex.join(argv)}")


def test_the_section_has_examples():
    assert "choice.lp" in FILES
    assert len(COMMANDS) >= 8
    assert all(command.startswith("tightlp ") for command, _ in COMMANDS)


@pytest.mark.parametrize("command,shown", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_example_prints_what_readme_shows(command, shown, monkeypatch, tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    stages, argv = [], []
    for token in shlex.split(command) + ["|"]:
        if token == "|":
            stages.append(argv)
            argv = []
        else:
            argv.append(token)
    tightlp_stages = [s for s in stages if s[0] == "tightlp"]
    assert stages[: len(tightlp_stages)] == tightlp_stages
    screen = io.StringIO()
    monkeypatch.setattr("sys.stderr", screen)
    piped = ""
    for i, argv in enumerate(tightlp_stages):
        out = screen if i == len(stages) - 1 else io.StringIO()
        monkeypatch.setattr("sys.stdin", io.StringIO(piped))
        monkeypatch.setattr("sys.stdout", out)
        assert run(argv[1:]) == 0, argv
        piped = out.getvalue()
    for argv in stages[len(tightlp_stages) :]:
        piped = filtered(argv, piped)
    if len(stages) > len(tightlp_stages):
        screen.write(piped)
    assert screen.getvalue() == shown
