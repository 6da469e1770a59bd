"""README.md is the spec of the CLI: its transcripts must still be what the CLI prints.

Every `$ quadclass ...` transcript in the README is run through cli.main and
its stdout compared byte for byte.  The verify transcript elides its middle
with `...`, so only its first two and last two lines are compared, with the
elapsed seconds masked.  The Library snippet's printed values are checked
against the comments that state them.
"""

import os
import re
import shlex

import pytest

from quadclass.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _blocks(lang: str = "") -> list[list[str]]:
    """The lines of every fenced block in README.md opened with ```lang."""
    blocks, lines, opening = [], None, None
    with open(README) as f:
        for line in f.read().splitlines():
            if lines is None:
                if line.startswith("```"):
                    lines, opening = [], line
            elif line == "```":
                if opening == "```" + lang:
                    blocks.append(lines)
                lines = None
            else:
                lines.append(line)
    return blocks


def _transcripts() -> list[tuple[list[str], list[str]]]:
    """(argv, expected stdout lines) of each `$ quadclass` command that prints."""
    found = []
    for lines in _blocks():
        for i, line in enumerate(lines):
            if not line.startswith("$ quadclass ") or ">" in line:
                continue
            out = []
            for following in lines[i + 1:]:
                if not following or following.startswith("$ "):
                    break
                out.append(following)
            found.append((shlex.split(line)[2:], out))
    return found


TRANSCRIPTS = _transcripts()


def test_every_subcommand_has_a_transcript():
    assert sorted(argv[0] for argv, _ in TRANSCRIPTS) == [
        "classnum", "ek", "expand", "girstmair", "verify"]


PRINTING = [t for t in TRANSCRIPTS if t[0][0] != "verify"]


@pytest.mark.parametrize("argv, want", PRINTING, ids=[" ".join(argv) for argv, _ in PRINTING])
def test_transcript(argv, want, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_verify_transcript(capsys):
    (argv, want), = [t for t in TRANSCRIPTS if t[0][0] == "verify"]
    assert "..." in want
    assert main(argv) == 0
    got = capsys.readouterr().out.splitlines()

    def mask(line):
        return re.sub(r"\(\d+\.\d+s\)$", "(Xs)", line)

    assert got[:2] == want[:2]
    assert [mask(line) for line in got[-2:]] == [mask(line) for line in want[-2:]]


def test_library_snippet(capsys):
    (snippet,) = _blocks("python")
    want = []
    for line in snippet:
        if line.startswith("print("):
            comment = line.split("#", 1)[1].strip()
            want.append(comment[: comment.index(")") + 1] if comment.startswith("(")
                        else comment.split(",")[0])
    assert len(want) == 3
    exec("\n".join(snippet), {})
    assert capsys.readouterr().out.splitlines() == want
