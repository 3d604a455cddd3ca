"""The README's examples run and print what their comments say."""

import re
import shlex
from pathlib import Path

from intervalence.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(language):
    """The bodies of the README's code blocks fenced as ``language``."""
    return [body for lang, body in re.findall(r"```(\w*)\n(.*?)```", README, re.S)
            if lang == language]


def test_quick_start_runs_and_prints_its_comments(capsys):
    # a print followed by a comment line: the comment is the printed text
    (block,) = fenced("python")
    lines = block.splitlines()
    namespace, pending, checked = {}, [], 0
    for line, after in zip(lines, lines[1:] + [""]):
        pending.append(line)
        if line.startswith("print(") and after.startswith("# "):
            exec("\n".join(pending), namespace)
            pending = []
            assert capsys.readouterr().out.strip() == after[2:]
            checked += 1
    exec("\n".join(pending), namespace)
    assert checked >= 1


def commented_commands():
    """``(argv, comment lines)`` for each ``intervalence`` example that is
    followed by comment lines."""
    out = []
    for block in fenced("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("intervalence "):
                continue
            comments = []
            for after in lines[i + 1:]:
                if not after.startswith("# "):
                    break
                comments.append(after[2:])
            if comments:
                out.append((shlex.split(line)[1:], comments))
    return out


def test_command_examples_print_their_comments(capsys):
    # a comment opening with "... " shows the tail of the output only
    examples = commented_commands()
    assert len(examples) >= 2
    for argv, comments in examples:
        assert main(argv) == 0
        printed = capsys.readouterr().out.rstrip("\n").split("\n")
        if comments[0].startswith("... "):
            comments = [comments[0][4:]] + comments[1:]
            printed = printed[-len(comments):]
        assert printed == comments, argv
