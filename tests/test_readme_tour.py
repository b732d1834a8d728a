"""The README's CLI tour, replayed: every `$ vangeo ...` block must show the
bytes the command prints today.  Pipes into `head -N`, `tail -N` and
`python3 -m json.tool` are emulated in-process."""

import json
import re
import shlex
from pathlib import Path

import pytest

from vangeo import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_blocks():
    """(command line, expected output) for each ```sh block opening with `$ vangeo`."""
    blocks = re.findall(r"```sh\n\$ (vangeo .*?)\n(.*?)```", README.read_text(), re.S)
    assert blocks, "no CLI tour blocks found in README.md"
    return blocks


def replay(command_line: str) -> str:
    command, *pipes = [part.strip() for part in command_line.split("|")]
    code, output = cli.run(shlex.split(command)[1:])
    assert code == 0, output
    text = output + "\n"
    for pipe in pipes:
        words = pipe.split()
        if words[0] == "head":
            text = "".join(text.splitlines(keepends=True)[:int(words[1][1:])])
        elif words[0] == "tail":
            text = "".join(text.splitlines(keepends=True)[-int(words[1][1:]):])
        elif words[:3] == ["python3", "-m", "json.tool"]:
            text = json.dumps(json.loads(text), indent=4) + "\n"
        else:
            raise AssertionError(f"no emulation for the pipe {pipe!r}")
    return text


BLOCKS = tour_blocks()


@pytest.mark.parametrize("command_line,expected", BLOCKS, ids=[c for c, _ in BLOCKS])
def test_tour_block_is_current(command_line, expected):
    assert replay(command_line) == expected
