"""The Python blocks of README.md run, in order, in one namespace, and every
``tscale-frac`` command of its shell blocks prints JSON records and exits 0."""

import json
import re
import shlex
from pathlib import Path

from tsfrac.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_commands_run(capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("tscale-frac ")]
    assert len(commands) >= 6
    for argv in commands:
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, (argv, out)
        assert out.splitlines(), argv
        for line in out.splitlines():
            assert isinstance(json.loads(line), dict), (argv, line)
