"""The Python blocks of README.md run, in order, in one namespace, and every
``tscale-frac`` command of its shell blocks prints JSON records and exits 0."""

import json
import re
import shlex
import warnings
from pathlib import Path

from tsfrac.cli import main
from tsfrac.errors import EndpointAdjustedWarning

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
    adjusted = []
    for argv in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv[1:])
        adjusted += [(argv[1], w.category) for w in caught]
        out = capsys.readouterr().out
        assert code == 0, (argv, out)
        assert out.splitlines(), argv
        for line in out.splitlines():
            assert isinstance(json.loads(line), dict), (argv, line)
    # the integral over grid(1, 10, 1) starts at the scattered minimum, so
    # its G(a) takes the one-step virtual extension; nothing else warns
    assert adjusted == [("integ", EndpointAdjustedWarning)]
