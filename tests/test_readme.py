import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from otml import cli

README = Path(__file__).resolve().parents[1] / "README.md"
INPUT_FLAGS = ("--source", "--target", "--target-train", "--target-test")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _shell_examples(command):
    # Indented `otml <command> ...` lines, with backslash continuations joined.
    text = README.read_text().replace("\\\n", " ")
    lines = re.findall(rf"^    otml {command} .*$", text, re.M)
    return [shlex.split(line)[1:] for line in lines]


@pytest.mark.parametrize("command", ["fit", "adapt"])
def test_readme_command_lines_run(tmp_path, monkeypatch, command):
    # Each input file the example names is a small two-class csv; adapt's
    # inputs carry the label as the last column, fit's are features only.
    examples = _shell_examples(command)
    assert examples
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1], 6)
    for argv in examples:
        for flag, path in zip(argv, argv[1:]):
            if flag in INPUT_FLAGS:
                points = rng.normal(size=(labels.size, 3)) + 3.0 * labels[:, None]
                if command == "adapt":
                    points = np.column_stack([points, labels])
                np.savetxt(path, points, delimiter=",")
        assert cli.main(argv) == 0, argv
