"""The README's library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    ns = {"__name__": "readme_example"}
    exec(compile(blocks[0], str(README), "exec"), ns)
    # the example prints one line per frame pair
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(ns["layers"]) > 0
