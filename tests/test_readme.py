"""The README's Python block runs as written and prints what it says."""

import contextlib
import io
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_python_block_prints_its_comments(monkeypatch):
    # each one-line print(...) prints one line; a trailing "# text" on it is
    # that line, exactly
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    commented = [(line.partition("#")[2].strip(), got)
                 for line, got in zip(prints, printed) if "#" in line]
    assert commented
    for want, got in commented:
        assert got == want
