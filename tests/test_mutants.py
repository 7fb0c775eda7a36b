"""The site finder and the seeded sampler of ``tools/mutants.py``.

The script is loaded from its file and its functions are called on a small
module written under ``tmp_path``; the tier-1 suite is never run here.
"""

import ast
import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "mutants.py")
SOURCE = "def f(a, b):\n    return (a  # a + b\n            + b) <= 3\n"


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sites_skip_comments_and_mutate_one_line(tmp_path):
    mutants = _mutants()
    package = tmp_path / "src" / "toricmirror"
    package.mkdir(parents=True)
    (package / "series.py").write_text(SOURCE)
    found = mutants.sites(str(tmp_path), ["series"])
    path = os.path.join("src", "toricmirror", "series.py")
    assert found == {
        "series:f  + -> -  + b) <= 3": (path, 48, "+", "-"),
        "series:f  <= -> <  + b) <= 3": (path, 53, "<=", "<"),
        "series:f  int + 1  + b) <= 3": (path, 56, "3", "4"),
    }
    # the comment holds a "+" of its own; the site is the operator after it
    comment = SOURCE.index("#")
    assert "+" in SOURCE[comment:SOURCE.index("\n", comment)]
    assert found["series:f  + -> -  + b) <= 3"][1] > SOURCE.index("\n", comment)
    source = SOURCE.encode()
    before = source.splitlines()
    for _, offset, old, new in found.values():
        assert source[offset:offset + len(old)] == old.encode()
        mutated = source[:offset] + new.encode() + source[offset + len(old):]
        ast.parse(mutated)
        after = mutated.splitlines()
        assert len(after) == 3
        assert [i for i in range(3) if after[i] != before[i]] == [2]


def test_sample_ranks_a_name_alike_in_every_superset():
    mutants = _mutants()
    names = [f"series:f  int + 1  x = {i}" for i in range(12)]
    extra = [f"mirror:g  + -> -  y + {i}" for i in range(9)]
    for k in range(len(names) + 1):
        wider = mutants.sample(names + extra, 7, k + len(extra))
        kept = [name for name in wider if name in names]
        assert kept[:k] == mutants.sample(names, 7, k)
