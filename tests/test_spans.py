"""The benchmark's traced runs wrap layer boundaries that
``perfbench/child.py`` names in ``SPANS``; each must resolve on the package.

``SPANS`` is read from the file's source, so the benchmark is neither
imported nor run here.
"""

import ast
import importlib
import os

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "child.py")


def _spans():
    with open(CHILD) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py assigns no SPANS")


def test_every_benchmark_span_resolves():
    spans = _spans()
    assert spans
    for module_name, path in spans:
        owner = importlib.import_module(f"toricmirror.{module_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"
