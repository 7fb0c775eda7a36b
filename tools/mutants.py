"""A seeded mutation sample of the engine, scored by the tier-1 suite.

Usage::

    python tools/mutants.py [--seed 7] [--count 40] [--modules series mirror ...] [TREE]

A site is one token of a module in ``src/toricmirror`` that a mutant changes:
a ``+`` or ``-`` swapped (also in ``+=`` and ``-=``), a ``*`` or ``//``
swapped, a comparison replaced by its neighbour (``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``), or an ``int`` literal raised by 1.  Each site is
named by its module and function, its kind and its source line (with
``#2``, ``#3`` ... for a repeat in one function), so that runs on two trees
can be matched.  The sample is the ``--count`` sites whose names hash lowest
under the seed: a site present in both trees ranks the same in both.

Each mutant is written into a temporary copy of TREE (the checkout holding
this script by default) and scored with the tier-1 suite under ``-x``, four
at a time; TREE itself is never written.  A mutant is *killed* when the
suite fails, takes more than 2 GiB of address space or runs past two
minutes (printed as ``timeout``), and *survives* when it passes.  The
unmutated copy runs first and must pass.  One line is printed per mutant,
then the counts.
"""

import argparse
import ast
import bisect
import hashlib
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

MODULES = ("series", "mirror", "lp", "fans", "oracle")
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
         ast.Mult: ("*", "//"), ast.FloorDiv: ("//", "*")}
NEIGHBOURS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
              ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.pyc", ".work")
JOBS = 4                # suite runs at a time
MEMORY = 2 << 30        # bytes of address space a suite run may take
TIMEOUT = 120           # seconds a suite run may take


def _token(source, start, end, text):
    """The byte offset of the token ``text`` in ``source[start:end]``, the gap
    between two operands, outside comments and longer operators."""
    i = start
    while i < end:
        if source[i:i + 1] == b"#":
            i = source.index(b"\n", i)
        elif source.startswith(text, i) and source[i + len(text):i + len(text) + 1] not in b"=*/<>":
            return i
        i += 1
    raise ValueError(f"no {text!r} between bytes {start} and {end}")


class _Sites(ast.NodeVisitor):
    """Every site of one module as ``(function, kind, line, offset, old, new)``."""

    def __init__(self, source):
        self.source = source
        self.starts = [0]
        for line in source.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))
        self.scope = []
        self.found = []

    def _at(self, lineno, col):
        return self.starts[lineno - 1] + col

    def _end(self, node):
        return self._at(node.end_lineno, node.end_col_offset)

    def _add(self, kind, offset, old, new):
        lineno = bisect.bisect_right(self.starts, offset)
        line = self.source[self.starts[lineno - 1]:self.starts[lineno]].decode().strip()
        self.found.append((".".join(self.scope) or "<module>", kind, line, offset, old, new))

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _scoped

    def visit_BinOp(self, node):
        self._operator(node.op, self._end(node.left),
                       self._at(node.right.lineno, node.right.col_offset), "")
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._operator(node.op, self._end(node.target),
                       self._at(node.value.lineno, node.value.col_offset), "=")
        self.generic_visit(node)

    def _operator(self, op, start, end, suffix):
        if type(op) in SWAPS:
            old, new = (s + suffix for s in SWAPS[type(op)])
            self._add(f"{old} -> {new}", _token(self.source, start, end, old.encode()),
                      old, new)

    def visit_Compare(self, node):
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if type(op) in NEIGHBOURS:
                old, new = NEIGHBOURS[type(op)]
                offset = _token(self.source, self._end(left),
                                self._at(right.lineno, right.col_offset), old.encode())
                self._add(f"{old} -> {new}", offset, old, new)
            left = right
        self.generic_visit(node)

    def visit_Constant(self, node):
        if type(node.value) is int:
            old = self.source[self._at(node.lineno, node.col_offset):self._end(node)].decode()
            self._add("int + 1", self._at(node.lineno, node.col_offset), old,
                      str(node.value + 1))


def sites(tree, modules):
    """``{name: (path, offset, old, new)}`` over every site of ``modules``."""
    out = {}
    for module in modules:
        path = os.path.join("src", "toricmirror", f"{module}.py")
        with open(os.path.join(tree, path), "rb") as fh:
            source = fh.read()
        visitor = _Sites(source)
        visitor.visit(ast.parse(source))
        for function, kind, line, offset, old, new in visitor.found:
            name = f"{module}:{function}  {kind}  {line}"
            repeat, unique = 1, name
            while unique in out:
                repeat += 1
                unique = f"{name}  #{repeat}"
            out[unique] = (path, offset, old, new)
    return out


def sample(names, seed, count):
    """The ``count`` names of lowest seeded hash, in that order."""
    def rank(name):
        return hashlib.sha256(f"{seed}\0{name}".encode()).digest()
    return sorted(names, key=rank)[:count]


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run(tree, mutation):
    """``killed``, ``survived`` or ``timeout`` for one mutant (``None``: the
    unmutated copy) in a temporary copy of ``tree``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(tree, copy, ignore=IGNORE)
        if mutation is not None:
            path, offset, old, new = mutation
            with open(os.path.join(copy, path), "rb") as fh:
                source = fh.read()
            with open(os.path.join(copy, path), "wb") as fh:
                fh.write(source[:offset] + new.encode() + source[offset + len(old):])
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT, preexec_fn=_limit)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "survived" if done.returncode == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--modules", nargs="+", default=MODULES, choices=MODULES)
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    found = sites(tree, args.modules)
    chosen = sample(found, args.seed, args.count)
    print(f"{len(found)} sites in {', '.join(args.modules)}; "
          f"{len(chosen)} sampled with seed {args.seed}", flush=True)
    if run(tree, None) != "survived":
        raise SystemExit(f"the unmutated tier-1 suite fails in {tree}")
    with ThreadPoolExecutor(JOBS) as pool:
        outcomes = list(pool.map(lambda name: run(tree, found[name]), chosen))
    for name, outcome in zip(chosen, outcomes):
        print(f"{outcome:8s}  {name}")
    survived = outcomes.count("survived")
    print(f"{len(chosen) - survived} killed, {survived} survived")


if __name__ == "__main__":
    main()
