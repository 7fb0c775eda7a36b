"""One benchmark job in a fresh interpreter.

Usage::

    python3 child.py RESULT_PATH MODE -- ARGV...

MODE is ``setup`` (import and parse the fan, then stop), ``run`` (also call
``toricmirror.cli.main(ARGV)``) or ``trace`` (like ``run``, with span and
counter wrappers installed from outside before ``cli.main``).  The job writes
one JSON object to RESULT_PATH when it ends: the monotonic time at which set-up
was done, the exit status and captured output of ``cli.main``, and in
``trace`` mode its spans and counters.  It never touches a source file.
"""

import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (module, attribute path) of every layer boundary that gets a span.
SPANS = [
    ("cli", "main"),
    ("fans", "validate"),
    ("fans", "seidel_fan"),
    ("fans", "is_vertex"),
    ("fans", "minimal_face"),
    ("lp", "minimize"),
    ("lp", "feasible"),
    ("lp", "eliminate"),
    ("lp", "integer_points"),
    ("mirror", "enumerate_classes"),
    ("mirror", "g_function"),
    ("mirror", "g_ij"),
    ("mirror", "mirror_map"),
    ("mirror", "inverse_mirror_map"),
    ("mirror", "delta"),
    ("mirror", "compose_with_inverse"),
    ("mirror", "disc_potential"),
    ("mirror", "hori_vafa"),
    ("mirror", "extended_mirror_factors"),
    ("series", "QSeries.mul"),
    ("series", "QSeries.exp"),
    ("series", "QSeries.log"),
    ("series", "QSeries.recip"),
    ("series", "QSeries.npow"),
    ("series", "QSeries.substitute"),
    ("series", "SubstitutionMap.compose"),
    ("oracle", "i_one_over_z"),
]


def _count_rows(counters, args, result):
    counters["lp.eliminate.rows_out"] += len(result)
    counters["lp.eliminate.rows_max"] = max(counters["lp.eliminate.rows_max"],
                                            len(result))


def _count_points(counters, args, result):
    counters["lp.integer_points.points_out"] += len(result)


def _count_classes(counters, args, result):
    counters["mirror.enumerate_classes.classes_out"] += len(result)


def _count_pairs(counters, args, result):
    a, b = args[0], args[1]
    counters["series.QSeries.mul.pairs"] += len(a.terms) * len(b.terms)
    counters["series.QSeries.mul.terms_out_max"] = max(
        counters["series.QSeries.mul.terms_out_max"], len(result.terms))


# Counters kept at the same boundaries as the spans, updated after the call.
COUNTERS = {
    "lp.eliminate": (_count_rows, ("rows_out", "rows_max")),
    "lp.integer_points": (_count_points, ("points_out",)),
    "mirror.enumerate_classes": (_count_classes, ("classes_out",)),
    "series.QSeries.mul": (_count_pairs, ("pairs", "terms_out_max")),
}


class Tracer:
    """Nested spans ``[name index, parent id, start ns, end ns]`` and counters."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.counters = {f"{name}.{c}": 0
                         for name, (_, cs) in COUNTERS.items() for c in cs}

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        count = COUNTERS.get(name, (None,))[0]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [index, stack[-1], 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self, package):
        """Wrap every boundary in SPANS and rebind each alias of it.

        Modules that bound a function by name at import (``oracle`` imports
        ``enumerate_classes`` from ``mirror``) keep the original unless
        every module attribute that is the original is rebound too.
        """
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for module_name, path in SPANS:
            owner = sys.modules[f"{package}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(f"{module_name}.{path}", original)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main(argv):
    result_path, mode, sep, *job = argv
    if sep != "--" or mode not in ("setup", "run", "trace"):
        raise SystemExit("usage: child.py RESULT_PATH setup|run|trace -- ARGV...")
    sys.path.insert(0, SRC)
    import toricmirror.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"toricmirror was imported from {cli.__file__}, not {SRC}")
    cli.load_fan(job[job.index("--fan") + 1])
    record = {"ready_ns": time.monotonic_ns()}
    if mode != "setup":
        tracer = Tracer() if mode == "trace" else None
        if tracer is not None:
            tracer.install("toricmirror")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            record["status"] = cli.main(job)
        record["stdout"] = out.getvalue()
        record["stderr"] = err.getvalue()
        if tracer is not None:
            record["names"] = tracer.names
            record["spans"] = tracer.spans
            record["counters"] = tracer.counters
    with open(result_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
