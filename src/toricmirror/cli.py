"""Command-line interface: batch computations over fan files.

Usage::

    toricmirror <command> --fan PATH [--order N] [options]

Commands: validate, walls, semifano, g, gij, mirror, inverse-mirror, delta,
gw, potential, hori-vafa, batyrev, seidel-element, seidel-fan, oracle-check,
check-all.

``--fan`` accepts a filesystem path; when the path does not exist, its base
name is looked up among the packaged fixtures (p2, p1xp1, f2, chain3), so
``--fan fixtures/chain3.json`` and ``--fan chain3`` work from any directory.

Exit status: 0 on success, 1 on usage/validation errors (bad arguments,
unreadable or invalid fan files, non-semi-Fano input to a command that needs
it) and, with nothing written to stderr, when stdout is closed before the
report is written, 2 when a property check fails (oracle-check, check-all).

Output is deterministic: identical inputs produce byte-identical reports.

Every command is one row of :data:`COMMANDS`; :func:`_run` does the shared
steps (validation, ray range checks, the semi-Fano guard, emission) once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import checks, fans, mirror
from .fans import FanError
from .lp import LPUnboundedError


class UsageError(Exception):
    """Bad command line; maps to exit status 1."""


class CheckFailure(Exception):
    """A property check found a violation; maps to exit status 2.

    ``report`` is the ``(lines, payload)`` of the checks run so far, which is
    printed before the failure is reported.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_order(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid order {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("order must be positive")
    return value


def _parse_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    return value


def _parse_cone(text: str):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"basis cone must be comma-separated ray indices, got {text!r}") from exc


_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def load_fan(path: str) -> fans.Fan:
    """Read a fan document from disk, falling back to packaged fixtures.

    The fixtures are found next to this file with ``os.path``: ``pathlib``
    and ``importlib.resources`` would add their import time to every run.
    """
    found = path
    if not os.path.exists(path):
        name = os.path.basename(os.path.normpath(path))
        if name.endswith(".json"):
            name = name[:-5]
        found = os.path.join(_FIXTURES, f"{name}.json")
        if not os.path.isfile(found):
            raise OSError(f"fan file not found: {path}")
    with open(found) as fh:
        return fans.parse_fan(fh.read())


# (group, flags, keywords) in the order ``--help`` lists them.  Every command
# takes the ``None`` group and the groups named in its row of COMMANDS.
_ARGUMENTS = [
    (None, ("--fan",), dict(required=True,
                            help="fan JSON file (or packaged fixture name)")),
    (None, ("--format",), dict(choices=("text", "json"), default="text",
                               help="output format (default: text)")),
    (None, ("--basis-cone",), dict(type=_parse_cone, default=None, metavar="I,J,...",
                                   help="ray indices of the cone used as coordinate basis")),
    (None, ("--show-permutation",), dict(action="store_true",
                                         help="also report the rays in basis-cone-first order")),
    ("order", ("--order",), dict(type=_parse_order, default=Fraction(8),
                                 help="truncation order in ample-weight units "
                                      "(integer or p/q, default 8)")),
    ("ray", ("--ray",), dict(type=int, required=True,
                             help="ray index (0-based, input order)")),
    ("ij", ("--i",), dict(type=int, required=True, dest="index_i",
                          help="first ray index (the g series)")),
    ("ij", ("--j",), dict(type=int, required=True, dest="index_j",
                          help="second ray index (the pairing divisor)")),
    ("form", ("--form",), dict(choices=("plain", "tilde"), default="plain",
                               help="potential form (default: plain)")),
    ("sign", ("--sign",), dict(choices=("plus", "minus"), default="plus",
                               help="direction of the fiberwise rotation")),
    ("min_classes", ("--min-classes",), dict(
        type=_parse_count, default=None, metavar="K",
        help="raise the order until at least K curve classes "
             "contribute for --ray, or --i for gij (bounded search)")),
]

# argparse destination -> JSON key of the ray indices a command may take.
_INDICES = (("ray", "ray"), ("index_i", "i"), ("index_j", "j"))


def build_parser(command=None) -> _Parser:
    """The command-line parser, with every subcommand or only ``command``.

    A run names its subcommand first, so it needs only that one's parser;
    the full parser answers top-level ``--help`` and bad command names.
    """
    parser = _Parser(prog="toricmirror",
                     description="Exact mirror maps and open GW potentials "
                                 "for smooth semi-Fano toric fans.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, groups, _) in COMMANDS.items():
        if command is not None and name != command:
            continue
        command_parser = sub.add_parser(name, help=help_text)
        for group, flags, keywords in _ARGUMENTS:
            if group is None or group in groups:
                command_parser.add_argument(*flags, **keywords)
    return parser


# ------------------------------------------------------------------- reports
#
# A report takes the parsed arguments, the validated context and the
# effective order (None for commands without --order) and returns the text
# lines and the JSON payload; _run adds the command name, the order and the
# ray indices to the payload.

def _zmono(exponent) -> str:
    parts = [f"z{i + 1}" if e == 1 else f"z{i + 1}^{e}"
             for i, e in enumerate(exponent) if e]
    return " ".join(parts) if parts else "1"


def _series(series):
    return {"order": str(series.order), "terms": series.to_records()}


def _validate(args, ctx, order):
    ok, _ = fans.semi_fano_check(ctx)
    weight = [str(w) for w in ctx.ample_weight]
    lines = [
        f"fan OK: dim {ctx.n}, {ctx.m} rays, {len(ctx.fan.max_cones)} maximal cones",
        f"curve-class rank: {ctx.rank}",
        f"ample weight: ({', '.join(weight)})",
        f"semi-Fano: {'yes' if ok else 'no'}",
    ]
    return lines, {"dim": ctx.n, "rays": ctx.m, "max_cones": len(ctx.fan.max_cones),
                   "rank": ctx.rank, "ample_weight": weight, "semi_fano": ok}


def _walls(args, ctx, order):
    lines, records = [], []
    for wall in ctx.walls:
        chern = ctx.degree(wall.curve)
        lines.append(f"wall {list(wall.rays)}: cones {list(wall.cones)}, "
                     f"class {list(wall.curve)}, c1 = {chern}")
        records.append({"rays": list(wall.rays), "cones": list(wall.cones),
                        "class": list(wall.curve), "chern": chern})
    return lines, {"walls": records}


def _semifano(args, ctx, order):
    ok, wall = fans.semi_fano_check(ctx)
    if ok:
        return ["semi-Fano: yes"], {"semi_fano": ok, "witness": None}
    chern = ctx.degree(wall.curve)
    witness = {"rays": list(wall.rays), "class": list(wall.curve), "chern": chern}
    return ([f"semi-Fano: no (wall {list(wall.rays)} has c1 = {chern})"],
            {"semi_fano": ok, "witness": witness})


def _g(args, ctx, order):
    series = mirror.g_function(ctx, args.ray, order)
    return [f"g_{args.ray} = {series.to_text(var='qc')}"], {"series": _series(series)}


def _gij(args, ctx, order):
    series = mirror.g_ij(ctx, args.index_i, args.index_j, order)
    return ([f"g_{args.index_i},{args.index_j} = {series.to_text(var='qc')}"],
            {"series": _series(series)})


def _mirror(args, ctx, order):
    if args.command == "mirror":
        smap, lhs, rhs = mirror.mirror_map(ctx, order), "q", "qc"
    else:
        smap, lhs, rhs = mirror.inverse_mirror_map(ctx, order), "qc", "q"
    lines = [f"{lhs}{k + 1} = {rhs}{k + 1} ({u.to_text(var=rhs)})"
             for k, u in enumerate(smap.units)]
    return lines, {"units": [_series(u) for u in smap.units]}


def _delta(args, ctx, order):
    series = mirror.delta(ctx, args.ray, order)
    return [f"delta_{args.ray} = {series.to_text()}"], {"series": _series(series)}


def _gw(args, ctx, order):
    records = [{"alpha": [0] * ctx.rank, "num": 1, "den": 1}]
    lines = [f"n_1(beta_{args.ray}) = 1"]
    for rec in mirror.delta(ctx, args.ray, order).to_records():
        exact = Fraction(rec["num"], rec["den"])
        lines.append(f"n_1(beta_{args.ray} + {tuple(rec['exponent'])}) = {exact}")
        records.append(rec | {"alpha": rec["exponent"]})
    return lines, {"invariants": records}


def _potential(args, ctx, order):
    if "form" in args:
        potential, payload = mirror.hori_vafa(ctx, order, args.form), {"form": args.form}
    else:
        potential, payload = mirror.disc_potential(ctx, order), {}
    lines, records = [], []
    for z_exp, series in sorted(potential.items()):
        lines.append(f"[{_zmono(z_exp)}] {series.to_text()}")
        records.append({"z_exponent": list(z_exp), "coefficient": _series(series)})
    payload["terms"] = records
    return lines, payload


def _divisor(args, ctx, order):
    build = mirror.batyrev_element if args.command == "batyrev" else mirror.seidel_element
    lines, records = [], []
    for i, series in enumerate(build(ctx, args.ray, order)):
        if not series.is_zero():
            lines.append(f"D_{i}: {series.to_text()}")
            records.append({"ray": i, "series": _series(series)})
    return lines, {"coeffs": records}


def _seidel_fan(args, ctx, order):
    # no text lines: the fan document is printed as is, whatever --format says
    return None, fans.seidel_fan(ctx, args.ray, args.sign).to_dict()


def _oracle_check(args, ctx, order):
    bad = checks.oracle_mismatches(ctx, order)
    lines = [f"ray {ray}: {'MISMATCH' if ray in bad else 'OK'}" for ray in range(ctx.m)]
    payload = {"rays": [{"ray": ray, "match": ray not in bad} for ray in range(ctx.m)]}
    if bad:
        raise CheckFailure(f"I-function disagrees with g at rays {bad}", (lines, payload))
    return lines, payload


def _check_all(args, ctx, order):
    lines, records = [], []
    for name, check in checks.suite(ctx, order):
        detail = check()
        status = "pass" if detail is None else "fail"
        lines.append(f"{status.upper()} {name}")
        records.append({"name": name, "status": status})
        if detail is not None:
            raise CheckFailure(f"{name}: {detail}", (lines, {"checks": records}))
    return lines, {"checks": records}


# name -> (help, option groups beyond the common ones, report)
COMMANDS = {
    "validate": ("check a fan and report its derived data", (), _validate),
    "walls": ("list wall curves with classes and Chern numbers", (), _walls),
    "semifano": ("test whether every wall curve has c1 >= 0", (), _semifano),
    "g": ("hypergeometric series g for one ray", ("order", "ray", "min_classes"), _g),
    "gij": ("double-index series g_{i,j}", ("order", "ij", "min_classes"), _gij),
    "mirror": ("mirror map unit factors", ("order",), _mirror),
    "inverse-mirror": ("inverse mirror map unit factors", ("order",), _mirror),
    "delta": ("open GW generating series for one ray", ("order", "ray", "min_classes"),
              _delta),
    "gw": ("nonzero one-pointed open GW invariants for one ray", ("order", "ray"), _gw),
    "potential": ("open-GW-corrected disc potential", ("order",), _potential),
    "hori-vafa": ("Hori-Vafa potential (plain or tilde form)", ("order", "form"),
                  _potential),
    "batyrev": ("Batyrev divisor element for one ray", ("order", "ray"), _divisor),
    "seidel-element": ("normalized Seidel element for one ray", ("order", "ray"), _divisor),
    "seidel-fan": ("fan of the fiberwise compactification", ("ray", "sign"), _seidel_fan),
    "oracle-check": ("I-function cross-check of all g series", ("order",), _oracle_check),
    "check-all": ("run every applicable property check", ("order",), _check_all),
}


# ------------------------------------------------------------------ dispatch

def _search_order(ctx, ray, order, wanted):
    """Raise the order until ``wanted`` classes contribute (at most 48 steps)."""
    current = order
    while True:
        found = len(mirror.enumerate_classes(ctx, ray, current))
        if found >= wanted:
            return current
        if current >= order + 48:
            raise UsageError(f"--min-classes {wanted} not reached for ray {ray}: "
                             f"found {found} classes up to order {current}")
        current += 1


def _run(args) -> int:
    """Validate, guard, run the command's report and print it once."""
    ctx = fans.validate(load_fan(args.fan), basis_cone=args.basis_cone)
    indices = {key: getattr(args, dest) for dest, key in _INDICES if dest in args}
    for index in indices.values():
        fans.check_ray(ctx, index)
    order = getattr(args, "order", None)
    if order is not None:
        ok, wall = fans.semi_fano_check(ctx)
        if not ok:
            raise FanError(
                f"fan is not semi-Fano: wall {list(wall.rays)} has curve class with "
                f"c1 = {ctx.degree(wall.curve)} < 0")
        if getattr(args, "min_classes", None) is not None:
            # the search runs on the first index given: --ray, or --i for gij
            order = _search_order(ctx, next(iter(indices.values())), order,
                                  args.min_classes)
    failure = None
    try:
        lines, payload = COMMANDS[args.command][2](args, ctx, order)
    except CheckFailure as exc:
        failure, (lines, payload) = exc, exc.report
    if lines is not None:     # seidel-fan prints the bare fan document
        payload.update(indices, command=args.command)
        if order is not None:
            payload["order"] = str(order)
        if args.show_permutation:
            lines.insert(0, f"internal ray order: {list(ctx.basis_perm)}")
            payload["basis_permutation"] = list(ctx.basis_perm)
    if lines is None or args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    sys.stdout.flush()        # a closed stdout fails here, inside main
    if failure is not None:
        raise failure
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        return _run(build_parser(command).parse_args(argv))
    except BrokenPipeError:
        # the reader is gone: nothing to report, and the interpreter's final
        # flush of what is still buffered goes to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (UsageError, ValueError, OSError, LPUnboundedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
