"""The benchmark's workloads and the correctness gate of every job.

A workload is a fixed list of operations; an operation is one or more CLI jobs
run one after another under one deadline.  Every job carries a gate that
checks its exit status and stdout and raises :class:`GateError` on a wrong
answer.  The gates restate the expected results from the inputs alone, with
integer arithmetic; none of them calls into ``toricmirror``.
"""

import json
import os
import re
from dataclasses import dataclass
from math import lcm
from typing import Callable

from child import SRC

FIXTURES = os.path.join(SRC, "toricmirror", "fixtures")


class GateError(Exception):
    """A job finished but its output is wrong."""


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: Callable[[int, str], None]


@dataclass(frozen=True)
class Op:
    name: str
    jobs: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    deadline_s: float
    build: Callable[[str], list]


def load_fixture(name):
    with open(os.path.join(FIXTURES, f"{name}.json")) as fh:
        return json.load(fh)


def seidel_doc(base, ray, sign):
    """The fan one dimension up that ``seidel-fan`` must print."""
    n = base["dim"]
    vj = [x if sign == "plus" else -x for x in base["rays"][ray]]
    rays = [[1] + [0] * n, [-1] + vj] + [[0] + list(v) for v in base["rays"]]
    cones = []
    for cone in base["max_cones"]:
        lifted = [2 + i for i in cone]
        cones += [lifted + [0], lifted + [1]]
    return {"dim": n + 1, "rays": rays, "max_cones": cones}


# ------------------------------------------------------------ integer algebra

def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def _solve(columns, target):
    """Integer x with ``sum_j x_j columns[j] == target`` (Cramer's rule)."""
    n = len(target)
    matrix = [[columns[j][i] for j in range(n)] for i in range(n)]
    d = _det(matrix)
    out = []
    for j in range(n):
        swapped = [row[:j] + [target[i]] + row[j + 1:] for i, row in enumerate(matrix)]
        num = _det(swapped)
        if not d or num % d:
            raise GateError(f"no integral solution for {target} in {columns}")
        out.append(num // d)
    return out


def _class_basis(doc):
    """Basis cone and the rays indexing curve-class coordinates, in CLI order."""
    basis = sorted(doc["max_cones"][0])
    return basis, [i for i in range(len(doc["rays"])) if i not in basis]


def wall_pairings(doc):
    """Intersection numbers of every wall curve with every toric divisor."""
    rays, m = doc["rays"], len(doc["rays"])
    owners = {}
    for cone in doc["max_cones"]:
        for u in cone:
            owners.setdefault(frozenset(cone) - {u}, []).append(u)
    out = []
    for facet, opposite in sorted(owners.items(), key=lambda kv: sorted(kv[0])):
        if len(opposite) != 2:
            raise GateError(f"wall {sorted(facet)} lies on {len(opposite)} cones")
        u, u2 = opposite
        facet = sorted(facet)
        x = _solve([rays[u]] + [rays[w] for w in facet], rays[u2])
        if x[0] != -1:
            raise GateError(f"cones across wall {facet} overlap")
        pairing = [0] * m
        pairing[u] = pairing[u2] = 1
        for w, b in zip(facet, x[1:]):
            pairing[w] = -b
        out.append(pairing)
    return out


# ----------------------------------------------------------------- the gates

def _expect_status(status):
    if status != 0:
        raise GateError(f"exit status {status}, expected 0")


# Classes of the three top-edge (-2)-curves of chain3 in its rank-6 basis, and
# the golden open GW series delta_1..delta_3: every monomial has coefficient 1.
T1, T2, T3 = (1, 0, 0, 0, 0, 0), (-2, 1, 0, 0, 0, 0), (1, -2, 1, 0, 0, 0)
GOLDEN_CHAIN3 = {
    1: [(T1,), (T1, T2), (T1, T2, T3)],
    2: [(T2,), (T1, T2), (T2, T3), (T1, T2, T3), (T1, T2, T2, T3)],
    3: [(T3,), (T2, T3), (T1, T2, T3)],
}


def _golden_potential_terms(doc):
    """z-exponent -> {exponent: (num, den)} of ``(1 + delta_l) Z_l`` for l = 1, 2, 3."""
    basis, rest = _class_basis(doc)
    rank = len(rest)
    out = {}
    for ray, monomials in GOLDEN_CHAIN3.items():
        z = tuple(_solve([doc["rays"][b] for b in basis], doc["rays"][ray]))
        shift = [0] * rank
        if ray in rest:
            shift[rest.index(ray)] = 1
        exponents = [shift] + [[s + sum(t[k] for t in mono) for k, s in enumerate(shift)]
                               for mono in monomials]
        out[z] = {tuple(e): (1, 1) for e in exponents}
    return out


def check_potential(doc):
    golden = _golden_potential_terms(doc)

    def check(status, stdout):
        _expect_status(status)
        got = {tuple(t["z_exponent"]): {tuple(r["exponent"]): (r["num"], r["den"])
                                        for r in t["coefficient"]["terms"]}
               for t in json.loads(stdout)["terms"]}
        if len(got) != len(doc["rays"]):
            raise GateError(f"potential has {len(got)} terms, expected {len(doc['rays'])}")
        for z, want in golden.items():
            if got.get(z) != want:
                raise GateError(f"coefficient of z^{z} is {got.get(z)}, expected {want}")

    return check


CHECK_NAMES = {"roundtrip", "product-identity", "log-identity", "derivative-identity",
               "oracle", "potential-equality", "support-vanishing",
               "extended-factors", "fano-triviality"}


def check_all_passed(status, stdout):
    _expect_status(status)
    lines = stdout.splitlines()
    bad = [line for line in lines if not line.startswith("PASS ")]
    if bad:
        raise GateError(f"check-all reported {bad}")
    missing = CHECK_NAMES - {line[5:] for line in lines}
    if missing:
        raise GateError(f"check-all skipped {sorted(missing)}")


def check_seidel_fan(doc, path):
    """Gate for ``seidel-fan``: the exact fan; hands it on to ``validate``."""

    def check(status, stdout):
        _expect_status(status)
        if json.loads(stdout) != doc:
            raise GateError("seidel-fan printed a different fan")
        with open(path, "w") as fh:
            fh.write(stdout)

    return check


_VALIDATE = re.compile(
    r"fan OK: dim (\d+), (\d+) rays, (\d+) maximal cones\n"
    r"curve-class rank: (\d+)\n"
    r"ample weight: \(([-\d/, ]*)\)\n"
    r"semi-Fano: (yes|no)\n\Z")


def check_validate(doc):
    """Gate for ``validate``: counts, rank, ample weight and semi-Fano flag."""
    pairings = wall_pairings(doc)
    _, rest = _class_basis(doc)
    semi_fano = all(sum(p) >= 0 for p in pairings)
    shape = (doc["dim"], len(doc["rays"]), len(doc["max_cones"]),
             len(doc["rays"]) - doc["dim"])

    def check(status, stdout):
        _expect_status(status)
        match = _VALIDATE.match(stdout)
        if not match:
            raise GateError(f"unreadable validate report {stdout!r}")
        dim, m, cones, rank, weight, flag = match.groups()
        if (int(dim), int(m), int(cones), int(rank)) != shape:
            raise GateError(f"dim/rays/cones/rank {dim}/{m}/{cones}/{rank}, "
                            f"expected {shape}")
        fracs = [tuple(int(x) for x in (w.split("/") + ["1"])[:2])
                 for w in weight.split(", ")]
        if len(fracs) != len(rest):
            raise GateError(f"ample weight has {len(fracs)} entries, expected {len(rest)}")
        den = lcm(*(d for _, d in fracs))
        scaled = [num * (den // d) for num, d in fracs]
        for p in pairings:
            if sum(w * p[i] for w, i in zip(scaled, rest)) < den:
                raise GateError(f"ample weight is < 1 on wall curve {p}")
        if (flag == "yes") != semi_fano:
            raise GateError(f"semi-Fano flag {flag!r} contradicts the wall pairings")

    return check


# ------------------------------------------------------------- the workloads

def _chain3_deep(work):
    doc = load_fixture("chain3")
    return [Op("potential chain3 order 10",
               (Job(("potential", "--fan", "chain3", "--order", "10",
                     "--format", "json"), check_potential(doc)),))]


def _write(work, name, doc):
    path = os.path.join(work, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


CHECK_SUITE = [("chain3", None, None, "6"), ("f2", None, None, "16")] + [
    ("f2", ray, "plus", "10") for ray in range(4)] + [
    ("f2", 1, "minus", "10"), ("f2", 3, "minus", "10"), ("chain3", 2, "minus", "2")]


def _check_suite(work):
    ops = []
    for base, ray, sign, order in CHECK_SUITE:
        if ray is None:
            name, fan = base, base
        else:
            name = f"{base}-seidel-{ray}-{sign}"
            fan = _write(work, name, seidel_doc(load_fixture(base), ray, sign))
        ops.append(Op(f"check-all {name} order {order}",
                      (Job(("check-all", "--fan", fan, "--order", order),
                           check_all_passed),)))
    return ops


def _seidel_validate(work):
    ops = []
    for base in ("chain3", "f2"):
        fixture = load_fixture(base)
        for ray in range(len(fixture["rays"])):
            for sign in ("plus", "minus"):
                name = f"{base}-seidel-{ray}-{sign}"
                doc = seidel_doc(fixture, ray, sign)
                path = os.path.join(work, f"{name}.json")
                ops.append(Op(f"seidel-fan+validate {name}", (
                    Job(("seidel-fan", "--fan", base, "--ray", str(ray),
                         "--sign", sign), check_seidel_fan(doc, path)),
                    Job(("validate", "--fan", path), check_validate(doc)))))
    return ops


# Deadlines sit well above the slowest operation of each workload that
# finishes (about 6 s, 3 s and 2.7 s on the baseline machine).
WORKLOADS = {w.name: w for w in (
    Workload("chain3-deep", 60.0, _chain3_deep),
    Workload("check-suite", 8.0, _check_suite),
    Workload("seidel-validate", 8.0, _seidel_validate),
)}
