"""Smooth complete toric fans, wall curves and curve-class bookkeeping.

The input format is a small JSON document::

    {"dim": 2,
     "rays": [[1, 0], [0, 1], [-1, -1]],
     "max_cones": [[0, 1], [1, 2], [2, 0]],
     "labels": ["D1", "D2", "D3"],          # optional
     "basis_cone": [0, 1]}                  # optional

All numbers must be integers (floats are rejected, including "1.0" in JSON).
Ray indices are 0-based everywhere in the public interface.

:func:`validate` performs the structural checks (primitive rays, unimodular
maximal cones, every facet shared by exactly two cones, connected dual graph,
projectivity) and returns a :class:`ToricContext` holding the derived linear
algebra: the dual basis of the chosen smooth cone, the ray/curve pairing
matrix, the anticanonical degrees, wall curve classes and an exact rational
grading weight that is >= 1 on every wall curve.

Curve classes are written in the basis dual to the rays outside the basis
cone, so a class is a plain tuple of ``int`` of length ``m - dim`` (the
context's ``rank``); :func:`check_class` is the one place that checks one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import wraps
from math import gcd
from operator import index

from . import lp
from ._record import Record


class FanError(ValueError):
    """Raised when a fan document is malformed or fails validation."""


class Wall(Record):
    """An interior codimension-one cone with its primitive curve class.

    ``rays`` are the original indices spanning the wall, ``cones`` the two
    maximal cones meeting along it, ``curve`` the wall curve's class.
    """

    __slots__ = ("rays", "cones", "curve")


class Fan(Record):
    __slots__ = ("dim", "rays", "max_cones", "labels", "basis_cone")
    _defaults = {"labels": None, "basis_cone": None}

    def to_dict(self) -> dict:
        doc = {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        if self.basis_cone is not None:
            doc["basis_cone"] = list(self.basis_cone)
        return doc


def _reject_float(text):
    raise FanError(f"fan documents must use integers only (saw {text!r})")


def _check_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise FanError(f"{what} must be an integer, got {value!r}")
    return value


def parse_fan(source) -> Fan:
    """Parse and structurally check a fan document (str, bytes or dict)."""
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source, parse_float=_reject_float)
        except FanError:
            raise
        except json.JSONDecodeError as exc:
            raise FanError(f"invalid JSON: {exc}") from exc
    elif isinstance(source, dict):
        doc = source
    else:
        raise FanError(f"cannot parse fan from {type(source).__name__}")
    if not isinstance(doc, dict):
        raise FanError("fan document must be a JSON object")

    for key in ("dim", "rays", "max_cones"):
        if key not in doc:
            raise FanError(f"fan document is missing required key {key!r}")

    dim = _check_int(doc["dim"], "dim")
    if dim < 1:
        raise FanError("dim must be at least 1")

    rays_doc = doc["rays"]
    if not isinstance(rays_doc, list) or not rays_doc:
        raise FanError("rays must be a non-empty list")
    rays = []
    for i, ray in enumerate(rays_doc):
        if not isinstance(ray, list) or len(ray) != dim:
            raise FanError(f"ray {i} must be a list of {dim} integers")
        vec = tuple(_check_int(x, f"ray {i} entry") for x in ray)
        g = 0
        for x in vec:
            g = gcd(g, abs(x))
        if g == 0:
            raise FanError(f"ray {i} is the zero vector")
        if g != 1:
            raise FanError(f"ray {i} is not primitive (gcd {g})")
        rays.append(vec)
    if len(set(rays)) != len(rays):
        raise FanError("duplicate rays are not allowed")

    cones_doc = doc["max_cones"]
    if not isinstance(cones_doc, list) or not cones_doc:
        raise FanError("max_cones must be a non-empty list")
    cones = []
    seen = set()
    for i, cone in enumerate(cones_doc):
        if not isinstance(cone, list):
            raise FanError(f"cone {i} must be a list of ray indices")
        idx = tuple(_check_int(x, f"cone {i} entry") for x in cone)
        for x in idx:
            if not 0 <= x < len(rays):
                raise FanError(f"cone {i} references ray {x}, out of range")
        if len(set(idx)) != len(idx):
            raise FanError(f"cone {i} repeats a ray")
        key = tuple(sorted(idx))
        if key in seen:
            raise FanError(f"cone {i} duplicates an earlier cone")
        seen.add(key)
        cones.append(idx)

    labels = None
    if doc.get("labels") is not None:
        labels_doc = doc["labels"]
        if (not isinstance(labels_doc, list)
                or len(labels_doc) != len(rays)
                or not all(isinstance(s, str) for s in labels_doc)):
            raise FanError("labels must be a list of strings, one per ray")
        labels = tuple(labels_doc)

    basis_cone = None
    if doc.get("basis_cone") is not None:
        bc = doc["basis_cone"]
        if not isinstance(bc, list):
            raise FanError("basis_cone must be a list of ray indices")
        basis_cone = tuple(_check_int(x, "basis_cone entry") for x in bc)
        if tuple(sorted(basis_cone)) not in seen:
            raise FanError("basis_cone is not one of the maximal cones")

    return Fan(dim=dim, rays=tuple(rays), max_cones=tuple(cones),
               labels=labels, basis_cone=basis_cone)


def _det(rows) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(rows)
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _cramer(columns, target):
    """Integer Cramer's rule for ``sum_j x_j * columns[j] == target``.

    Returns ``(nums, det)`` with ``x_j == nums[j] / det``: ``det`` is the
    determinant of the columns and ``nums[j]`` the one with column ``j``
    replaced by ``target``, all by :func:`_det`, so all ``int``.  Either
    way ``sum_j nums[j] * columns[j] == det * target``; a singular system
    gives ``det == 0`` and zero numerators.
    """
    columns = list(columns)
    det = _det(columns)
    if not det:
        return (0,) * len(columns), 0
    return tuple(_det(columns[:j] + [target] + columns[j + 1:])
                 for j in range(len(columns))), det


class ToricContext:
    """Validated fan together with its curve-class linear algebra.

    Every ray keeps its index in the fan document.  ``basis_perm`` lists the
    rays of the basis cone first, then the others, each part sorted; the
    k-th component of a curve class is its pairing with the divisor at
    ``basis_perm[n + k]``.  ``P[ray][k]`` is the intersection number of the
    divisor at ``ray`` with the k-th basis curve class, ``c1`` the column
    sums (anticanonical degrees), and ``z[ray]`` the ray in the coordinates
    dual to the basis cone: the exponent of its monomial in ``z``.

    Contexts compare by identity, and everything derived from one is built
    once: a function decorated with :func:`memoised` keeps its result in
    ``_cache`` under the key ``(function, *arguments)``, and later calls with
    equal arguments (``8`` and ``Fraction(8)`` are equal) return that same
    object.  No other code reads or writes ``_cache``.
    """

    def __init__(self, fan, n, m, basis_perm, z, P, c1, ample_weight, walls):
        self.fan = fan
        self.n = n
        self.m = m
        self.basis_perm = basis_perm
        self.z = z
        self.P = P
        self.c1 = c1
        self.ample_weight = ample_weight
        self.walls = walls
        self._cache = {}

    @property
    def rank(self) -> int:
        return self.m - self.n

    def pairing(self, ray: int, curve) -> int:
        """Intersection number of the divisor at ``ray`` with ``curve``."""
        return sum(p * c for p, c in zip(self.P[ray], check_class(self, curve)))

    def degree(self, curve) -> int:
        """Anticanonical degree ``c1 . curve``."""
        return sum(a * c for a, c in zip(self.c1, check_class(self, curve)))

    def weight(self, curve) -> Fraction:
        """Grading weight of ``curve`` under the ample weight."""
        return sum((w * c for w, c in zip(self.ample_weight, check_class(self, curve))),
                   Fraction(0))


def check_ray(ctx: ToricContext, ray: int) -> None:
    """Raise :class:`FanError` unless ``ray`` indexes a ray of ``ctx``."""
    if not 0 <= ray < ctx.m:
        raise FanError(f"ray index {ray} out of range 0..{ctx.m - 1}")


def check_class(ctx: ToricContext, curve) -> tuple:
    """``curve`` as a tuple of ``int``; raise :class:`FanError` unless it
    has ``ctx.rank`` integer components."""
    try:
        curve = tuple(map(index, curve))
    except TypeError:
        raise FanError(f"curve class {curve!r} has a component that is not an integer") from None
    if len(curve) != ctx.rank:
        raise FanError(f"curve class has {len(curve)} components, need the rank {ctx.rank}")
    return curve


def memoised(builder):
    """Run ``builder(ctx, *args)`` once per context and arguments."""

    @wraps(builder)
    def cached(ctx, *args):
        key = (builder, *args)
        if key not in ctx._cache:
            ctx._cache[key] = builder(ctx, *args)
        return ctx._cache[key]

    return cached


def _facets(cone):
    cone = tuple(cone)
    if len(cone) == 1:
        return [()]
    return [tuple(x for x in cone if x != drop) for drop in cone]


def validate(fan: Fan, basis_cone=None) -> ToricContext:
    """Check a fan and assemble its :class:`ToricContext`.

    Raises :class:`FanError` when the fan is not smooth, not complete (in the
    sense that some wall is not shared by exactly two cones or the dual graph
    is disconnected), or admits no strictly positive grading on its wall
    curves (non-projective).

    The ample weight comes from one grading LP: the lexicographically least
    minimiser of the total wall degree subject to weight >= 1 on every wall
    curve.  Each of its components is positive, because the weight is an
    ample class (toric Kleiman) whose strictly convex support function
    vanishes on the basis cone.
    """
    if isinstance(fan, dict):
        fan = parse_fan(fan)
    n, m = fan.dim, len(fan.rays)

    used = set()
    for cone in fan.max_cones:
        used.update(cone)
    if used != set(range(m)):
        missing = sorted(set(range(m)) - used)
        raise FanError(f"rays {missing} appear in no maximal cone")

    for ci, cone in enumerate(fan.max_cones):
        if len(cone) != n:
            raise FanError(f"cone {ci} has {len(cone)} rays, expected {n}")
        d = _det([fan.rays[i] for i in cone])
        if abs(d) != 1:
            raise FanError(f"cone {ci} is not unimodular (determinant {d})")

    # Every facet of a maximal cone must be shared by exactly two of them and
    # the adjacency graph must be connected: together with unimodularity this
    # pins down a smooth complete fan.
    facet_map = {}
    for ci, cone in enumerate(fan.max_cones):
        for facet in _facets(cone):
            facet_map.setdefault(frozenset(facet), []).append(ci)
    adjacency = {ci: set() for ci in range(len(fan.max_cones))}
    for facet, owners in facet_map.items():
        if len(owners) != 2:
            raise FanError(
                f"wall {sorted(facet)} belongs to {len(owners)} maximal cones, expected 2")
        a, b = owners
        adjacency[a].add(b)
        adjacency[b].add(a)
    frontier = [0]
    reached = {0}
    while frontier:
        for nxt in adjacency[frontier.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    if len(reached) != len(fan.max_cones):
        raise FanError("fan support is disconnected")

    if basis_cone is None:
        basis_cone = fan.basis_cone if fan.basis_cone is not None else fan.max_cones[0]
    basis = tuple(sorted(basis_cone))
    if basis not in {tuple(sorted(c)) for c in fan.max_cones}:
        raise FanError("basis cone is not a maximal cone of the fan")

    others = tuple(i for i in range(m) if i not in set(basis))
    basis_perm = basis + others

    # Dual basis of the basis cone: nu[p] . rays[basis[q]] == delta(p, q).
    # The cone is unimodular: its determinant is +-1, so dividing by it is
    # multiplying by it, and nu is integral.
    columns = list(zip(*(fan.rays[i] for i in basis)))
    nu = []
    for p in range(n):
        nums, det = _cramer(columns, tuple(int(q == p) for q in range(n)))
        nu.append(tuple(det * x for x in nums))
    z = tuple(tuple(sum(a * x for a, x in zip(nu_p, ray)) for nu_p in nu)
              for ray in fan.rays)

    # The divisor relations: D_{basis[p]} = -sum_k z[others[k]][p] D_{others[k]}.
    rank = m - n
    P = [None] * m
    for p, ray in enumerate(basis):
        P[ray] = tuple(-z[other][p] for other in others)
    for k, ray in enumerate(others):
        P[ray] = tuple(int(t == k) for t in range(rank))
    P = tuple(P)
    c1 = tuple(sum(row[k] for row in P) for k in range(rank))

    walls = []
    for facet_key in sorted(facet_map, key=lambda f: tuple(sorted(f))):
        ca, cb = facet_map[facet_key]
        facet = tuple(sorted(facet_key))
        u = next(i for i in fan.max_cones[ca] if i not in facet_key)
        u2 = next(i for i in fan.max_cones[cb] if i not in facet_key)
        # Write the opposite ray in the basis {u} + facet of the first cone,
        # which is unimodular (det +-1), so the coordinates are integers; for
        # a genuine fan the u-coordinate is forced to be -1.
        nums, det = _cramer([fan.rays[u]] + [fan.rays[w] for w in facet], fan.rays[u2])
        sol = [det * x for x in nums]
        if sol[0] != -1:
            raise FanError(
                f"cones {ca} and {cb} overlap: rays {u} and {u2} lie on the same "
                f"side of wall {list(facet)}")
        pairings = [0] * m
        pairings[u] = 1
        pairings[u2] = 1
        for w, b in zip(facet, sol[1:]):
            pairings[w] = -b
        walls.append(Wall(rays=facet, cones=(ca, cb),
                          curve=tuple(pairings[ray] for ray in others)))

    # Grading weight: an exact rational vector with weight(wall curve) >= 1
    # for every wall; its existence is projectivity.  Minimising the total
    # wall degree makes the choice deterministic.
    cons = [(curve, 1) for curve in sorted({w.curve for w in walls})]
    objective = [sum(c[k] for c, _ in cons) for k in range(rank)]
    try:
        _, weight = lp.minimize(objective, cons, rank)
    except ValueError as exc:
        raise FanError("fan is not projective: no grading is positive on all "
                       "wall curves") from exc

    return ToricContext(fan=fan, n=n, m=m, basis_perm=basis_perm, z=z, P=P, c1=c1,
                        ample_weight=tuple(weight), walls=tuple(walls))


def semi_fano_check(ctx: ToricContext):
    """Whether every wall curve has non-negative anticanonical degree.

    Returns ``(True, None)`` or ``(False, offending_wall)``.
    """
    for wall in ctx.walls:
        if ctx.degree(wall.curve) < 0:
            return False, wall
    return True, None


def is_vertex(ctx: ToricContext, ray: int) -> bool:
    """Whether the ray generator is a vertex of the fan polytope.

    The fan polytope is the convex hull of all primitive ray generators.  A
    generator is a vertex exactly when the facets through it share no other
    generator, that is, when its :func:`minimal_face` is itself.
    """
    return minimal_face(ctx, ray) == (ray,)


@memoised
def _polytope_facets(ctx: ToricContext):
    """Facets of the fan polytope as frozensets of ray indices.

    Found by brute force over supporting hyperplanes through ``dim`` of the
    generators, in any dimension: every facet spans a hyperplane
    ``a . x == 1`` off the origin, so it holds ``dim`` linearly independent
    generators.  :func:`_cramer` gives ``a`` as ``nums / det``, so each
    generator ``p`` is compared by ``nums . p`` against ``det``, in ``int``.
    That is ``C(m, dim)`` small solves, fine for the fans the engine handles.
    """
    from itertools import combinations

    pts = ctx.fan.rays
    facets = set()
    for subset in combinations(range(ctx.m), ctx.n):
        nums, det = _cramer(zip(*(pts[i] for i in subset)), (1,) * ctx.n)
        if not det:
            continue
        if det < 0:
            nums, det = [-x for x in nums], -det
        values = [sum(a * x for a, x in zip(nums, p)) for p in pts]
        if all(val <= det for val in values):
            facets.add(frozenset(p for p, val in enumerate(values) if val == det))
    return tuple(sorted(facets, key=lambda f: tuple(sorted(f))))


def minimal_face(ctx: ToricContext, ray: int):
    """Ray indices of the smallest fan-polytope face containing the generator.

    The minimal face is the intersection of all facets through the point; a
    generator interior to the polytope (on no facet) yields the whole set.
    """
    check_ray(ctx, ray)
    containing = [f for f in _polytope_facets(ctx) if ray in f]
    if not containing:
        return tuple(range(ctx.m))
    face = set(containing[0])
    for f in containing[1:]:
        face &= f
    return tuple(sorted(face))


def seidel_fan(ctx: ToricContext, ray: int, sign: str = "plus") -> Fan:
    """Fan of the fibrewise compactified mapping torus for a divisor rotation.

    The output is one dimension higher: every base ray ``v`` lifts to
    ``(0, v)``, and two new rays ``(1, 0, ..., 0)`` and ``(-1, +/- v_j)`` cap
    the fibre direction.  Each base cone spawns two lifted cones, one with
    each cap.  The "plus" fan compactifies the rotation around the divisor at
    ``ray``; "minus" uses the inverse rotation.
    """
    check_ray(ctx, ray)
    if sign not in ("plus", "minus"):
        raise FanError(f"sign must be 'plus' or 'minus', got {sign!r}")
    vj = ctx.fan.rays[ray]
    if sign == "minus":
        vj = tuple(-x for x in vj)
    rays = [(1,) + (0,) * ctx.n, (-1,) + vj]
    rays.extend((0,) + v for v in ctx.fan.rays)
    cones = []
    for cone in ctx.fan.max_cones:
        lifted = [2 + i for i in cone]
        cones.append(lifted + [0])
        cones.append(lifted + [1])
    return parse_fan({
        "dim": ctx.n + 1,
        "rays": [list(r) for r in rays],
        "max_cones": cones,
    })
