import itertools
import math
import random
from fractions import Fraction
from math import gcd

import pytest

from toricmirror import enumerate_classes, lp, seidel_fan, validate
from toricmirror.lp import LPUnboundedError

# every constraint is coeffs . x >= rhs


def test_feasible_interval():
    assert lp.feasible([((1,), 1), ((-1,), -2)], 1)
    assert not lp.feasible([((1,), 2), ((-1,), -1)], 1)


def test_witness_satisfies_random_systems():
    rng = random.Random(3)
    for _ in range(40):
        nvars = rng.randrange(1, 4)
        center = [rng.randrange(-3, 4) for _ in range(nvars)]
        cons = []
        for _ in range(rng.randrange(1, 6)):
            coeffs = tuple(rng.randrange(-3, 4) for _ in range(nvars))
            slack = rng.randrange(0, 3)
            cons.append((coeffs, sum(c * x for c, x in zip(coeffs, center)) - slack))
        point = lp.witness(cons, nvars)
        assert point is not None
        for coeffs, rhs in cons:
            assert sum(c * x for c, x in zip(coeffs, point)) >= rhs
    # no rows: every point is feasible, and the witness is the origin
    assert lp.witness([], 3) == (0, 0, 0)
    # no variables: the one point satisfies 0 >= -1 but not 0 >= 1
    for cons in ([], [((), -1)], [((), 0), ((), Fraction(-1, 2))]):
        assert lp.witness(cons, 0) == () and lp.feasible(cons, 0)
    for cons in ([((), 1)], [((), -1), ((), Fraction(1, 3))]):
        assert lp.witness(cons, 0) is None and not lp.feasible(cons, 0)


def test_minimize_simple_vertex():
    value, point = lp.minimize([1, 1], [((1, 0), 1), ((0, 1), 2)], 2)
    assert value == 3 and point == (1, 2)


def test_minimize_tilted():
    # min x+y subject to x+2y >= 8, x >= 0, y >= 0 is 4 at (0,4)
    cons = [((1, 2), 8), ((1, 0), 0), ((0, 1), 0)]
    value, point = lp.minimize([1, 1], cons, 2)
    assert value == 4
    assert point == (0, 4)


def test_minimize_fractional_answer():
    cons = [((2, 1), 3), ((1, 2), 3)]
    value, _ = lp.minimize([1, 1], cons, 2)
    assert value == 2  # optimum at (1,1)


def test_minimize_infeasible():
    with pytest.raises(ValueError):
        lp.minimize([1], [((1,), 2), ((-1,), -1)], 1)


def test_minimize_unbounded():
    with pytest.raises(LPUnboundedError):
        lp.minimize([-1], [((1,), 0)], 1)


def test_integer_points_triangle():
    cons = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -3)]
    points = lp.integer_points(cons, 2)
    expected = {(x, y) for x in range(4) for y in range(4) if x + y <= 3}
    assert set(points) == expected
    assert len(points) == len(expected)


def test_integer_points_empty():
    assert lp.integer_points([((1,), 1), ((-1,), 0)], 1) == []


def test_integer_points_unbounded():
    with pytest.raises(LPUnboundedError):
        lp.integer_points([((1, 0), 0), ((0, 1), 0)], 2)


def test_integer_points_empty_with_an_unbounded_direction():
    # x_1 has no upper row, but 1 <= x_0 <= 0 leaves no node at which to
    # bracket it, so the polyhedron is empty rather than unbounded
    assert lp.integer_points([((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)], 2) == []


def test_norm_keeps_int_rows_and_scales_the_others():
    row = (2, -4)
    assert lp._norm(row, 3)[0] is row and lp._norm(row, 3)[1] == 3
    assert lp._norm((Fraction(1, 2), 1), Fraction(1, 3)) == ([3, 6], 2)
    assert lp._norm((Fraction(2), 1), 0) == ([2, 1], 0)


@pytest.mark.parametrize("solve, kind", [
    (lambda: lp.minimize([1], [((0.1,), 0.3)], 1), "float"),
    (lambda: lp.minimize([1], [(("1/3",), 1)], 1), "str"),
    (lambda: lp.feasible([((True,), 1)], 1), "bool"),
    (lambda: lp.feasible([((), 0.5)], 0), "float"),
], ids=["float", "str", "bool", "float-no-variables"])
def test_rows_take_only_int_or_fraction(solve, kind):
    # a float row is never made exact, a string never parsed, and True is
    # not the coefficient 1
    with pytest.raises(ValueError, match=f"must be int or Fraction, got {kind}$"):
        solve()


@pytest.mark.parametrize("solve, message", [
    (lambda: lp.minimize((1, 1, 1), [((1, 0), 1), ((0, 1), 1)], 2),
     "objective has width 3, not the variable count 2"),
    (lambda: lp.minimize((1,), [((1, 0), 1), ((0, 1), 1)], 2),
     "objective has width 1, not the variable count 2"),
    (lambda: lp.feasible([((1,), 1), ((1, 1), 0)], 2),
     "constraint has width 1, not the variable count 2"),
    (lambda: lp.integer_points([((1, 0), 0), ((-1,), -3)], 2),
     "constraint has width 1, not the variable count 2"),
    (lambda: lp.witness([((1, 0, 0), 1)], 2),
     "constraint has width 3, not the variable count 2"),
    (lambda: lp.witness([((1,), 5)], 0),
     "constraint has width 1, not the variable count 0"),
], ids=["long-objective", "short-objective", "feasible", "integer-points", "witness",
        "no-variables"])
def test_rows_have_one_coefficient_per_variable(solve, message):
    # an entry past the last variable is never dropped and a short row never
    # read past its end, also where there are no variables
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve()


@pytest.mark.parametrize("solve, kind", [
    (lambda: lp.integer_points([((1,), 0), ((-1,), -2)], True), "bool"),
    (lambda: lp.integer_points([((1,), 0), ((-1,), -2)], 1.0), "float"),
    (lambda: lp.witness([((1,), 0)], True), "bool"),
    (lambda: lp.feasible([((1,), 0)], True), "bool"),
    (lambda: lp.minimize((1,), [((1,), 0)], True), "bool"),
    (lambda: lp.witness([], False), "bool"),
], ids=["integer-points", "integer-points-float", "witness", "feasible", "minimize",
        "no-variables"])
def test_the_variable_count_is_an_int(solve, kind):
    # True is not the count 1, nor False the count 0
    with pytest.raises(ValueError, match=f"^variable count must be an int, got {kind}$"):
        solve()


def test_integer_points_match_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        nvars = rng.randrange(1, 4)
        box = [((tuple(1 if j == k else 0 for j in range(nvars))), -4)
               for k in range(nvars)]
        box += [((tuple(-1 if j == k else 0 for j in range(nvars))), -4)
                for k in range(nvars)]
        cuts = []
        for _ in range(rng.randrange(0, 4)):
            coeffs = tuple(rng.randrange(-2, 3) for _ in range(nvars))
            cuts.append((coeffs, rng.randrange(-6, 3)))
        cons = box + cuts
        got = set(lp.integer_points(cons, nvars))
        grid = itertools.product(range(-4, 5), repeat=nvars)
        want = {p for p in grid
                if all(sum(c * x for c, x in zip(coeffs, p)) >= rhs
                       for coeffs, rhs in cons)}
        assert got == want
    # no variables: the space is one point, the empty tuple
    assert lp.integer_points([], 0) == list(itertools.product(range(-4, 5), repeat=0)) == [()]
    assert lp.integer_points([((), -1)], 0) == [()]
    assert lp.integer_points([((), 1)], 0) == []
    assert lp.integer_points([((), 0), ((), Fraction(1, 2))], 0) == []


# ------------------------------------------------- exact results, never float

def assert_exact(*values):
    for v in values:
        assert type(v) in (int, Fraction), repr(v)


def test_fractional_optimum_is_an_exact_fraction():
    # min x+y s.t. 2x+y >= 2, x+3y >= 3, x,y >= 0: the vertex (3/5, 4/5)
    cons = [((2, 1), 2), ((1, 3), 3), ((1, 0), 0), ((0, 1), 0)]
    value, point = lp.minimize([1, 1], cons, 2)
    assert value == Fraction(7, 5)
    assert_exact(value, *point)
    assert sum(point) == value
    assert all(sum(c * x for c, x in zip(coeffs, point)) >= rhs for coeffs, rhs in cons)
    assert_exact(*lp.witness(cons, 2))
    assert_exact(*lp.witness([((3,), 1), ((-3,), -2)], 1))
    boxed = cons + [((-1, 0), -3), ((0, -1), -3)]
    points = lp.integer_points(boxed, 2)
    assert (1, 1) in points and (0, 2) in points and (0, 1) not in points
    assert all(type(x) is int for p in points for x in p)


@pytest.mark.parametrize("name", ["p2", "f2", "chain3"])
def test_fan_systems_give_exact_results(monkeypatch, load, name):
    # record every LP that validating a fan and enumerating its classes solves
    calls = {"minimize": [], "integer_points": []}
    for fn, seen in calls.items():
        def spy(*args, _real=getattr(lp, fn), _seen=seen):
            result = _real(*args)
            _seen.append((args, result))
            return result
        monkeypatch.setattr(lp, fn, spy)
    ctx = load(name)
    for ray in range(ctx.m):
        enumerate_classes(ctx, ray, 6)
    assert all(calls.values())
    for (_, cons, nvars), (value, point) in calls["minimize"]:
        assert_exact(value, *point)
        assert_exact(*lp.witness(cons, nvars))
    for _, points in calls["integer_points"]:
        assert all(type(x) is int for p in points for x in p)


@pytest.fixture(scope="module")
def chain3_seidel(chain3):
    """The rank-7 Seidel 3-fold of chain3 at ray 2, minus."""
    return validate(seidel_fan(chain3, 2, "minus"))


@pytest.mark.parametrize("order", [2, Fraction(7, 2), 6], ids=str)
@pytest.mark.parametrize("name", ["f2", "chain3", "chain3_seidel"])
def test_enumerate_classes_matches_a_box_scan(request, name, order):
    # an index set found without the descent: every integer point of the
    # polytope's bounding box, filtered by the original Fraction constraints
    ctx = request.getfixturevalue(name)
    rank, weight, order = ctx.rank, ctx.ample_weight, Fraction(order)
    c1 = tuple(Fraction(c) for c in ctx.c1)
    pairing = [tuple(Fraction(p) for p in ctx.P[i]) for i in range(ctx.m)]
    dot = lambda a, d: sum(x * y for x, y in zip(a, d))
    for ray in range(ctx.m):
        cons = [(c1, 0), (tuple(-c for c in c1), 0), (tuple(-w for w in weight), -order)]
        cons += [(tuple(-p for p in row), 1) if i == ray else (row, 0)
                 for i, row in enumerate(pairing)]
        try:
            box = []
            for k in range(rank):
                unit = tuple(Fraction(int(i == k)) for i in range(rank))
                lo = lp.minimize(unit, cons, rank)[0]
                hi = -lp.minimize(tuple(-u for u in unit), cons, rank)[0]
                box.append(range(math.ceil(lo), math.floor(hi) + 1))
        except ValueError:          # no rational point, so no class
            box = [range(0)]
        assert math.prod(map(len, box)) <= 1000
        scan = [d for d in itertools.product(*box)
                if dot(c1, d) == 0 and dot(pairing[ray], d) <= -1
                and all(dot(row, d) >= 0 for i, row in enumerate(pairing) if i != ray)
                and dot(weight, d) <= order]
        scan.sort(key=lambda d: (dot(weight, d), d))
        assert enumerate_classes(ctx, ray, order) == scan


def bounds_by_direction(cons):
    """``{primitive direction p: b / g}`` for rows ``c . x >= b``, ``c = g p``,
    keeping the tightest bound of each direction."""
    best = {}
    for coeffs, rhs in cons:
        g = gcd(*coeffs) or 1
        key = tuple(c // g for c in coeffs)
        best[key] = max(best.get(key, Fraction(rhs, g)), Fraction(rhs, g))
    return best


def test_eliminate_matches_plain_fourier_motzkin():
    # 2 variables: the last stage of a chain, with one variable left over;
    # 3 variables: two left over
    rng = random.Random(13)
    for _ in range(60):
        nvars = rng.choice((2, 3))
        rows = [(tuple(rng.randrange(-4, 5) for _ in range(nvars)), rng.randrange(-6, 7), 0)
                for _ in range(rng.randrange(1, 9))]
        cons = [(c, b) for c, b, _ in lp._dedupe(rows)]
        j = nvars - 1
        plain = [(c, b) for c, b in cons if not c[j]]
        for cp, bp in cons:
            for cn, bn in cons:
                if cp[j] > 0 > cn[j]:
                    ap, an = cp[j], -cn[j]
                    plain.append((tuple(an * x + ap * y for x, y in zip(cp, cn)),
                                  an * bp + ap * bn))
        got = [(c, b) for c, b, _ in lp.eliminate([(c, b, 0) for c, b in cons], j)]
        assert bounds_by_direction(got) == bounds_by_direction(plain)
        assert len(got) == len(bounds_by_direction(plain))
        for coeffs, rhs in got:
            assert not coeffs[j]
            assert all(type(v) is int for v in coeffs + (rhs,))
            assert gcd(*coeffs, rhs) == 1 or not any(coeffs)


# --------------------------------------------------- Chernikov-pruned chains

def unpruned_chain(cons, nvars):
    """The stages of Fourier-Motzkin without Chernikov's rule: every pair of
    every elimination is formed, and only parallel rows are merged."""
    rows = bounds_by_direction(cons)
    stages = [rows]
    for j in range(nvars - 1, 0, -1):
        rows = bounds_by_direction(
            [(c, b) for c, b in rows.items() if not c[j]]
            + [(tuple(-cn[j] * x + cp[j] * y for x, y in zip(cp, cn)),
                -cn[j] * bp + cp[j] * bn)
               for cp, bp in rows.items() if cp[j] > 0
               for cn, bn in rows.items() if cn[j] < 0])
        stages.insert(0, rows)
    return [[(c, b, 0) for c, b in stage.items()] for stage in stages]


def lp_results(cons, nvars, objective):
    try:
        optimum = lp.minimize(objective, cons, nvars)
    except ValueError:
        optimum = None
    return (lp.feasible(cons, nvars), lp.witness(cons, nvars), optimum,
            lp.integer_points(cons, nvars))


def test_pruned_chain_matches_unpruned_fourier_motzkin(monkeypatch):
    rng = random.Random(29)
    systems = []
    for _ in range(100):
        nvars = rng.randrange(2, 5)
        box = [(tuple((1 if j == k else 0) * s for j in range(nvars)), -rng.randrange(1, 4))
               for k in range(nvars) for s in (1, -1)]
        cuts = [(tuple(rng.randrange(-2, 3) for _ in range(nvars)), rng.randrange(-6, 4))
                for _ in range(rng.randrange(0, 6))]
        systems.append((box + cuts, nvars, tuple(rng.randrange(-3, 4) for _ in range(nvars))))
    pruned = [lp_results(*system) for system in systems]
    sizes = [[len(stage) for stage in lp._chain(cons, nvars)] for cons, nvars, _ in systems]
    monkeypatch.setattr(lp, "_chain", unpruned_chain)
    assert pruned == [lp_results(*system) for system in systems]
    unpruned = [[len(stage) for stage in unpruned_chain(cons, nvars)]
                for cons, nvars, _ in systems]
    assert all(p <= u for got, want in zip(sizes, unpruned) for p, u in zip(got, want))
    assert sizes != unpruned


def test_merged_rows_keep_only_their_shared_history():
    # keeping the tightest of each set of parallel rows with that row's own
    # history drops a needed row here: the minimum came out as -15/2, at
    # (-2, 15/2, 13/2), which breaks y <= 3
    cons = [((1, 0, 0), -3), ((-1, 0, 0), -1), ((0, 1, 0), -3), ((0, -1, 0), -3),
            ((0, 0, 1), -1), ((0, 0, -1), -2), ((0, 1, -1), 1), ((-2, 0, -1), 1),
            ((1, 0, 2), 2), ((2, 2, 1), -5)]
    assert lp.minimize([1, 1, -2], cons, 3) == (-3, (-2, 3, 2))


def test_minimize_returns_lexicographically_smallest_optimum():
    # the optimal face of min x+y is the edge x+y = 2 from (0, 2) to (2, 0)
    square = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -2)]
    assert lp.minimize([1, 1], [((1, 1), 2)] + square, 2) == (2, (0, 2))
    # that of min x+y+z over the cube [0, 2]^3 with x+y+z >= 3 is a triangle
    cube = [(tuple(s if j == k else 0 for j in range(3)), -2 if s < 0 else 0)
            for k in range(3) for s in (1, -1)]
    assert lp.minimize([1, 1, 1], [((1, 1, 1), 3)] + cube, 3) == (3, (0, 1, 2))
