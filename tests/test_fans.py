import inspect
import json
import pickle
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from toricmirror import (
    Fan,
    FanError,
    Wall,
    enumerate_classes,
    is_vertex,
    minimal_face,
    parse_fan,
    seidel_fan,
    semi_fano_check,
    validate,
)
from toricmirror import checks, lp, mirror
from toricmirror.fans import _bareiss, _polytope_facets

P1 = {"dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}
# Hirzebruch F3: the (-3)-section makes this fan *not* semi-Fano
F3 = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 3], [0, -1]],
      "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}


# ----------------------------------------------------------------- parsing

def test_parse_rejects_floats():
    with pytest.raises(FanError):
        parse_fan('{"dim": 2, "rays": [[1.0, 0], [0, 1]], "max_cones": [[0, 1]]}')


def test_parse_reports_undecodable_input_as_invalid_json(fixture_text):
    for source in ("{", b"\xff", fixture_text("p2").encode() + b"\xff"):
        with pytest.raises(FanError, match="invalid JSON"):
            parse_fan(source)


def test_parse_rejects_booleans():
    with pytest.raises(FanError):
        parse_fan({"dim": 2, "rays": [[True, 0], [0, 1], [-1, -1]],
                   "max_cones": [[0, 1], [1, 2], [2, 0]]})


def test_parse_rejects_imprimitive_ray():
    with pytest.raises(FanError):
        parse_fan({"dim": 2, "rays": [[2, 0], [0, 1], [-1, -1]],
                   "max_cones": [[0, 1], [1, 2], [2, 0]]})
    with pytest.raises(FanError):
        parse_fan({"dim": 1, "rays": [[0]], "max_cones": [[0]]})


def test_parse_rejects_duplicates():
    with pytest.raises(FanError):
        parse_fan({"dim": 1, "rays": [[1], [1]], "max_cones": [[0], [1]]})
    with pytest.raises(FanError):
        parse_fan({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                   "max_cones": [[0, 1], [1, 2], [2, 0], [1, 2]]})


def test_parse_rejects_bad_cone():
    with pytest.raises(FanError):
        parse_fan({"dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [5]]})
    with pytest.raises(FanError):
        parse_fan({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                   "max_cones": [[0, 0], [1, 2], [2, 0]]})
    # each cone lists dim rays, and every ray lies in some cone
    with pytest.raises(FanError, match=r"^cone 1 has 1 rays, expected 2$"):
        parse_fan({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                   "max_cones": [[0, 1], [1], [2, 0]]})
    with pytest.raises(FanError, match=r"^rays \[1\] appear in no maximal cone$"):
        parse_fan({"dim": 1, "rays": [[1], [-1]], "max_cones": [[0]]})


def test_parse_checks_labels_and_basis_cone():
    doc = {"dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}
    with pytest.raises(FanError):
        parse_fan(doc | {"labels": ["a"]})
    with pytest.raises(FanError):
        parse_fan(doc | {"basis_cone": [0, 1]})
    fan = parse_fan(doc | {"labels": ["a", "b"], "basis_cone": [1]})
    assert fan.labels == ("a", "b")
    assert fan.basis_cone == (1,)


def test_parse_rejects_a_basis_cone_that_repeats_a_ray(fixture_text):
    doc = json.loads(fixture_text("p2"))
    with pytest.raises(FanError, match="basis cone is not a maximal cone of the fan"):
        parse_fan(doc | {"basis_cone": [0, 1, 1]})
    assert parse_fan(doc | {"basis_cone": [1, 0]}).basis_cone == (1, 0)


def test_to_dict_roundtrip(fixture_text):
    fan = parse_fan(fixture_text("chain3"))
    again = parse_fan(json.dumps(fan._asdict()))
    assert again == fan
    # a Fan's own fields, tuples all, parse to the same Fan
    assert parse_fan(fan._asdict()) == fan


# -------------------------------------------------------------- validation

def test_validate_rejects_incomplete_fan():
    with pytest.raises(FanError):
        validate(parse_fan({"dim": 2, "rays": [[1, 0], [0, 1]],
                            "max_cones": [[0, 1]]}))


def test_validate_rejects_unused_ray():
    with pytest.raises(FanError):
        validate(parse_fan({"dim": 1, "rays": [[1], [-1]],
                            "max_cones": [[0]]}))


def test_validate_rejects_non_unimodular_cone():
    doc = {"dim": 2, "rays": [[1, 0], [1, 2], [-1, 0], [0, -1]],
           "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    with pytest.raises(FanError):
        validate(parse_fan(doc))


def test_validate_rejects_overlapping_cones():
    # (1,0) and (-1,1) span a cone containing (0,1): walls cannot close up
    doc = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
           "max_cones": [[0, 2], [0, 1], [1, 2], [2, 3], [3, 0]]}
    with pytest.raises(FanError):
        validate(parse_fan(doc))


@pytest.mark.parametrize("rays, cones, message", [
    # a P2 and its negative: every wall in two cones, two components
    ([[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1], [1, 1]],
     [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]], "fan support is disconnected"),
    # (1, 1) lies inside the cone of (1, 0) and (0, 1), so cones 0 and 2
    # meet along the wall through (1, 0) on the same side of it
    ([[1, 0], [0, 1], [1, 1]], [[0, 1], [1, 2], [2, 0]],
     r"cones 0 and 2 overlap: rays 1 and 2 lie on the same side of wall \[0\]"),
], ids=["disconnected", "overlap"])
def test_validate_names_a_complex_that_is_not_a_fan(rays, cones, message):
    with pytest.raises(FanError, match=f"^{message}$"):
        validate({"dim": 2, "rays": rays, "max_cones": cones})


_P2_RAYS, _P2_CONES = ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0))


@pytest.mark.parametrize("fan, message", [
    (Fan(2, ((1.0, 0),) + _P2_RAYS[1:], _P2_CONES), "ray 0 entry must be an integer, got 1.0"),
    (Fan(2, ((True, 0),) + _P2_RAYS[1:], _P2_CONES), "ray 0 entry must be an integer, got True"),
    (Fan(2, _P2_RAYS, ((0, 1.0),) + _P2_CONES[1:]), "cone 0 entry must be an integer, got 1.0"),
    (Fan(2, ((2, 0),) + _P2_RAYS[1:], _P2_CONES), r"ray 0 is not primitive \(gcd 2\)"),
    (Fan(2, _P2_RAYS, _P2_CONES + ((1, 0),)), "cone 3 duplicates an earlier cone"),
    (Fan(2, _P2_RAYS, _P2_CONES[:2] + ((2, 5),)), "cone 2 references ray 5, out of range"),
    (Fan(2, _P2_RAYS, _P2_CONES[:2] + ((2, 3),)), "cone 2 references ray 3, out of range"),
    (Fan(2, _P2_RAYS + ((1, 0),), _P2_CONES + ((3, 1),)), "duplicate rays are not allowed"),
    (Fan(2, _P2_RAYS, _P2_CONES, (1, 2, 3)), "labels must be a list of strings, one per ray"),
    (Fan(2, _P2_RAYS, _P2_CONES, ("a",)), "labels must be a list of strings, one per ray"),
    (Fan(2, (1, 2, 3), _P2_CONES), "ray 0 must be a list of 2 integers"),
], ids=["float-ray", "bool-ray", "float-cone", "imprimitive-ray", "duplicate-cone",
        "ray-out-of-range", "ray-one-past-the-last", "duplicate-ray", "int-labels",
        "short-labels", "int-rays"])
def test_validate_parses_a_hand_built_fan(fan, message):
    # a Fan is a public named tuple: validate runs it through parse_fan's
    # checks, as it does a document, before any geometry
    with pytest.raises(FanError, match=f"^{message}$"):
        validate(fan)
    with pytest.raises(FanError, match=f"^{message}$"):
        parse_fan(fan._asdict())


# ------------------------------------------------------------- derived data

def test_p2_context(p2):
    assert (p2.n, p2.m, p2.rank) == (2, 3, 1)
    assert p2.P == ((1,), (1,), (1,))
    assert p2.c1 == (3,)
    assert p2.ample_weight == (1,)
    assert [w.curve for w in p2.walls] == [(1,), (1,), (1,)]
    assert semi_fano_check(p2) == (True, None)


def test_p1xp1_context(p1xp1):
    assert p1xp1.P == ((1, 0), (0, 1), (1, 0), (0, 1))
    assert p1xp1.c1 == (2, 2)
    assert sorted(w.curve for w in p1xp1.walls) == [(0, 1), (0, 1), (1, 0), (1, 0)]


def test_f2_context(f2):
    assert f2.P == ((1, 0), (-2, 1), (1, 0), (0, 1))
    assert f2.c1 == (0, 2)
    assert f2.ample_weight == (1, 1)
    got = [(w.rays, w.cones, w.curve, f2.degree(w.curve)) for w in f2.walls]
    assert got == [
        ((0,), (0, 3), (0, 1), 2),
        ((1,), (0, 1), (1, 0), 0),
        ((2,), (1, 2), (0, 1), 2),
        ((3,), (2, 3), (1, 2), 4),
    ]


def test_chain3_context(chain3):
    assert chain3.rank == 6
    assert chain3.c1 == (0, 0, 0, 1, 2, 1)
    assert chain3.ample_weight == (1, 3, 6, 4, 3, 1)
    assert chain3.fan.labels[1] == "D1" and chain3.fan.labels[7] == "r7"
    # the three -2-curves sit across the facets at rays 1, 2, 3
    by_facet = {w.rays: w.curve for w in chain3.walls}
    assert by_facet[(1,)] == (1, 0, 0, 0, 0, 0)
    assert by_facet[(2,)] == (-2, 1, 0, 0, 0, 0)
    assert by_facet[(3,)] == (1, -2, 1, 0, 0, 0)
    assert sorted(chain3.degree(w.curve) for w in chain3.walls) == \
        [0, 0, 0, 0, 0, 1, 1, 2]
    assert semi_fano_check(chain3)[0]


def assert_wall_relation(ctx, wall):
    """The wall curve's pairings are the coefficients of the wall relation
    ``v_u + v_u' + sum_(w on the wall) b_w v_w = 0``: 1 on the two rays
    ``u``, ``u'`` opposite the wall, 0 off the wall and off them."""
    pairs = [ctx.pairing(ray, wall.curve) for ray in range(ctx.m)]
    cones = [ctx.fan.max_cones[c] for c in wall.cones]
    opposite = {ray for cone in cones for ray in cone} - set(wall.rays)
    assert len(opposite) == 2
    for ray, pair in enumerate(pairs):
        if ray in opposite:
            assert pair == 1
        elif ray not in wall.rays:
            assert pair == 0
    for j in range(ctx.n):
        assert sum(pair * v[j] for pair, v in zip(pairs, ctx.fan.rays)) == 0


def test_pairing_row_consistency(chain3):
    # D_l . d recomputed from the ray/dual-basis data must be the relation
    # among the rays that the wall curve stands for
    for wall in chain3.walls:
        assert_wall_relation(chain3, wall)


def test_not_semi_fano_witness():
    ctx = validate(parse_fan(F3))
    ok, wall = semi_fano_check(ctx)
    assert not ok
    assert ctx.degree(wall.curve) == -1
    assert wall.rays == (1,)


def test_alternate_basis_cone(load):
    default = load("chain3")
    moved = load("chain3", basis_cone=[4, 5])
    assert moved.basis_perm == (4, 5, 0, 1, 2, 3, 6, 7)
    assert moved.fan.labels[1] == "D1"
    # intersection numbers are basis independent
    assert sorted(moved.degree(w.curve) for w in moved.walls) == \
        sorted(default.degree(w.curve) for w in default.walls)


def test_basis_cone_must_be_maximal(load):
    # entries are ray indices, checked as a document's are
    for fan, basis_cone in (("chain3", [0, 2]), ("f2", [False, True]), ("f2", [0.0, 1])):
        with pytest.raises(FanError):
            load(fan, basis_cone=basis_cone)
    # a basis cone that is not a list of indices, as parse_fan reports it
    for basis_cone in (3, "0,1"):
        with pytest.raises(FanError, match="basis_cone must be a list of ray indices"):
            load("f2", basis_cone=basis_cone)


def test_records_are_immutable_values():
    a = Wall((1,), (0, 1), (1, -2))
    b = Wall(rays=(1,), cones=(0, 1), curve=(1, -2))
    assert a == b and hash(a) == hash(b) and {a, b} == {a}
    assert repr(a) == "Wall(rays=(1,), cones=(0, 1), curve=(1, -2))"
    assert pickle.loads(pickle.dumps(a)) == b
    for field in ("rays", "curve"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    fan = Fan(1, ((1,), (-1,)), ((0,), (1,)))
    assert fan.labels is None and fan.basis_cone is None
    assert pickle.loads(pickle.dumps(fan)) == fan
    labelled = Fan(dim=1, rays=fan.rays, max_cones=fan.max_cones, labels=("a", "b"))
    assert labelled.labels == ("a", "b") and labelled.basis_cone is None
    assert labelled != fan and labelled == Fan(1, fan.rays, fan.max_cones, ("a", "b"))
    for args, kwargs in (((1, ()), {}), ((1, (), (), None, None, None), {}),
                         ((1, (), ()), {"dim": 1}), ((1, (), ()), {"colour": 1})):
        with pytest.raises(TypeError):
            Fan(*args, **kwargs)


# ---------------------------------------------------- polytope faces

def test_is_vertex(f2, chain3):
    assert [is_vertex(f2, r) for r in range(4)] == [True, False, True, True]
    assert [r for r in range(8) if is_vertex(chain3, r)] == [0, 4, 6]


def test_minimal_face(f2, chain3):
    assert minimal_face(f2, 1) == (0, 1, 2)
    assert minimal_face(f2, 3) == (3,)
    faces = {r: minimal_face(chain3, r) for r in range(8)}
    assert faces == {
        0: (0,), 1: (0, 1, 2, 3, 4), 2: (0, 1, 2, 3, 4), 3: (0, 1, 2, 3, 4),
        4: (4,), 5: (4, 5, 6), 6: (6,), 7: (0, 6, 7),
    }


def test_polytope_facets_in_dimension_four():
    # the fan polytope of P^4 is a 4-simplex with 5 facets; that of (P^1)^4
    # is the 4-dimensional cross-polytope with 16
    simplex = {"dim": 4, "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                  [0, 0, 0, 1], [-1, -1, -1, -1]],
               "max_cones": [[i for i in range(5) if i != drop] for drop in range(5)]}
    cube = {"dim": 4,
            "rays": [[s if k == i else 0 for k in range(4)]
                     for i in range(4) for s in (1, -1)],
            "max_cones": [[2 * i + (mask >> i & 1) for i in range(4)]
                          for mask in range(16)]}
    p4, p1_4 = validate(simplex), validate(cube)
    assert len(_polytope_facets(p4)) == 5
    assert all(len(f) == 4 for f in _polytope_facets(p4))
    assert len(_polytope_facets(p1_4)) == 16
    assert {frozenset(c) for c in p1_4.fan.max_cones} == set(_polytope_facets(p1_4))
    assert minimal_face(p4, 2) == (2,) and minimal_face(p1_4, 5) == (5,)


def lp_is_vertex(ctx, ray):
    """Some functional separates the generator strictly from every other one."""
    v = ctx.fan.rays[ray]
    return lp.feasible([(tuple(a - b for a, b in zip(v, w)), 1)
                        for p, w in enumerate(ctx.fan.rays) if p != ray], ctx.n)


def fraction_solve(matrix, rhs):
    """``x`` with ``matrix . x == rhs`` by Gauss-Jordan over Fraction, or None."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col:
                aug[r] = [v - aug[r][col] * w for v, w in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


def fraction_minimal_face(ctx, ray):
    """The generators on every supporting hyperplane ``a . x == 1`` through
    the ray's generator and ``dim - 1`` others, with ``a`` in Fraction."""
    pts = ctx.fan.rays
    face = set(range(ctx.m))
    for subset in combinations(range(ctx.m), ctx.n):
        a = fraction_solve([pts[i] for i in subset], [1] * ctx.n)
        if a is None:
            continue
        values = [sum(x * y for x, y in zip(a, p)) for p in pts]
        if max(values) <= 1 and values[ray] == 1:
            face &= {p for p, val in enumerate(values) if val == 1}
    return tuple(sorted(face))


@pytest.fixture(scope="module")
def face_fans(p2, p1xp1, f2, chain3):
    """The four fixtures, the 24 Seidel fans of chain3 and f2, and one
    double-Seidel f2 4-fold."""
    ctxs = [p2, p1xp1, f2, chain3]
    ctxs += [validate(seidel_fan(base, ray, sign)) for base in (chain3, f2)
             for ray in range(base.m) for sign in ("plus", "minus")]
    ctxs.append(validate(seidel_fan(validate(seidel_fan(f2, 1, "plus")), 0, "plus")))
    return ctxs


def test_is_vertex_matches_an_lp_separation(face_fans):
    for ctx in face_fans:
        assert ([is_vertex(ctx, r) for r in range(ctx.m)]
                == [lp_is_vertex(ctx, r) for r in range(ctx.m)])
    # the fans hold vertices and non-vertices in every dimension 2, 3 and 4
    for n in (2, 3, 4):
        found = {is_vertex(ctx, r) for ctx in face_fans if ctx.n == n
                 for r in range(ctx.m)}
        assert found == {True, False}, n


def test_minimal_face_matches_fraction_hyperplanes(face_fans):
    for ctx in face_fans:
        assert ([minimal_face(ctx, r) for r in range(ctx.m)]
                == [fraction_minimal_face(ctx, r) for r in range(ctx.m)])


def leibniz_det(columns):
    n, total = len(columns), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = -1 if inversions % 2 else 1
        for j, i in enumerate(perm):
            term *= columns[j][i]
        total += term
    return total


def test_cramer_gives_int_numerators_and_the_determinant():
    # (2, 1) x + (1, 3) y == (2, 3) at (3/5, 4/5)
    assert _bareiss([(2, 1), (1, 3)], [(2, 3)]) == (5, ((3, 4),))
    assert _bareiss([(1, 2), (2, 4)], [(1, 1)])[0] == 0
    assert _bareiss([(1, 0, 1), (0, 1, 1), (1, 1, 2)], [(1, 2, 3)])[0] == 0
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 5)
        columns = [tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(n)]
        target = tuple(rng.randrange(-5, 6) for _ in range(n))
        det, (nums,) = _bareiss(columns, [target])
        assert all(type(x) is int for x in (*nums, det))
        assert det == leibniz_det(columns)
        assert ([sum(x * col[i] for x, col in zip(nums, columns)) for i in range(n)]
                == [det * t for t in target])


def lp_entry_points():
    return [name for name, fn in vars(lp).items()
            if inspect.isfunction(fn) and fn.__module__ == lp.__name__
            and not name.startswith("_")]


@pytest.mark.parametrize("make", [
    lambda f2: f2.fan,
    lambda f2: seidel_fan(f2, 1, "plus"),
    lambda f2: seidel_fan(validate(seidel_fan(f2, 1, "plus")), 0, "plus"),
], ids=["f2", "seidel-3fold", "double-seidel-4fold"])
def test_fan_geometry_solves_no_lp_but_the_grading(monkeypatch, f2, make):
    # record each call into lp from outside it: validating a fan solves the
    # grading LP, and the face table of support-vanishing solves none
    fan, order = make(f2), 4
    called, depth = [], [0]

    def spy(name, real):
        def wrapper(*args):
            if not depth[0]:
                called.append(name)
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        return wrapper

    for name in lp_entry_points():
        monkeypatch.setattr(lp, name, spy(name, getattr(lp, name)))
    ctx = validate(fan)
    assert set(called) == {"minimize"}
    for ray in range(ctx.m):        # the classes are integer_points' work
        mirror.g_function(ctx, ray, order)
        mirror.delta(ctx, ray, order)
    called.clear()
    assert dict(checks.suite(ctx, order))["support-vanishing"]() is None
    assert called == []


# ---------------------------------------------------------- Seidel fans

def test_seidel_fan_p1():
    ctx = validate(parse_fan(P1))
    plus = seidel_fan(ctx, 0, "plus")
    minus = seidel_fan(ctx, 0, "minus")
    assert plus.rays == ((1, 0), (-1, 1), (0, 1), (0, -1))
    assert minus.rays == ((1, 0), (-1, -1), (0, 1), (0, -1))
    assert plus.max_cones == ((2, 0), (2, 1), (3, 0), (3, 1))
    for fan in (plus, minus):
        total = validate(fan)
        assert total.rank == 2
        assert semi_fano_check(total)[0]


def test_seidel_fan_p2(p2):
    fan = seidel_fan(p2, 0, "plus")
    assert fan.dim == 3
    assert fan.rays == ((1, 0, 0), (-1, 1, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1))
    assert len(fan.max_cones) == 6
    assert semi_fano_check(validate(fan))[0]


def test_seidel_fan_f2(f2):
    fan = seidel_fan(f2, 2, "minus")
    assert fan.rays == ((1, 0, 0), (-1, 1, -2), (0, 1, 0), (0, 0, 1),
                        (0, -1, 2), (0, 0, -1))
    assert len(fan.max_cones) == 8
    ctx = validate(fan)
    assert minimal_face(ctx, 0) == (0,)


@pytest.mark.parametrize("ray", [3, 4])
def test_chain3_minus_seidel_fans_validate(chain3, ray):
    # unpruned, the last Fourier-Motzkin stage of their grading LP paired over
    # a million rows; validation must finish, with a grading >= 1 on every wall
    ctx = validate(seidel_fan(chain3, ray, "minus"))
    assert ctx.rank == 7
    assert all(ctx.weight(w.curve) >= 1 for w in ctx.walls)


def _weights(tail, plus, minus):
    return {"plus": [(w,) + tail for w in plus], "minus": [(w,) + tail for w in minus]}


# The ample weight that validate picks for seidel_fan(ctx, ray, sign), by
# ray, as computed by unpruned Fourier-Motzkin.  It is the lexicographically
# smallest optimum of the grading LP, and all printed output depends on it.
SEIDEL_WEIGHTS = {
    "p2": _weights((1,), [1, 1, 2], [2, 2, 1]),
    "p1xp1": _weights((1, 1), [1, 1, 2, 2], [2, 2, 1, 1]),
    "f2": _weights((1, 1), [1, 1, 2, 2], [4, 2, 3, 1]),
    "chain3": _weights((1, 3, 6, 4, 3, 1), [1, 1, 2, 4, 7, 5, 4, 2],
                       [12, 8, 4, 5, 6, 2, 2, 5]),
}


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("name", sorted(SEIDEL_WEIGHTS))
def test_every_seidel_fan_validates_quickly(request, name, sign):
    ctx = request.getfixturevalue(name)
    weights = []
    for ray in range(ctx.m):
        fan = seidel_fan(ctx, ray, sign)
        start = time.perf_counter()
        total = validate(fan)
        assert time.perf_counter() - start < 2, f"ray {ray}"
        weights.append(total.ample_weight)
    assert weights == SEIDEL_WEIGHTS[name][sign]


@pytest.fixture(scope="module")
def seidel_catalogue(p2, p1xp1, f2, chain3):
    """294 fans: the four fixtures, their 38 Seidel fans, and the 252 Seidel
    fans of the Seidel fans of p2, p1xp1 and f2."""
    ctxs = []
    for base in (p2, p1xp1, f2, chain3):
        ctxs.append(base)
        for ray in range(base.m):
            for sign in ("plus", "minus"):
                ctx = validate(seidel_fan(base, ray, sign))
                ctxs.append(ctx)
                if base is not chain3:
                    ctxs += [validate(seidel_fan(ctx, r, s))
                             for r in range(ctx.m) for s in ("plus", "minus")]
    assert len(ctxs) == 294
    return ctxs


def test_validate_solves_one_grading_lp_with_a_positive_optimum(monkeypatch,
                                                                 seidel_catalogue):
    # the LP's optimum is an ample class that vanishes on the basis cone, so
    # each of its components is positive and no second LP is needed
    calls = []
    real = lp.minimize

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lp, "minimize", spy)
    for ctx in seidel_catalogue:
        calls.clear()
        again = validate(ctx.fan)
        assert len(calls) == 1
        assert again.ample_weight == ctx.ample_weight
        assert all(w > 0 for w in ctx.ample_weight)


def test_wall_pairings_follow_from_the_class_components(seidel_catalogue):
    # a relation among the rays is fixed by its coefficients on the rays
    # outside the basis cone, which are the wall class's components
    for ctx in seidel_catalogue:
        for wall in ctx.walls:
            assert_wall_relation(ctx, wall)


def test_pairing_rows_are_the_divisor_relations(seidel_catalogue):
    # each class coordinate k gives the relation sum_ray (D_ray . Psi_k) v_ray
    # = 0, which a row of P read for the wrong ray breaks
    for ctx in seidel_catalogue:
        for k in range(ctx.rank):
            assert all(sum(ctx.P[ray][k] * v[j] for ray, v in enumerate(ctx.fan.rays)) == 0
                       for j in range(ctx.n))


def test_basis_rays_are_the_unit_z_exponents(seidel_catalogue):
    for ctx in seidel_catalogue:
        for p, ray in enumerate(ctx.basis_perm[:ctx.n]):
            assert ctx.z[ray] == tuple(int(q == p) for q in range(ctx.n))


def test_every_semi_fano_catalogue_fan_passes_the_invariant_suite(seidel_catalogue):
    # the suite that check-all and the benchmark run, on every catalogue fan
    # it applies to
    semi_fano = [ctx for ctx in seidel_catalogue if semi_fano_check(ctx)[0]]
    assert len(semi_fano) == 244
    for i, ctx in enumerate(semi_fano):
        for name, check in checks.suite(ctx, 2):
            assert check() is None, f"semi-Fano fan {i}: {name}"


def test_rank7_seidel_fan_classes(chain3):
    ctx = validate(seidel_fan(chain3, 2, "minus"))
    assert ctx.rank == 7
    classes = {ray: enumerate_classes(ctx, ray, 2)
               for ray in range(ctx.m)}
    assert classes == {
        0: [], 1: [], 2: [], 6: [], 8: [],
        3: [(0, 1, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0)],
        4: [(0, -2, 1, 0, 0, 0, 0), (0, -4, 2, 0, 0, 0, 0)],
        5: [(0, 1, -2, 1, 0, 0, 0), (0, 2, -4, 2, 0, 0, 0)],
        7: [(0, 0, 0, 1, -2, 1, 0), (0, 0, 0, 2, -4, 2, 0)],
        9: [(0, 0, 0, 0, 0, 1, -2), (0, 0, 0, 0, 0, 2, -4)],
    }


def test_seidel_fan_bad_arguments(p2):
    with pytest.raises(FanError):
        seidel_fan(p2, 0, "sideways")
    with pytest.raises(FanError):
        seidel_fan(p2, 17)
