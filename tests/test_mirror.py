import random
import re
from fractions import Fraction
from math import factorial

import pytest

from toricmirror import (
    batyrev_element,
    compose_with_inverse,
    delta,
    disc_potential,
    divisor_derivative,
    enumerate_classes,
    extended_mirror_factors,
    g_function,
    g_ij,
    g_psi,
    hori_vafa,
    inverse_mirror_map,
    mirror_map,
    open_gw,
    open_gw_divisor,
    seidel_element,
    seidel_fan,
    validate,
)
from toricmirror import checks, mirror, series
from toricmirror.fans import FanError, minimal_face
from toricmirror.oracle import i_one_over_z
from toricmirror.series import QSeries


def mono(ctx, exponent, coeff=1, order=8):
    return QSeries(ctx.ring, order, {exponent: coeff})


def one(ctx, order=8):
    return QSeries.one(ctx.ring, order)


# ------------------------------------------------------------------ g series

def test_derived_series_are_built_once_per_context(load):
    # the memo keys on the order's level, so an int order and its Fraction
    # share one entry
    ctx = load("f2")
    assert inverse_mirror_map(ctx, 8) is inverse_mirror_map(ctx, Fraction(8))
    assert mirror_map(ctx, 8) is mirror_map(ctx, Fraction(8))
    assert g_function(ctx, 1, 6) is g_function(ctx, 1, Fraction(12, 2))
    assert enumerate_classes(ctx, 1, 6) is enumerate_classes(ctx, 1, Fraction(6))
    assert mirror._solve(ctx, 8) is mirror._solve(ctx, Fraction(8))
    assert inverse_mirror_map(load("f2"), 8) is not inverse_mirror_map(ctx, 8)


def test_orders_of_one_level_share_one_entry_keyed_by_ints(load):
    # f2's weights are integers, so 17/2 lies on level 8: one solve serves
    # both, and a memo-built series declares its level's order
    f2 = load("f2")
    assert mirror._solve(f2, 8) is mirror._solve(f2, Fraction(17, 2))
    assert g_function(f2, 1, 8) is g_function(f2, 1, Fraction(17, 2))
    assert g_function(f2, 1, Fraction(17, 2)).order == 8
    # every key of the memo is its builder followed by exact ints: the rays
    # and the level, never an order as given
    chain3 = load("chain3")
    assert all(check() is None for _, check in checks.suite(chain3, Fraction(9, 2)))
    keys = list(chain3._cache)
    assert keys and all(type(x) is int for key in keys for x in key[1:])


def test_g_ij_and_the_oracle_declare_their_levels_order(load):
    # g_ij is read off the memoised g_i, and the oracle's series are memoised
    # themselves, so like g_function they declare level 8 at order 17/2
    f2 = load("f2")
    assert g_ij(f2, 1, 0, Fraction(17, 2)).order == 8
    assert i_one_over_z(f2, 8) is i_one_over_z(f2, Fraction(17, 2))
    assert i_one_over_z(f2, Fraction(17, 2))[1].order == 8


def test_g_vanishes_on_fano(p2, p1xp1):
    for ctx in (p2, p1xp1):
        for ray in range(ctx.m):
            assert g_function(ctx, ray, 8).is_zero()


def test_g_f2_closed_form(f2):
    # only the -2 section ray supports c1 = 0 classes
    g1 = g_function(f2, 1, 8)
    for k in range(1, 9):
        assert g1.coefficient((k, 0)) == Fraction(factorial(2 * k - 1),
                                                  factorial(k) ** 2)
    for ray in (0, 2, 3):
        assert g_function(f2, ray, 8).is_zero()


def test_g_chain3_low_order(chain3):
    # coefficients are (-1)^a (a-1)! / prod_{p != l} (D_p.d)! with a = -D_1.d
    ray1 = g_function(chain3, 1, 4)
    assert ray1.coefficient((1, 0, 0, 0, 0, 0)) == 1            # a=2, 1!/1!1!
    assert ray1.coefficient((2, 0, 0, 0, 0, 0)) == Fraction(3, 2)   # a=4, 3!/2!2!
    assert ray1.coefficient((0, 1, 0, 0, 0, 0)) == -1           # a=3, -2!/2!1!
    assert ray1.coefficient((1, 1, 0, 0, 0, 0)) == -4           # a=5, -4!/3!1!
    assert len(ray1.terms) == 6
    assert g_function(chain3, 0, 6).is_zero()


def test_g_psi_is_the_pairing_combination(chain3):
    for k in range(chain3.rank):
        expected = QSeries(chain3.ring, 6)
        for l in range(chain3.m):
            p = chain3.P[l][k]
            if p:
                expected = expected.add(QSeries.linear_sum(
                    [(g_function(chain3, l, 6), p)], chain3.ring, 6))
        assert g_psi(chain3, k, 6) == expected
    with pytest.raises(ValueError):
        g_psi(chain3, chain3.rank, 6)
    # an index equal to 1 is not the index 1
    for k in (True, 1.0):
        with pytest.raises(FanError, match=re.escape(
                f"curve-basis index must be an integer, got {k!r}")):
            g_psi(chain3, k, 6)


@pytest.mark.parametrize("ray", [99, -1, 1.0, True, Fraction(1)],
                         ids=["99", "-1", "1.0", "True", "Fraction(1)"])
def test_out_of_range_ray_indices_raise(load, ray):
    # a ray index is an int, as in the fan document, not one of the values
    # equal to 1, on a fresh context and on one whose memo holds ray 1
    warm = load("f2")
    g_function(warm, 1, 8)
    enumerate_classes(warm, 1, 8)
    if type(ray) is int:
        message = rf"ray index {ray} out of range 0\.\.3"
    else:
        message = re.escape(f"ray index must be an integer, got {ray!r}")
    for f2 in (load("f2"), warm):
        calls = [
            lambda: enumerate_classes(f2, ray, 8),
            lambda: g_function(f2, ray, 8),
            lambda: g_ij(f2, 1, ray, 8),
            lambda: g_ij(f2, ray, 1, 8),
            lambda: delta(f2, ray, 8),
            lambda: open_gw(f2, ray, (1, 0), 8),
            lambda: open_gw(f2, ray, (0, 0), 8),
            lambda: open_gw_divisor(f2, 1, (1, 0), ray, 8),
            lambda: batyrev_element(f2, ray, 4),
            lambda: seidel_element(f2, ray, 4),
            lambda: divisor_derivative(f2, ray, g_function(f2, 1, 4)),
            lambda: minimal_face(f2, ray),
            lambda: seidel_fan(f2, ray),
        ]
        for call in calls:
            with pytest.raises(FanError, match=message):
                call()


def test_g_ij_f2(f2):
    g10 = g_ij(f2, 1, 0, 8)
    g11 = g_ij(f2, 1, 1, 8)
    for k in range(1, 9):
        base = Fraction(factorial(2 * k - 1), factorial(k) ** 2)
        assert g10.coefficient((k, 0)) == k * base          # D_0 . kF = k
        assert g11.coefficient((k, 0)) == -2 * k * base     # D_1 . kF = -2k
    assert g_ij(f2, 0, 1, 8).is_zero()


def test_enumerate_classes(chain3, f2):
    assert len(enumerate_classes(chain3, 1, 10)) == 32
    assert enumerate_classes(f2, 1, 5) == \
        [(k, 0) for k in range(1, 6)]
    assert enumerate_classes(f2, 0, 8) == []


# ------------------------------------------------------------ the mirror map

def test_mirror_map_f2(f2):
    mm = mirror_map(f2, 8)
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    for k in range(1, 9):
        assert mm.units[0].coefficient((k, 0)) == catalan[k + 1]
    assert mm.units[0].constant_term() == 1
    # and the second unit is exp(-g_1)
    assert mm.units[1] == g_function(f2, 1, 8).neg().exp()
    assert mm.units[0].coefficient((0, 1)) == 0


def test_mirror_map_trivial_on_fano(p2, p1xp1):
    assert mirror_map(p2, 8).is_identity()
    assert mirror_map(p1xp1, 8).is_identity()
    assert inverse_mirror_map(p2, 8).is_identity()


def test_inverse_f2_closed_form(f2):
    inv = inverse_mirror_map(f2, 8)
    # qc1 = q1/(1+q1)^2 and qc2 = q2 (1+q1)
    u = one(f2).add(mono(f2, (1, 0)))
    assert inv.units[0] == u.npow(-2)
    assert inv.units[1] == u


def test_roundtrip_all_fixtures(p2, p1xp1, f2, chain3):
    for ctx in (p2, p1xp1, f2):
        assert mirror_map(ctx, 8).compose(inverse_mirror_map(ctx, 8)).is_identity()
        assert inverse_mirror_map(ctx, 8).compose(mirror_map(ctx, 8)).is_identity()
    small = mirror_map(chain3, 4)
    assert small.compose(inverse_mirror_map(chain3, 4)).is_identity()
    assert inverse_mirror_map(chain3, 4).compose(small).is_identity()


def test_compose_shares_the_inner_units_powers_across_components(monkeypatch, load):
    # with one power cache per substitute call, the six components of chain3
    # rebuilt the powers of the same inner units 547 products in all
    ctx = load("chain3")
    outer, inner = mirror_map(ctx, 6), inverse_mirror_map(ctx, 6)
    real = QSeries.mul
    calls = []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(QSeries, "mul", counting)
    assert outer.compose(inner).is_identity()
    assert 0 < len(calls) < 547


@pytest.mark.parametrize("name, order", [("f2", 16), ("chain3", 10)])
def test_delta_through_the_forward_map_is_exp_of_g(request, name, order):
    # (1 + delta_l)(q(qc)) = exp(g_l(qc)), with q(qc) the forward mirror map
    ctx = request.getfixturevalue(name)
    forward = mirror_map(ctx, order)
    one = QSeries.one(ctx.ring, order)
    for ray in range(ctx.m):
        lhs = one.add(delta(ctx, ray, order)).substitute(forward)
        assert lhs == g_function(ctx, ray, order).exp()


def test_compose_with_inverse_matches_substitute(monkeypatch, f2, chain3):
    rng = random.Random(17)
    for ctx in (f2, chain3):
        inv = inverse_mirror_map(ctx, 6)
        rows = {d for l in range(ctx.m) for d in enumerate_classes(ctx, l, 6)}
        for _ in range(5):
            terms = {}
            for _ in range(8):
                e = tuple(rng.randrange(-1, 3) for _ in range(ctx.rank))
                if ctx.weight(e) < 0:
                    continue
                terms[e] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            f = QSeries(ctx.ring, 6, terms)
            # terms are in term order, so the first non-row is the lowest
            off = [e for e in f.terms if e not in rows]
            if not off:
                assert compose_with_inverse(ctx, f) == f.substitute(inv)
                continue
            with pytest.raises(series.SeriesError,
                               match=re.escape(f"{off[0]} is not a class row")):
                compose_with_inverse(ctx, f)
    # W_l = g_l(qc(q)): the row sum of g_l is the solve's own W_l
    seidel = validate(seidel_fan(chain3, 2, "minus"))
    for ctx, order in ((f2, 16), (chain3, 10), (seidel, 3)):
        W = mirror._solve(ctx, order)[0]
        assert W
        for l in W:
            assert compose_with_inverse(ctx, g_function(ctx, l, order)) == W[l]
    # every series the engine composes lies on the class rows, and its
    # composition sums the solve's rows with no product
    calls = []
    for name in ("mul", "npow"):
        def counting(self, *args, real=getattr(QSeries, name), name=name):
            calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(QSeries, name, counting)
    for ctx, order in ((f2, 8), (chain3, 6), (seidel, 2)):
        m, rank = range(ctx.m), range(ctx.rank)
        composed = ([g_function(ctx, l, order) for l in m]
                    + [g_ij(ctx, i, j, order) for i in m for j in m]
                    + [g_psi(ctx, k, order) for k in rank]
                    + [u.log() for u in mirror_map(ctx, order).units])
        composed = [f for f in composed if not f.is_zero()]
        assert composed
        inv = inverse_mirror_map(ctx, order)
        for f in composed:
            calls.clear()
            fast = compose_with_inverse(ctx, f)
            assert calls == []
            assert fast == f.substitute(inv)


def test_negative_degree_substitutes_deeper_and_is_not_a_class_row(chain3):
    # weight of (1,-1,0,0,0,0) is -2; exactness to order 4 needs the
    # inverse map at relative order 6
    e = (1, -1, 0, 0, 0, 0)
    f = QSeries(chain3.ring, 4, {e: 1})
    deep = f.substitute(inverse_mirror_map(chain3, 6))
    assert deep.order == 4
    assert not deep.truncate(0) == deep  # the image really has positive-degree terms
    with pytest.raises(series.SeriesError, match=re.escape(f"{e} is not a class row")):
        compose_with_inverse(chain3, f)


def test_coefficient_and_degree_check_the_exponent(f2):
    # f2 has rank 2: an exponent of another length, or with an entry that
    # is not an integer, raises instead of reading 0 or a zipped degree
    d = delta(f2, 1, 8)
    assert d.coefficient((1, 0)) == 1 and d.degree((1, 0)) == 1
    for e in ((1, 0, 0), (1,)):
        for read in (d.coefficient, d.degree):
            with pytest.raises(series.SeriesError, match="exponent length"):
                read(e)
    for read in (d.coefficient, d.degree):
        with pytest.raises(series.SeriesError, match="must be integers"):
            read((Fraction(1, 2), 0))
    # the right length outside the packed field has no term
    assert d.coefficient((series.BIAS, 0)) == 0


@pytest.mark.parametrize("call, order", [
    (lambda ctx, order: delta(ctx, 1, order), 0.1),
    (lambda ctx, order: g_function(ctx, 1, order), 2.5),
    (lambda ctx, order: g_ij(ctx, 1, 0, order), 2.5),
    (lambda ctx, order: enumerate_classes(ctx, 1, order), 2.5),
    (lambda ctx, order: open_gw(ctx, 1, (1, 0), order), 2.5),
    (lambda ctx, order: batyrev_element(ctx, 1, order), 2.5),
    (disc_potential, float("inf")),
    (i_one_over_z, 2.5),
    (lambda ctx, order: delta(ctx, 1, order), True),
], ids=["delta", "g_function", "g_ij", "enumerate_classes", "open_gw", "batyrev",
        "disc_potential", "i_one_over_z", "delta-bool"])
def test_library_entry_points_reject_a_float_order(f2, call, order):
    # as QSeries does: a float order is not converted to the Fraction of
    # its binary value, an infinite one does not overflow, and True is not
    # the order 1, also where the memo holds order 1
    delta(f2, 1, 1)
    with pytest.raises(series.SeriesError,
                       match=f"must be int or Fraction, got {type(order).__name__}"):
        call(f2, order)


@pytest.mark.parametrize("nvars, weights", [(2, (1, 5)), (3, (1, 1, 1))])
def test_compose_with_inverse_rejects_another_grading(f2, nvars, weights):
    # f2 is graded by (1, 1); a substitution and the divisor derivative reject
    # the same series, which the derivative once zipped against f2's rows
    f = QSeries(series.GradedRing.of(weights), 4, {(1,) + (0,) * (nvars - 1): 1})
    with pytest.raises(series.SeriesError):
        f.substitute(inverse_mirror_map(f2, 4))
    with pytest.raises(series.SeriesError):
        compose_with_inverse(f2, f)
    with pytest.raises(series.SeriesError):
        divisor_derivative(f2, 1, f)


# ----------------------------------------------------------- open invariants

def test_delta_f2_is_one_monomial(f2):
    assert delta(f2, 1, 8) == mono(f2, (1, 0))
    for ray in (0, 2, 3):
        assert delta(f2, ray, 8).is_zero()


def test_delta_f2_runs_past_order_181(f2):
    # no exponent formed exceeds the order, far inside the field, so an
    # estimate such as top // least * entry (182 * 182 >= 2^15) must not
    # turn this order away
    assert delta(f2, 1, 182) == mono(f2, (1, 0))


def test_delta_chain3(chain3):
    d1 = delta(chain3, 1, 10)
    t1 = (1, 0, 0, 0, 0, 0)
    t2 = (-2, 1, 0, 0, 0, 0)
    t3 = (1, -2, 1, 0, 0, 0)

    def cls(*steps):
        total = (0,) * 6
        for s in steps:
            total = tuple(a + b for a, b in zip(total, s))
        return total

    assert d1.terms == {cls(t1): 1, cls(t1, t2): 1, cls(t1, t2, t3): 1}
    assert delta(chain3, 1, 10).to_text() == "q1 + q1^-1 q2 + q2^-1 q3"
    assert delta(chain3, 0, 10).is_zero()


def random_gl2z(rng):
    """A random element of GL(2, Z) other than 1: two nonzero shears, then
    one of 1, a swap of the coordinates, or a sign."""
    a, b = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2))
    g = ((1 + a * b, a), (b, 1))
    h = rng.choice([((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))])
    return tuple(tuple(sum(h[i][k] * g[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


@pytest.mark.parametrize("name", ["chain3", "f2"])
def test_gl2z_changes_of_coordinates_change_nothing(request, name):
    # the walls, their classes and so the grading and every delta depend on
    # the rays only up to a change of lattice coordinates
    ctx = request.getfixturevalue(name)
    rng = random.Random(5)
    for _ in range(5):
        g = random_gl2z(rng)
        assert abs(g[0][0] * g[1][1] - g[0][1] * g[1][0]) == 1
        rays = [[sum(g[i][k] * r[k] for k in range(2)) for i in range(2)]
                for r in ctx.fan.rays]
        moved = validate({**ctx.fan._asdict(), "rays": rays})
        assert moved.ample_weight == ctx.ample_weight
        for ray in range(ctx.m):
            assert delta(moved, ray, 10) == delta(ctx, ray, 10)


def test_open_gw_values(f2):
    assert open_gw(f2, 1, (0, 0)) == 1
    assert open_gw(f2, 1, (1, 0), 8) == 1
    assert open_gw(f2, 1, [1, 0], 8) == 1      # any sequence of ints
    for k in range(2, 9):
        assert open_gw(f2, 1, (k, 0), 8) == 0
    assert open_gw(f2, 0, (1, 0), 8) == 0


def test_open_gw_error_cases(f2):
    with pytest.raises(ValueError, match="Maslov index 6"):
        open_gw(f2, 1, (0, 1))
    with pytest.raises(ValueError, match="Maslov index -2"):
        open_gw(f2, 1, (1, -1))
    with pytest.raises(ValueError):
        open_gw(f2, 1, (9, 0), 8)    # beyond order
    # negative fiber multiples have Maslov 2 but cannot support discs
    assert open_gw(f2, 1, (-1, 0), 8) == 0
    # a class of another rank is an error, not a class with parts dropped,
    # and a component that is not an int is an error, never truncated; the
    # context's own pairing, degree and weight check the class the same way
    cases = [((1, 0, 0), "need the rank 2"), ((1,), "need the rank 2")]
    cases += [((c, 0), "not an integer")
              for c in (Fraction(3, 2), Fraction(2, 2), 2.7, -0.5, 2.0, "1", True)]
    for alpha, message in cases:
        calls = [
            lambda: open_gw(f2, 1, alpha, 8),
            lambda: open_gw_divisor(f2, 1, alpha, 0, 8),
            lambda: f2.pairing(0, alpha),
            lambda: f2.degree(alpha),
            lambda: f2.weight(alpha),
        ]
        for call in calls:
            with pytest.raises(FanError, match=message):
                call()


def test_open_gw_divisor(f2):
    # D_i . (beta_1 + fiber) = delta_{i,1} + D_i . fiber
    assert open_gw_divisor(f2, 1, (1, 0), 0, 8) == 1
    assert open_gw_divisor(f2, 1, (1, 0), 1, 8) == -1
    assert open_gw_divisor(f2, 1, (1, 0), 2, 8) == 1
    assert open_gw_divisor(f2, 1, (1, 0), 3, 8) == 0


# ------------------------------------------------------------ the potentials

def test_disc_potential_f2(f2):
    w = disc_potential(f2, 8)
    u = one(f2)
    assert w[1, 0] == u
    assert w[0, 1] == u.add(mono(f2, (1, 0)))
    assert w[0, -1] == mono(f2, (0, 1))
    assert w[-1, 2] == mono(f2, (1, 0))
    assert len(w.items()) == 4


def test_hori_vafa_forms(f2, chain3):
    assert disc_potential(f2, 8) == hori_vafa(f2, 8, "tilde")
    assert disc_potential(chain3, 6) == hori_vafa(chain3, 6, "tilde")
    plain = hori_vafa(f2, 8, "plain")
    # the plain form carries the inverse mirror map in its coefficients
    u = one(f2).add(mono(f2, (1, 0)))
    assert plain[-1, 2] == mono(f2, (1, 0)).mul(u.npow(-2))
    assert plain[0, -1] == mono(f2, (0, 1)).mul(u)
    assert plain[0, 1] == one(f2)
    with pytest.raises(ValueError):
        hori_vafa(f2, 8, "fancy")


def test_tilde_potential_reads_no_solve_e(load, monkeypatch):
    # the tilde Hori-Vafa potential exponentiates its own row sums, so a
    # fault in the solve's E_1 reaches the disc potential only
    ctx = load("f2")
    disc, tilde = disc_potential(ctx, 8), hori_vafa(ctx, 8, "tilde")
    W, E, X = mirror._solve(ctx, 8)
    poisoned = {**E, 1: E[1].add(mono(ctx, (0, 1)))}
    monkeypatch.setattr(mirror, "_solve", lambda ctx, order: (W, poisoned, X))
    assert disc_potential(ctx, 8) != disc
    assert hori_vafa(ctx, 8, "tilde") == tilde


def test_potentials_coincide_on_fano(p2, p1xp1):
    for ctx in (p2, p1xp1):
        disc = disc_potential(ctx, 8)
        assert disc == hori_vafa(ctx, 8, "plain")
        assert disc == hori_vafa(ctx, 8, "tilde")


def test_disc_potential_p2_shape(p2):
    w = disc_potential(p2, 8)
    assert sorted(e for e, _ in w.items()) == [(-1, -1), (0, 1), (1, 0)]
    assert all(series == one(p2) or series == mono(p2, (1,))
               for _, series in w.items())


# --------------------------------------------- Batyrev and Seidel elements

def test_batyrev_f2(f2):
    b1 = batyrev_element(f2, 1, 4)
    expect = one(f2, 4)
    for k in range(1, 5):
        expect = expect.add(mono(f2, (k, 0), 2, 4))
    assert b1[1] == expect
    for ray in (0, 2, 3):
        assert b1[ray].is_zero()
    # other rays pick up a correction along D_1 through g_{1,j}
    b0 = batyrev_element(f2, 0, 4)
    assert b0[0] == one(f2, 4)
    correction = QSeries(f2.ring, 4)
    for k in range(1, 5):
        correction = correction.add(mono(f2, (k, 0), -1, 4))
    assert b0[1] == correction


def test_seidel_f2(f2):
    s1 = seidel_element(f2, 1, 4)
    geometric = one(f2, 4)
    for k in range(1, 5):
        geometric = geometric.add(mono(f2, (k, 0), 1, 4))
    assert s1[1] == geometric
    # B_1 = exp(g_1(qc(q))) . S_1
    b1 = batyrev_element(f2, 1, 4)
    unit = one(f2, 4).add(mono(f2, (1, 0), 1, 4))   # exp(g_1 o qc(q)) = 1 + q1
    for ray in range(4):
        assert b1[ray] == unit.mul(s1[ray])


def test_batyrev_trivial_on_fano(p2):
    for ray in range(3):
        b = batyrev_element(p2, ray, 6)
        s = seidel_element(p2, ray, 6)
        for other in range(3):
            want = one(p2, 6) if other == ray else QSeries(p2.ring, 6)
            assert b[other] == want
            assert s[other] == want


def test_batyrev_element_is_the_per_class_sum(chain3):
    # component i of B_j is [i == j] - sum_d (D_j . d) gamma_d qc^d(q) over
    # the classes d of ray i, summed here one class at a time
    for j in range(chain3.m):
        b = batyrev_element(chain3, j, 6)
        for i in range(chain3.m):
            want = (one(chain3, 6) if i == j
                    else QSeries(chain3.ring, 6))
            for comps, _, gamma, pair in mirror._class_table(chain3, i, 6):
                dj = pair[j]
                image = QSeries(chain3.ring, 6,
                                {comps: 1}).substitute(inverse_mirror_map(chain3, 6))
                want = want.sub(QSeries.linear_sum([(image, dj * gamma)], chain3.ring, 6))
            assert b[i] == want


# ----------------------------------------------------- derivative and factors

def test_divisor_derivative_is_log_derivative(chain3):
    f = mono(chain3, (1, 0, 0, 0, 0, 0), 3, 6).add(
        mono(chain3, (-2, 1, 0, 0, 0, 0), Fraction(1, 2), 6))
    d = divisor_derivative(chain3, 4, f)
    r4 = lambda e: chain3.pairing(4, e)
    for e, c in f.terms.items():
        assert d.coefficient(e) == c * r4(e)
    # derivative of a constant vanishes
    assert divisor_derivative(chain3, 0, one(chain3, 6)).is_zero()


def test_extended_factors_project_to_mirror_map(f2):
    factors = extended_mirror_factors(f2, 8)
    mm = mirror_map(f2, 8)
    # v_2 = -v_0 + 2 v_1 and v_3 = -v_1 in the basis cone coordinates
    lhs1 = factors[2].mul(factors[0]).mul(factors[1].npow(-2))
    lhs2 = factors[3].mul(factors[1])
    assert lhs1 == mm.units[0]
    assert lhs2 == mm.units[1]


@pytest.mark.parametrize("name, order", [("f2", 8), ("chain3", 10)])
def test_each_slice_is_final_once_formed(request, name, order):
    # the solve never revises a slice, so the solve to any lower order is the
    # truncation of the deeper one
    ctx = request.getfixturevalue(name)
    deep_w, deep_e, _ = mirror._solve(ctx, order)
    for low in [Fraction(k, 2) for k in range(1, 2 * order)]:
        W, E, _ = mirror._solve(ctx, low)
        for l in deep_w:
            w, e = (W[l], E[l]) if l in W else (
                QSeries(ctx.ring, low), one(ctx, low))
            assert w == deep_w[l].truncate(low) and e == deep_e[l].truncate(low)


# ------------------------------------------------- the inverse fixed point

def class_tables(ctx, order):
    """Each ray's nonempty class table: the rows that ``mirror._solve`` reads."""
    return {ray: rows for ray in range(ctx.m)
            if (rows := mirror._class_table(ctx, ray, order))}


def least_level(ctx, order):
    return min(wt for rows in class_tables(ctx, order).values() for _, wt, _, _ in rows)


def plain_picard(ctx, order):
    """The reference solver: Picard passes that form every product to the
    full rung, then repeat full-order passes until one reproduces W."""
    sources = class_tables(ctx, order)
    if not sources:
        return {}, {}
    active = sorted(sources)
    W = {l: QSeries(ctx.ring, order) for l in active}
    E = {l: QSeries.one(ctx.ring, order) for l in active}
    step = least_level(ctx, order)
    rung = Fraction(0)
    for _ in range(int(order / step) + 4):
        rung = min(order, rung + step)
        powers = {}
        new = {}
        for l, rows in sources.items():
            total = QSeries(ctx.ring, rung)
            for comps, wt, gamma, pair in rows:
                term = QSeries(ctx.ring, rung, {comps: gamma})
                for j in active:
                    if pair[j]:
                        if (j, pair[j]) not in powers:
                            powers[j, pair[j]] = E[j].truncate(rung).npow(pair[j])
                        term = term.mul(powers[j, pair[j]])
                total = total.add(term)
            # exact to rung only; the levels above it start at zero, and
            # later passes fill them in
            new[l] = QSeries(ctx.ring, order, total.terms)
        if rung == order and new == W:
            return W, E
        for l in active:
            E[l] = E[l].mul(new[l].sub(W[l]).exp())
            W[l] = new[l]
    raise AssertionError("the reference fixed point did not stabilize")


PICARD_CASES = [(name, order) for name in ("p2", "f2", "chain3")
                for order in (4, Fraction(7, 2), 10)] + [("chain3", 12)]


@pytest.mark.parametrize("name, order", PICARD_CASES, ids=str)
def test_fixed_point_matches_plain_picard(request, name, order):
    ctx = request.getfixturevalue(name)
    assert plain_picard(ctx, order) == mirror._solve(ctx, order)[:2]


@pytest.fixture(scope="module")
def f2_seidel(f2):
    """The Seidel 3-fold of f2 at ray 1, plus; its own Seidel fans are 4-folds."""
    return validate(seidel_fan(f2, 1, "plus"))


# the semi-Fano Seidel 3-folds of f2, the rank-7 one of chain3, and the f2
# double-Seidel 4-fold that check-all runs on
SEIDEL_CASES = [("f2", ray, sign, 6) for ray, sign in
                [(0, "plus"), (1, "plus"), (2, "plus"), (3, "plus"),
                 (1, "minus"), (3, "minus")]] + [("chain3", 2, "minus", 2),
                                                 ("f2_seidel", 0, "plus", 4)]


@pytest.mark.parametrize("name, ray, sign, order", SEIDEL_CASES)
def test_seidel_fixed_point_matches_plain_picard(request, name, ray, sign, order):
    ctx = validate(seidel_fan(request.getfixturevalue(name), ray, sign))
    W, E, _ = mirror._solve(ctx, order)
    assert W
    assert plain_picard(ctx, order) == (W, E)


@pytest.mark.parametrize("name, order", [("f2", 8), ("chain3", Fraction(7, 2)),
                                         ("chain3", 10)], ids=str)
def test_w_reads_exponentials_only_below_level_n_minus_least(monkeypatch, request,
                                                             name, order):
    # W_l[n] reads E only through X_d[n - wt_d], so a change to E at level m
    # moves W first at level m + least, and the bound is tight
    ctx = request.getfixturevalue(name)
    base, _, _ = mirror._solve(ctx, order)
    ring = ctx.ring
    assert ring.scaled[0] == 1
    top = ring.level(Fraction(order))
    least = least_level(ctx, order)
    real_kernel = series._convolve
    for m in range(1, top + 1):
        bumped = []

        def kernel(a, b, n, *rest):
            out = real_kernel(a, b, n, *rest)
            # the E step is the one product that reads theta W, empty at level 0
            if n == m and 0 not in a and not bumped:
                key = ring.key((m,) + (0,) * (ring.nvars - 1))
                out[key] = out.get(key, 0) + n * 2 ** 10
                bumped.append(key)
            return out

        monkeypatch.setattr(series, "_convolve", kernel)
        moved, _, _ = mirror._solve.__wrapped__(ctx, Fraction(order))
        assert bumped
        lowest = min((moved[l].sub(base[l]).min_degree() for l in base
                      if moved[l] != base[l]), default=None)
        assert lowest == (m + least if m + least <= top else None)


def test_chain3_order_10_forms_each_slice_once(monkeypatch, load):
    # level by level: each E_l[n] is formed once, after W_l[n] and before
    # any slice of level n + 1; powers and products stop at top - least
    calls = []
    real_kernel = series._convolve

    def kernel(a, b, n, *rest):
        calls.append((id(a), id(b), n, frozenset(a), frozenset(b), 0 not in a))
        return real_kernel(a, b, n, *rest)

    monkeypatch.setattr(series, "_convolve", kernel)
    ctx = load("chain3")
    W, E, _ = mirror._solve.__wrapped__(ctx, Fraction(10))
    least = least_level(ctx, 10)
    assert len({c[:3] for c in calls}) == len(calls)
    assert [c[2] for c in calls] == sorted(c[2] for c in calls)
    steps = [c for c in calls if c[5]]
    assert len({c[:2] for c in steps}) == len(W)
    assert sorted(c[2] for c in steps) == [n for n in range(1, 11) for _ in W]
    # when E_l[n] is formed, theta W_l holds the nonempty levels <= n of
    # the final W_l and E_l those < n of the final E_l, and nothing else
    shift = ctx.ring.shift
    held = {l: ({k >> shift for k in W[l]._packed}, {k >> shift for k in E[l]._packed})
            for l in W}
    for n in range(1, 11):
        assert [c[3:5] for c in steps if c[2] == n] == [
            ({i for i in w if i <= n}, {i for i in e if i < n}) for w, e in held.values()]
    assert max(c[2] for c in calls if not c[5]) == 10 - least


@pytest.mark.parametrize("name, order", [("chain3", 10), ("f2", 181)])
def test_row_products_hold_only_nonempty_levels(load, name, order):
    # each X_d maps ascending levels to nonempty slices, none above the
    # deepest node level top - least (a product shared with a lighter row
    # runs past top - wt_d); on chain3 it is prod_j E_j^{D_j.d} to top - wt_d
    ctx = load(name)
    ring = ctx.ring
    top = ring.level(Fraction(order))
    least = least_level(ctx, order)
    _, E, X = mirror._solve(ctx, order)
    for rows in class_tables(ctx, order).values():
        for d, wt, _, pair in rows:
            x = X[ring.key(d)]
            assert list(x) == sorted(x) and all(x.values()) and max(x) <= top - least
            if name == "chain3":
                expected = one(ctx, order)
                for j, k in enumerate(pair):
                    if k and j in E:
                        expected = expected.mul(E[j].npow(k))
                assert expected.truncate(ring.degree(top - wt))._packed == {
                    key: c for n, s in x.items() if n <= top - wt for key, c in s.items()}
