import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from toricmirror import (
    CurveClass,
    DiscClass,
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
from toricmirror import mirror
from toricmirror.series import QSeries


def mono(ctx, exponent, coeff=1, order=8):
    return QSeries.monomial(exponent, coeff, ctx.rank, ctx.ample_weight, order)


def one(ctx, order=8):
    return QSeries.one(ctx.rank, ctx.ample_weight, order)


# ------------------------------------------------------------------ g series

def test_derived_series_are_built_once_per_context(load):
    # the memo keys on equal arguments, so an int order and its Fraction
    # share one entry
    ctx = load("f2")
    assert inverse_mirror_map(ctx, 8) is inverse_mirror_map(ctx, Fraction(8))
    assert mirror_map(ctx, 8) is mirror_map(ctx, Fraction(8))
    assert g_function(ctx, 1, 6) is g_function(ctx, 1, Fraction(12, 2))
    assert enumerate_classes(ctx, 1, 6) is enumerate_classes(ctx, 1, Fraction(6))
    assert mirror._inverse(ctx, 8) is mirror._inverse(ctx, Fraction(8))
    assert inverse_mirror_map(load("f2"), 8) is not inverse_mirror_map(ctx, 8)


def test_g_vanishes_on_fano(p2, p1xp1):
    for ctx in (p2, p1xp1):
        for ray in range(ctx.m):
            assert g_function(ctx, ray, 8).series.is_zero()


def test_g_f2_closed_form(f2):
    # only the -2 section ray supports c1 = 0 classes
    g1 = g_function(f2, 1, 8).series
    for k in range(1, 9):
        assert g1.coefficient((k, 0)) == Fraction(factorial(2 * k - 1),
                                                  factorial(k) ** 2)
    for ray in (0, 2, 3):
        assert g_function(f2, ray, 8).series.is_zero()


def test_g_chain3_low_order(chain3):
    # coefficients are (-1)^a (a-1)! / prod_{p != l} (D_p.d)! with a = -D_1.d
    ray1 = g_function(chain3, 1, 4).series
    assert ray1.coefficient((1, 0, 0, 0, 0, 0)) == 1            # a=2, 1!/1!1!
    assert ray1.coefficient((2, 0, 0, 0, 0, 0)) == Fraction(3, 2)   # a=4, 3!/2!2!
    assert ray1.coefficient((0, 1, 0, 0, 0, 0)) == -1           # a=3, -2!/2!1!
    assert ray1.coefficient((1, 1, 0, 0, 0, 0)) == -4           # a=5, -4!/3!1!
    assert len(ray1.terms) == 6
    assert g_function(chain3, 0, 6).series.is_zero()


def test_g_psi_is_the_pairing_combination(chain3):
    for k in range(chain3.rank):
        expected = QSeries.zero(chain3.rank, chain3.ample_weight, 6)
        for l in range(chain3.m):
            p = chain3.P[l][k]
            if p:
                expected = expected.add(
                    g_function(chain3, chain3.basis_perm[l], 6).series.scalar_mul(p))
        assert g_psi(chain3, k, 6) == expected
    with pytest.raises(ValueError):
        g_psi(chain3, chain3.rank, 6)


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
    assert [c.comps for c in enumerate_classes(f2, 1, 5)] == \
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
    assert mm.units[1] == g_function(f2, 1, 8).series.neg().exp()
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


def test_compose_with_inverse_matches_substitute(f2, chain3):
    rng = random.Random(17)
    for ctx in (f2, chain3):
        inv = inverse_mirror_map(ctx, 6)
        for _ in range(5):
            terms = {}
            for _ in range(8):
                e = tuple(rng.randrange(-1, 3) for _ in range(ctx.rank))
                if ctx.weight(e) < 0:
                    continue
                terms[e] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
            f = QSeries(ctx.rank, ctx.ample_weight, 6, terms)
            assert compose_with_inverse(ctx, f, 6) == f.substitute(inv)


def test_compose_with_inverse_boosts_negative_degrees(chain3):
    # weight of (1,-1,0,0,0,0) is -2; exactness to order 4 needs the
    # inverse map at relative order 6
    e = (1, -1, 0, 0, 0, 0)
    f = QSeries(chain3.rank, chain3.ample_weight, 4, {e: 1})
    fast = compose_with_inverse(chain3, f, 4)
    deep = f.substitute(inverse_mirror_map(chain3, 6))
    assert deep.order == 4
    assert fast == deep
    assert not fast.truncate(0) == fast  # the image really has positive-degree terms


# ----------------------------------------------------------- open invariants

def test_delta_f2_is_one_monomial(f2):
    assert delta(f2, 1, 8) == mono(f2, (1, 0))
    for ray in (0, 2, 3):
        assert delta(f2, ray, 8).is_zero()


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


def test_open_gw_values(f2):
    beta = DiscClass(1, CurveClass((0, 0)))
    assert open_gw(f2, beta) == 1
    assert open_gw(f2, DiscClass(1, CurveClass((1, 0))), 8) == 1
    for k in range(2, 9):
        assert open_gw(f2, DiscClass(1, CurveClass((k, 0))), 8) == 0
    assert open_gw(f2, DiscClass(0, CurveClass((1, 0))), 8) == 0


def test_open_gw_error_cases(f2):
    with pytest.raises(ValueError):
        open_gw(f2, DiscClass(1, CurveClass((0, 1))))       # Maslov 6
    with pytest.raises(ValueError):
        open_gw(f2, DiscClass(1, CurveClass((9, 0))), 8)    # beyond order
    # negative fiber multiples have Maslov 2 but cannot support discs
    assert open_gw(f2, DiscClass(1, CurveClass((-1, 0))), 8) == 0


def test_open_gw_divisor(f2):
    beta = DiscClass(1, CurveClass((1, 0)))
    # D_i . (beta_1 + fiber) = delta_{i,1} + D_i . fiber
    assert open_gw_divisor(f2, beta, 0, 8) == 1
    assert open_gw_divisor(f2, beta, 1, 8) == -1
    assert open_gw_divisor(f2, beta, 2, 8) == 1
    assert open_gw_divisor(f2, beta, 3, 8) == 0


# ------------------------------------------------------------ the potentials

def test_disc_potential_f2(f2):
    w = disc_potential(f2, 8)
    u = one(f2)
    assert w.coefficient((1, 0)) == u
    assert w.coefficient((0, 1)) == u.add(mono(f2, (1, 0)))
    assert w.coefficient((0, -1)) == mono(f2, (0, 1))
    assert w.coefficient((-1, 2)) == mono(f2, (1, 0))
    assert len(w.items()) == 4


def test_hori_vafa_forms(f2, chain3):
    assert disc_potential(f2, 8) == hori_vafa(f2, 8, "tilde")
    assert disc_potential(chain3, 6) == hori_vafa(chain3, 6, "tilde")
    plain = hori_vafa(f2, 8, "plain")
    # the plain form carries the inverse mirror map in its coefficients
    u = one(f2).add(mono(f2, (1, 0)))
    assert plain.coefficient((-1, 2)) == mono(f2, (1, 0)).mul(u.npow(-2))
    assert plain.coefficient((0, -1)) == mono(f2, (0, 1)).mul(u)
    assert plain.coefficient((0, 1)) == one(f2)
    with pytest.raises(ValueError):
        hori_vafa(f2, 8, "fancy")


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
    assert b1.component(1) == expect
    for ray in (0, 2, 3):
        assert b1.component(ray).is_zero()
    # other rays pick up a correction along D_1 through g_{1,j}
    b0 = batyrev_element(f2, 0, 4)
    assert b0.component(0) == one(f2, 4)
    correction = QSeries.zero(2, f2.ample_weight, 4)
    for k in range(1, 5):
        correction = correction.add(mono(f2, (k, 0), -1, 4))
    assert b0.component(1) == correction


def test_seidel_f2(f2):
    s1 = seidel_element(f2, 1, 4)
    geometric = one(f2, 4)
    for k in range(1, 5):
        geometric = geometric.add(mono(f2, (k, 0), 1, 4))
    assert s1.component(1) == geometric
    # B_1 = exp(g_1(qc(q))) . S_1
    b1 = batyrev_element(f2, 1, 4)
    unit = one(f2, 4).add(mono(f2, (1, 0), 1, 4))   # exp(g_1 o qc(q)) = 1 + q1
    for ray in range(4):
        assert b1.component(ray) == unit.mul(s1.component(ray))


def test_batyrev_trivial_on_fano(p2):
    for ray in range(3):
        b = batyrev_element(p2, ray, 6)
        s = seidel_element(p2, ray, 6)
        for other in range(3):
            want = one(p2, 6) if other == ray else QSeries.zero(1, p2.ample_weight, 6)
            assert b.component(other) == want
            assert s.component(other) == want


def test_divisor_series_arithmetic(f2):
    b = batyrev_element(f2, 1, 4)
    zero = b - b
    assert all(zero.component(r).is_zero() for r in range(4))
    double = b + b
    assert double.component(1) == b.component(1).scalar_mul(2)


# ----------------------------------------------------- derivative and factors

def test_divisor_derivative_is_log_derivative(chain3):
    f = mono(chain3, (1, 0, 0, 0, 0, 0), 3, 6).add(
        mono(chain3, (-2, 1, 0, 0, 0, 0), Fraction(1, 2), 6))
    d = divisor_derivative(chain3, 4, f)
    r4 = lambda e: chain3.pairing(4, CurveClass(e))
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


def test_inverse_nonconvergence_names_ray_and_degree(monkeypatch, load):
    # perturb one term of one W_l by a fresh amount on every Picard pass, so
    # the full-order passes never reproduce their input and never certify
    ctx = load("chain3")
    real_pass = mirror._Inverse._pass
    bumps = itertools.count(1)
    where = {}

    def drifting(self, E, order):
        out = real_pass(self, E, order)
        l = self.active[-1]
        comps, wt = self.sources[l][0][:2]
        where.update(ray=ctx.basis_perm[l], degree=wt)
        out[l] = out[l].add(mono(ctx, comps, next(bumps), order))
        return out

    monkeypatch.setattr(mirror._Inverse, "_pass", drifting)
    with pytest.raises(ArithmeticError) as info:
        delta(ctx, 2, 4)
    assert str(info.value).endswith(
        f"W for ray {where['ray']} still changes at degree {where['degree']}")


def test_certificate_sees_changes_at_order_minus_step(monkeypatch, load):
    # a full-order pass that moves W at degree order - step changes what the
    # next pass reads, so the solver must not stop after it
    ctx = load("chain3")
    real_pass = mirror._Inverse._pass
    bumps = itertools.count(1)
    where = {}

    def drifting(self, E, order):
        out = real_pass(self, E, order)
        if order == self.order:
            l = self.active[-1]
            e = (int(order - self.step),) + (0,) * (ctx.rank - 1)
            where.update(ray=ctx.basis_perm[l], degree=ctx.weight(e))
            out[l] = out[l].add(mono(ctx, e, next(bumps), order))
        return out

    monkeypatch.setattr(mirror._Inverse, "_pass", drifting)
    with pytest.raises(ArithmeticError) as info:
        delta(ctx, 2, 4)
    assert where["degree"] == 3
    assert str(info.value).endswith(
        f"W for ray {where['ray']} still changes at degree 3")


# ------------------------------------------------- the inverse fixed point

def plain_picard(inv):
    """The reference solver: Picard passes that form every product to the
    full rung, then repeat full-order passes until one reproduces W."""
    if not inv.sources:
        return {}, {}
    ctx, order = inv.ctx, inv.order
    shape = (ctx.rank, ctx.ample_weight)
    W = {l: QSeries.zero(*shape, order) for l in inv.active}
    E = {l: QSeries.one(*shape, order) for l in inv.active}
    step = min(wt for rows in inv.sources.values() for _, wt, _, _ in rows)
    rung = Fraction(0)
    for _ in range(int(order / step) + 4):
        rung = min(order, rung + step)
        powers = {}
        new = {}
        for l, rows in inv.sources.items():
            total = QSeries.zero(*shape, rung)
            for comps, wt, gamma, pair in rows:
                term = QSeries.monomial(comps, gamma, *shape, rung)
                for j in inv.active:
                    if pair[j]:
                        if (j, pair[j]) not in powers:
                            powers[j, pair[j]] = E[j].truncate(rung).npow(pair[j])
                        term = term.mul(powers[j, pair[j]])
                total = total.add(term)
            new[l] = total.truncate(order)
        if rung == order and new == W:
            return W, E
        for l in inv.active:
            E[l] = E[l].mul(new[l].sub(W[l]).exp())
            W[l] = new[l]
    raise AssertionError("the reference fixed point did not stabilize")


@pytest.mark.parametrize("order", [4, Fraction(7, 2), 10], ids=str)
@pytest.mark.parametrize("name", ["p2", "f2", "chain3"])
def test_fixed_point_matches_plain_picard(request, name, order):
    inv = mirror._inverse(request.getfixturevalue(name), order)
    assert plain_picard(inv) == (inv.W, inv.E)


# the semi-Fano Seidel 3-folds of f2, and the rank-7 one of chain3
SEIDEL_CASES = [("f2", ray, sign, 6) for ray, sign in
                [(0, "plus"), (1, "plus"), (2, "plus"), (3, "plus"),
                 (1, "minus"), (3, "minus")]] + [("chain3", 2, "minus", 2)]


@pytest.mark.parametrize("name, ray, sign, order", SEIDEL_CASES)
def test_seidel_fixed_point_matches_plain_picard(request, name, ray, sign, order):
    ctx = validate(seidel_fan(request.getfixturevalue(name), ray, sign))
    inv = mirror._inverse(ctx, order)
    assert inv.sources
    assert plain_picard(inv) == (inv.W, inv.E)


@pytest.mark.parametrize("name, order", [("f2", 8), ("chain3", Fraction(7, 2)),
                                         ("chain3", 10)], ids=str)
def test_pass_reads_exponentials_only_to_order_minus_step(request, name, order):
    # the stability certificate rests on this: a pass at full order cannot
    # see terms of E above degree order - step
    ctx = request.getfixturevalue(name)
    inv = mirror._inverse(ctx, order)
    rng = random.Random(7)

    def noise(low, high):
        """A few random terms of weighted degree in (low, high]."""
        terms = {}
        while len(terms) < 4:
            e = tuple(rng.randrange(-4, 9) for _ in range(ctx.rank))
            if low < ctx.weight(e) <= high:
                terms[e] = rng.randrange(1, 9)
        return QSeries(ctx.rank, ctx.ample_weight, order, terms)

    step = inv.step
    assert inv._pass(inv.E, order) == inv.W
    above = {l: e.add(noise(order - step, order)) for l, e in inv.E.items()}
    assert inv._pass(above, order) == inv.W
    # and the budget is tight: terms at degree order - step do show
    at = {l: e.add(noise(order - 2 * step, order - step)) for l, e in inv.E.items()}
    assert inv._pass(at, order) != inv.W


def test_chain3_order_10_runs_ten_passes(monkeypatch, load):
    # rungs 1..10; the certificate replaces an eleventh, verifying pass
    rungs = []
    real_pass = mirror._Inverse._pass

    def counting(self, E, order):
        rungs.append(order)
        return real_pass(self, E, order)

    monkeypatch.setattr(mirror._Inverse, "_pass", counting)
    mirror._inverse(load("chain3"), 10)
    assert rungs == list(range(1, 11))
