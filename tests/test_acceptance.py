"""Acceptance gate: ten golden properties of the engine, all exact.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
every comparison is exact rational equality, no tolerances anywhere.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from toricmirror import (
    delta,
    disc_potential,
    divisor_derivative,
    g_function,
    g_ij,
    hori_vafa,
    inverse_mirror_map,
    is_vertex,
    minimal_face,
    mirror_map,
    open_gw,
)
from toricmirror.mirror import compose_with_inverse
from toricmirror.oracle import i_one_over_z
from toricmirror.series import QSeries


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:02d}: {name}")
        raise
    print(f"PASS criterion {num:02d}: {name}")


def add_exp(*exponents):
    return tuple(sum(parts) for parts in zip(*exponents))


# the curve classes of the three top-edge (-2)-curves of the chain3 surface,
# written in its rank-6 class basis; the golden polynomials below are sums
# of their monomials with coefficient 1
T1 = (1, 0, 0, 0, 0, 0)
T2 = (-2, 1, 0, 0, 0, 0)
T3 = (1, -2, 1, 0, 0, 0)

GOLDEN_CHAIN3 = {
    1: [(T1,), (T1, T2), (T1, T2, T3)],
    2: [(T2,), (T1, T2), (T2, T3), (T1, T2, T3), (T1, T2, T2, T3)],
    3: [(T3,), (T2, T3), (T1, T2, T3)],
}

# the two side (-2)-curves contribute one disc correction each
SIDE_CLASSES = {5: (0, 0, 1, -2, 1, 0), 7: (0, 0, 0, 0, 1, -2)}


def golden_delta(ctx, ray, order):
    terms = {add_exp(*monomial): Fraction(1) for monomial in GOLDEN_CHAIN3[ray]}
    return QSeries(ctx.ring, order, terms)


def test_criterion_01_chain3_golden_deltas(load):
    with criterion(1, "chain3 golden deltas at order 10, under 10 s"):
        start = time.monotonic()
        ctx = load("chain3")    # fresh context so nothing is precomputed
        got = {ray: delta(ctx, ray, 10) for ray in (1, 2, 3)}
        elapsed = time.monotonic() - start
        for ray in (1, 2, 3):
            assert got[ray] == golden_delta(ctx, ray, 10), f"delta_{ray}"
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_02_chain3_closed_form_inverse(chain3):
    with criterion(2, "chain3 inverse mirror map equals the closed form"):
        order = 8
        one = QSeries.one(chain3.ring, order)
        units = {}
        for ray in (1, 2, 3):
            units[ray] = one.add(golden_delta(chain3, ray, order))
        for ray, cls in SIDE_CLASSES.items():
            units[ray] = one.add(QSeries(chain3.ring, order, {cls: 1}))
        inv = inverse_mirror_map(chain3, order)
        for k in range(chain3.rank):
            expected = one
            for ray, unit in sorted(units.items()):
                p = chain3.P[ray][k]
                if p:
                    expected = expected.mul(unit.npow(p))
            assert inv.units[k] == expected, f"component {k}"


def test_criterion_03_f2_fiber_tower(f2):
    with criterion(3, "Hirzebruch F2: g series, delta, and open invariants"):
        g = g_function(f2, 1, 8)
        expected = {(k, 0): Fraction(factorial(2 * k - 1), factorial(k) ** 2)
                    for k in range(1, 9)}
        assert g.terms == expected
        assert delta(f2, 1, 8) == QSeries(f2.ring, 8, {(1, 0): 1})
        assert open_gw(f2, 1, (1, 0), 8) == 1
        for k in range(2, 9):
            assert open_gw(f2, 1, (k, 0), 8) == 0


def test_criterion_04_fano_triviality(p2, p1xp1):
    with criterion(4, "Fano fixtures: trivial corrections, potentials agree"):
        for ctx in (p2, p1xp1):
            for ray in range(ctx.m):
                assert g_function(ctx, ray, 8).is_zero()
                assert delta(ctx, ray, 8).is_zero()
            assert mirror_map(ctx, 8).is_identity()
            assert disc_potential(ctx, 8) == hori_vafa(ctx, 8, "plain")


def test_criterion_05_oracle_equivalence(p2, p1xp1, f2, chain3):
    with criterion(5, "I-function oracle matches every g series at order 6"):
        for ctx in (p2, p1xp1, f2, chain3):
            side = i_one_over_z(ctx, 6)
            for ray in range(ctx.m):
                assert side[ray] == g_function(ctx, ray, 6).neg()


def test_criterion_06_round_trip(p2, p1xp1, f2, chain3):
    with criterion(6, "mirror o inverse is the identity at order 8"):
        for ctx in (p2, p1xp1, f2, chain3):
            mm = mirror_map(ctx, 8)
            inv = inverse_mirror_map(ctx, 8)
            assert mm.compose(inv).is_identity()
            assert inv.compose(mm).is_identity()


def test_criterion_07_product_identity(p2, p1xp1, f2, chain3):
    with criterion(7, "q_k prod (1+delta_l)^(D_l.Psi_k) inverts the map"):
        for ctx in (p2, p1xp1, f2, chain3):
            order = 8
            one = QSeries.one(ctx.ring, order)
            inv = inverse_mirror_map(ctx, order)
            units = [one.add(delta(ctx, l, order))
                     for l in range(ctx.m)]
            for k in range(ctx.rank):
                product = one
                for l in range(ctx.m):
                    p = ctx.P[l][k]
                    if p and units[l] != one:
                        product = product.mul(units[l].npow(p))
                assert product == inv.units[k]


def test_criterion_08_derivative_identity(f2, chain3):
    with criterion(8, "divisor derivative chain rule for g(qc(q)) at order 6"):
        order = 6
        for ctx in (f2, chain3):
            composed = {k: compose_with_inverse(ctx, g_function(ctx, k, order))
                        for k in range(ctx.m)}
            for i in range(ctx.m):
                for k in range(ctx.m):
                    lhs = divisor_derivative(ctx, i, composed[k])
                    rhs = compose_with_inverse(ctx, g_ij(ctx, k, i, order))
                    for l in range(ctx.m):
                        if composed[l].is_zero():
                            continue
                        rhs = rhs.add(
                            divisor_derivative(ctx, i, composed[l]).mul(
                                compose_with_inverse(ctx, g_ij(ctx, k, l, order))))
                    assert lhs == rhs, f"i={i}, k={k}"


def test_criterion_09_support_and_vanishing(chain3):
    with criterion(9, "chain3 face support and vertex vanishing"):
        vertices = [0, 4, 6]
        assert [r for r in range(8) if is_vertex(chain3, r)] == vertices
        for ray in vertices:
            assert g_function(chain3, ray, 10).is_zero()
        faces = {r: minimal_face(chain3, r) for r in range(8)}
        assert faces == {
            0: (0,), 1: (0, 1, 2, 3, 4), 2: (0, 1, 2, 3, 4),
            3: (0, 1, 2, 3, 4), 4: (4,), 5: (4, 5, 6), 6: (6,),
            7: (0, 6, 7),
        }
        outside = [r for r in range(8) if r not in faces[1]]
        assert outside == [5, 6, 7]
        for exponent in delta(chain3, 1, 10).terms:
            for ray in outside:
                assert chain3.pairing(ray, exponent) == 0


def test_criterion_10_potentials_agree(p2, p1xp1, f2, chain3):
    with criterion(10, "disc potential equals tilde Hori-Vafa at order 8"):
        for ctx in (p2, p1xp1, f2, chain3):
            assert disc_potential(ctx, 8) == hori_vafa(ctx, 8, "tilde")
