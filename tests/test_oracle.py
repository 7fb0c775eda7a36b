from fractions import Fraction

import pytest

from toricmirror import CurveClass, g_function
from toricmirror.oracle import NilpotentLaurent, i_d_term, i_one_over_z


def test_nilpotent_algebra():
    one = NilpotentLaurent.one()
    a = NilpotentLaurent(scalar={1: Fraction(1, 2)}, linear={0: {2: 3}})
    assert a.mul(one) == a and one.mul(a) == a
    b = NilpotentLaurent(scalar={-1: 2}, linear={1: {0: 1}})
    ab = a.mul(b)
    assert ab == b.mul(a)
    assert ab.scalar == {0: Fraction(1)}
    # divisor x divisor terms vanish; scalar parts distribute over each slot
    assert ab.linear == {0: {1: Fraction(6)}, 1: {1: Fraction(1, 2)}}
    purely_linear = NilpotentLaurent(linear={0: {0: 1}})
    assert purely_linear.mul(purely_linear).is_zero()


def test_nilpotent_cancellation():
    a = NilpotentLaurent(scalar={0: 1}, linear={2: {1: 5}})
    b = NilpotentLaurent(scalar={0: 1}, linear={2: {1: -5}})
    prod = a.mul(b)
    assert prod.scalar == {0: Fraction(1)}
    assert prod.linear == {}


def test_i_d_term_requires_chern_zero(p2, f2):
    with pytest.raises(ValueError):
        i_d_term(p2, CurveClass((1,)))
    with pytest.raises(ValueError):
        i_d_term(f2, CurveClass((0, 1)))


def test_i_d_term_f2_fiber(f2):
    # fiber class: pairings (1, -2, 1, 0); two positive factors, one negative
    term = i_d_term(f2, CurveClass((1, 0)))
    assert term.scalar == {}
    assert term.linear.get(1, {}).get(1, 0) == -1
    # k-fold fibers contribute the g-series coefficients with a minus sign
    for k in (2, 3):
        term = i_d_term(f2, CurveClass((k, 0)))
        got = term.linear.get(1, {}).get(1, 0)
        assert got == -g_function(f2, 1, 8).coefficient((k, 0))


def test_two_negative_pairings_vanish(chain3):
    # d with two rays negative never contributes a divisor-linear 1/z term
    d = CurveClass((1, 1, 0, 0, 0, 0))     # D_1.d = -5, but single-negative
    assert not i_d_term(chain3, d).is_zero()
    # build a degree-0 class negative against two rays: t2 is negative
    # against ray 2 only; t1+t2+t3 pairs (0,-1,-1,1,1,0,0,0)
    d2 = CurveClass((0, -1, 1, 0, 0, 0))
    pairs = [chain3.pairing(r, d2) for r in range(8)]
    assert sum(p < 0 for p in pairs) >= 2
    assert i_d_term(chain3, d2).is_zero()


def test_oracle_matches_g_everywhere(p2, p1xp1, f2, chain3):
    for ctx in (p2, p1xp1, f2, chain3):
        side = i_one_over_z(ctx, 6)
        for ray in range(ctx.m):
            assert side[ray] == g_function(ctx, ray, 6).neg()


def test_oracle_sees_beyond_the_window(f2):
    # the expansion is exact in zeta, not windowed: scalar parts of positive
    # factors carry zeta^k for the full k
    term = i_d_term(f2, CurveClass((3, 0)))
    assert term.linear.get(1, {}).get(1, 0) != 0
    assert term.linear[1].keys() == {1}
