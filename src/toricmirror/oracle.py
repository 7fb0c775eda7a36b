"""Independent cross-check of the hypergeometric series via the I-function.

The engine computes each g-series from a closed-form coefficient formula.
This module re-derives the same data a completely different way: it expands
the I-function's telescoping factor products in a tiny quotient algebra where
divisor symbols square to zero, and reads the ``1/z`` coefficient off the
result.  Agreement (``i_one_over_z == -sum_l g_l D_l``) validates the
factorial and sign bookkeeping without sharing any coefficient algebra.

Everything is a Laurent polynomial in the single symbol ``zeta = 1/z``; no
window truncation is applied since desk-scale inputs stay tiny.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .fans import ToricContext, memoised
from .mirror import enumerate_classes
from .series import QSeries


def _merge(out, e, c):
    s = out.get(e, 0) + c
    if s:
        out[e] = s
    elif e in out:
        del out[e]


class NilpotentLaurent:
    """Scalar + divisor-linear Laurent polynomial in ``zeta``, with D_a D_b = 0.

    ``scalar`` maps a zeta-exponent to a rational; ``linear[ray]`` does the
    same for the coefficient of each divisor symbol.  Anything quadratic in
    the divisor symbols is dropped on multiplication.
    """

    def __init__(self, scalar=None, linear=None):
        self.scalar = {e: Fraction(c) for e, c in (scalar or {}).items() if c}
        self.linear = {}
        for ray, poly in (linear or {}).items():
            clean = {e: Fraction(c) for e, c in poly.items() if c}
            if clean:
                self.linear[ray] = clean

    @classmethod
    def one(cls):
        return cls(scalar={0: 1})

    def mul(self, other: "NilpotentLaurent") -> "NilpotentLaurent":
        scalar = {}
        for e1, c1 in self.scalar.items():
            for e2, c2 in other.scalar.items():
                _merge(scalar, e1 + e2, c1 * c2)
        linear = {}
        for ray, poly in self.linear.items():
            acc = linear.setdefault(ray, {})
            for e1, c1 in poly.items():
                for e2, c2 in other.scalar.items():
                    _merge(acc, e1 + e2, c1 * c2)
        for ray, poly in other.linear.items():
            acc = linear.setdefault(ray, {})
            for e1, c1 in poly.items():
                for e2, c2 in self.scalar.items():
                    _merge(acc, e1 + e2, c1 * c2)
        return NilpotentLaurent(scalar=scalar, linear=linear)

    def is_zero(self) -> bool:
        return not self.scalar and not self.linear

    def __eq__(self, other):
        if not isinstance(other, NilpotentLaurent):
            return NotImplemented
        return self.scalar == other.scalar and self.linear == other.linear

    def __repr__(self):
        return f"NilpotentLaurent(scalar={self.scalar!r}, linear={self.linear!r})"


def _factor(ray: int, k: int) -> NilpotentLaurent:
    """One telescoping factor of I_d, expanded to first order in D_ray, for
    a nonzero pairing ``k`` (:func:`i_d_term` skips the factor 1 of ``k = 0``).

    For ``k > 0`` the factor is ``1 / prod_{s=1..k} (D + s z)``:
    scalar part ``zeta^k / k!`` and divisor part ``-(H_k / k!) zeta^{k+1}``
    with ``H_k`` the harmonic number.  For ``k < 0`` the factor is the bare
    product ``prod_{s=k+1..0} (D + s z)`` whose ``s = 0`` term makes it purely
    divisor-linear: ``(-1)^{a-1} (a-1)! zeta^{1-a}`` on D, where ``a = -k``.
    """
    if k > 0:
        harmonic = sum(Fraction(1, s) for s in range(1, k + 1))
        inv = Fraction(1, factorial(k))
        return NilpotentLaurent(scalar={k: inv},
                                linear={ray: {k + 1: -harmonic * inv}})
    a = -k
    coeff = Fraction(factorial(a - 1))
    if a % 2 == 0:
        coeff = -coeff
    return NilpotentLaurent(linear={ray: {1 - a: coeff}})


def i_d_term(ctx: ToricContext, d) -> NilpotentLaurent:
    """The I-function contribution of one curve class ``d`` (a tuple of
    ``int``), truncated at divisors.

    Requires zero anticanonical degree; classes where two or more divisors
    pair negatively come out as exact zero (two nilpotent factors).
    """
    if ctx.degree(d) != 0:
        raise ValueError("i_d_term requires a class of zero anticanonical degree")
    result = NilpotentLaurent.one()
    for ray in range(ctx.m):
        k = ctx.pairing(ray, d)
        if k:
            result = result.mul(_factor(ray, k))
            if result.is_zero():
                break
    return result


@memoised
def i_one_over_z(ctx: ToricContext, order) -> tuple:
    """The 1/z coefficient of the I-function as a divisor-valued series: its
    tuple of coefficient series on ``D_0 .. D_{m-1}``.

    Sums ``qc^d`` times the zeta^1 part of ``i_d_term`` over the index set of
    all g-series (one negative pairing each; other classes die by
    nilpotency).  Contract: equals ``-sum_l g_l(qc) D_l``.  Memoised per
    context, like ``g_l``.
    """
    per_ray = [{} for _ in range(ctx.m)]
    for l in range(ctx.m):
        for d in enumerate_classes(ctx, l, order):
            term = i_d_term(ctx, d)
            for ray, poly in term.linear.items():
                c = poly.get(1)
                if c:
                    per_ray[ray][d] = c
    return tuple(QSeries(ctx.ring, order, terms=t) for t in per_ray)
