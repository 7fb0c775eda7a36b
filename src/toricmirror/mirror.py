"""Mirror maps, open Gromov-Witten corrections and potentials.

Everything here lives over a validated :class:`~toricmirror.fans.ToricContext`
and is graded by its ample weight, so a truncation order ``N`` always means
"keep weighted degree <= N".

The central objects:

``g_function``
    The hypergeometric series attached to a ray, summed over curve classes
    with zero anticanonical degree that pair negatively with that ray's
    divisor and non-negatively with all others.

``mirror_map`` / ``inverse_mirror_map``
    The coordinate change ``q_k = qc_k * exp(-g^{Psi_k}(qc))`` and its
    compositional inverse.  The inverse is found in logarithmic coordinates,
    per ray rather than per curve-basis unit: the defining equations say
    that the functions ``W_l = g_l(qc(q))`` satisfy the sparse equations

        W_l = sum over classes d of  gamma_{l,d} * q^d * prod_j exp(W_j)^{D_j.d}

    which :func:`~toricmirror.series.solve_units` solves online, one ring
    level at a time: each slice of every series is formed exactly once, from
    final lower slices, so the solution is exact by construction and there
    is no iteration to stop or to certify.  The exponentials ``1 + delta_l =
    exp(W_l)`` then give the open Gromov-Witten generating functions
    directly.  :func:`_solve` keeps ``W``, ``E`` and the row products
    ``X_d = prod_j E_j^{D_j.d}`` as plain values in the context's one memo
    (:func:`~toricmirror.fans.memoised`), where every consumer reads them.
    Every series the engine composes with the inverse map (``g_l`` and
    ``g_{ij}``) lies on the class rows, so :func:`compose_with_inverse`, the
    solve's own row step, sums ``c_d q^d X_d`` from its slices (``g_l`` to
    ``W_l``), forms no product and raises for a series off the rows.

``disc_potential`` / ``hori_vafa``
    The Laurent potentials.  The disc potential reads ``E`` of the solve; the
    "tilde" Hori-Vafa form is assembled through the coordinate-change route
    instead: its basis-ray coefficients are ``exp`` of the row sums
    ``g_l(qc(q))`` (the same sums as ``W_l``, exponentiated by
    :meth:`~toricmirror.series.QSeries.exp` rather than by the solve's
    recurrence), and its other coefficients are inverse-map units times
    powers of those exponentials rather than the shifted ``E``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import lp
from .fans import ToricContext, _check_int, check_class, check_ray, memoised
from .series import QSeries, SubstitutionMap, _as_fraction, row_sum, solve_units


@memoised
def _one(ctx: ToricContext, order) -> QSeries:
    """The ``1`` that every ray without classes shares as its unit."""
    return QSeries.one(ctx.rank, ctx.ample_weight, order)


@memoised
def enumerate_classes(ctx: ToricContext, ray: int, order):
    """Curve classes of the g-series index set for one ray, up to order.

    These are the integer classes with zero anticanonical degree that pair
    <= -1 with the divisor at ``ray`` and >= 0 with every other divisor,
    enumerated exhaustively (and deterministically) by exact integer-point
    scanning of the constraint polytope.

    Every row is ``int``: ``c1`` and the pairing rows of ``ctx.P`` as they
    are, and for the weight the ring's integer weights ``L * w`` (``L`` the
    lcm of the weights' denominators) with the floored level
    ``floor(L * order)``.  ``(L * w) . d`` is an ``int`` for integer ``d``,
    so it is at most ``L * order`` exactly when it is at most that level.
    The classes come out by level, then lexicographically, as tuples of
    ``int``.
    """
    ring = ctx.ring
    c1 = ctx.c1
    cons = [(c1, 0), (tuple(-c for c in c1), 0)]
    for i, row in enumerate(ctx.P):
        cons.append((tuple(-p for p in row), 1) if i == ray else (row, 0))
    cons.append((tuple(-w for w in ring.scaled), -ring.level(order)))
    points = lp.integer_points(cons, ctx.rank)
    points.sort(key=lambda p: (ring.grade(p), p))
    return points


@memoised
def _class_table(ctx: ToricContext, ray: int, order):
    """One row ``(d, wt, gamma, pair)`` per class ``d`` of the g index set of
    ray ``l``, in :func:`enumerate_classes` order: the row shape that
    :func:`~toricmirror.series.solve_units` reads.

    ``d`` is the class and ``wt`` its level in the ring of the ample weight
    (its weight times the ring's integer ``scale``), so degree budgets are
    ``int``.  ``gamma`` is the hypergeometric coefficient
    of ``d`` in ``g_l``: with ``a = -(D_l . d) >= 1`` it is
    ``(-1)^a (a-1)! / prod_{j != l} (D_j . d)!``.  ``pair[j]`` is ``D_j . d``
    for every ray ``j``.
    """
    rows = []
    for d in enumerate_classes(ctx, ray, order):
        pair = tuple(sum(p * c for p, c in zip(row, d)) for row in ctx.P)
        a = -pair[ray]
        denominator = 1
        for j, k in enumerate(pair):
            if j != ray and k > 1:
                denominator *= factorial(k)
        gamma = Fraction(factorial(a - 1) if a % 2 == 0 else -factorial(a - 1),
                         denominator)
        rows.append((d, ctx.ring.grade(d), gamma, pair))
    return rows


@memoised
def g_function(ctx: ToricContext, ray: int, order) -> QSeries:
    """The hypergeometric correction series ``g_l`` attached to one ray
    divisor, in the complex (checked) variables; memoised per context."""
    terms = {comps: gamma for comps, _, gamma, _ in _class_table(ctx, ray, order)}
    return QSeries(ctx.rank, ctx.ample_weight, order, terms=terms)


def g_psi(ctx: ToricContext, k: int, order) -> QSeries:
    """The curve-basis combination ``sum_l (D_l . Psi_k) g_l``."""
    if not 0 <= _check_int(k, "curve-basis index") < ctx.rank:
        raise ValueError(f"curve-basis index {k} out of range")
    return QSeries.linear_sum([(g_function(ctx, ray, order), ctx.P[ray][k])
                               for ray in range(ctx.m) if ctx.P[ray][k]],
                              ctx.rank, ctx.ample_weight, order)


def g_ij(ctx: ToricContext, i: int, j: int, order) -> QSeries:
    """The double-index series: g_i weighted per class by ``D_j . d``, that
    is the :func:`divisor_derivative` of ray ``j`` applied to ``g_i``."""
    return divisor_derivative(ctx, j, g_function(ctx, i, order))


@memoised
def mirror_map(ctx: ToricContext, order) -> SubstitutionMap:
    """The map ``q_k = qc_k * exp(-g^{Psi_k}(qc))`` as a substitution."""
    return SubstitutionMap(units=tuple(g_psi(ctx, k, order).neg().exp()
                                       for k in range(ctx.rank)))


@memoised
def _solve(ctx: ToricContext, order):
    """The solved inverse map ``(W, E, X)``: the dicts ``W[l] = log(1 +
    delta_l)`` and ``E[l] = exp(W[l])``, exact to ``order``, over the rays
    ``l`` whose :func:`_class_table` is nonempty, and ``X`` from the packed
    key of each class row ``d`` to ``X_d = prod_j E_j^{D_j . d}`` as a map
    from its nonempty levels to their slices, so that ``qc^d(q) = q^d X_d``.
    Every other ray has ``W = 0`` and the unit :func:`_one`."""
    sources = {ray: rows for ray in range(ctx.m)
               if (rows := _class_table(ctx, ray, order))}
    return solve_units(ctx.ring, order, sources)


@memoised
def inverse_mirror_map(ctx: ToricContext, order) -> SubstitutionMap:
    """The compositional inverse ``qc_k = q_k * exp(g^{Psi_k}(qc(q)))``, from
    ``log qc_k/q_k = sum_l (D_l . Psi_k) W_l``."""
    W = _solve(ctx, order)[0]
    return SubstitutionMap(units=tuple(
        QSeries.linear_sum([(W[l], ctx.P[l][k]) for l in W if ctx.P[l][k]],
                           ctx.rank, ctx.ample_weight, order).exp()
        for k in range(ctx.rank)))


def compose_with_inverse(ctx: ToricContext, f: QSeries) -> QSeries:
    """Substitute the inverse mirror map into a series in checked variables,
    exact to ``f.order``: the row sum ``sum_d c_d q^d X_d`` over the slices
    of :func:`_solve` (:func:`~toricmirror.series.row_sum`).  A series off
    the class rows or of another ring raises ``SeriesError``; the generic
    spelling is ``f.substitute(inverse_mirror_map(ctx, order))``, ``k``
    deeper than ``f.order`` for a monomial of degree ``-k``.
    """
    _one(ctx, f.order)._check_shape(f)
    return row_sum(f, _solve(ctx, f.order)[2])


def delta(ctx: ToricContext, ray: int, order) -> QSeries:
    """The open Gromov-Witten generating series ``exp(g_l(qc(q))) - 1``."""
    check_ray(ctx, ray)
    one = _one(ctx, order)
    return _solve(ctx, order)[1].get(ray, one).sub(one)


def open_gw(ctx: ToricContext, ray: int, alpha, order=None) -> Fraction:
    """The one-pointed open invariant of the Maslov-index-2 disc class
    ``beta_ray + alpha``, with ``alpha`` a curve class."""
    check_ray(ctx, ray)
    alpha = check_class(ctx, alpha)
    maslov = 2 + 2 * ctx.degree(alpha)
    if maslov != 2:
        raise ValueError(f"disc class has Maslov index {maslov}, need 2 "
                         "(sphere part must have zero Chern number)")
    if not any(alpha):
        return Fraction(1)
    wt = ctx.weight(alpha)
    if order is not None and wt > _as_fraction(order):
        raise ValueError("sphere class lies beyond the computed order")
    if wt <= 0:
        return Fraction(0)
    return delta(ctx, ray, wt if order is None else order).coefficient(alpha)


def open_gw_divisor(ctx: ToricContext, ray: int, alpha, divisor: int,
                    order=None) -> Fraction:
    """Divisor-insertion open invariant: the plain one times
    ``D_divisor . (beta_ray + alpha)``."""
    check_ray(ctx, divisor)
    base = open_gw(ctx, ray, alpha, order)
    return base * ((divisor == ray) + ctx.pairing(divisor, alpha))


def _nonzero(terms) -> dict:
    """The terms not truncated to zero: a unit shifted by a ``q_k`` whose
    weight exceeds the order has nothing left."""
    return {e: c for e, c in terms.items() if not c.is_zero()}


def disc_potential(ctx: ToricContext, order) -> dict:
    """The open-GW-corrected Laurent potential ``sum_l (1+delta_l) Z_l``, as
    ``{z_exponent: coefficient}`` over its nonzero coefficients.

    ``Z_l`` is ``z^{z[l]}`` on a basis ray and ``q_k z^{z[l]}`` on the ray
    ``l`` of the k-th class coordinate, whose row ``P[l]`` is the k-th unit
    vector.
    """
    E = _solve(ctx, order)[1]
    one = _one(ctx, order)
    terms = {ctx.z[ray]: E.get(ray, one) for ray in ctx.basis_perm[:ctx.n]}
    for ray in ctx.basis_perm[ctx.n:]:
        terms[ctx.z[ray]] = E.get(ray, one).shift(ctx.P[ray])
    return _nonzero(terms)


def hori_vafa(ctx: ToricContext, order, form: str = "plain") -> dict:
    """The Hori-Vafa potential, with Kaehler variables substituted, as
    ``{z_exponent: coefficient}`` over its nonzero coefficients.

    ``plain`` writes the superpotential with coefficients ``qc_k(q)``; the
    ``tilde`` form additionally applies the fiberwise coordinate change
    ``z_b -> exp(g_b) z_b``, which is what matches the disc potential.  One
    loop serves both: the factor of a basis ray ``b`` is ``1`` (plain), or
    the :meth:`~toricmirror.series.QSeries.exp` of the row sum that
    :func:`compose_with_inverse` forms for ``g_b`` (tilde), and a class
    ray's coefficient is its shifted inverse-map unit times the factors to
    the powers ``z``.  No ``E`` of the solve is read.
    """
    basis = ctx.basis_perm[:ctx.n]
    if form == "tilde":
        factor = {b: compose_with_inverse(ctx, g).exp() for b in basis
                  if not (g := g_function(ctx, b, order)).is_zero()}
    elif form == "plain":
        factor = {}
    else:
        raise ValueError(f"form must be 'plain' or 'tilde', got {form!r}")
    one = _one(ctx, order)
    terms = {ctx.z[b]: factor.get(b, one) for b in basis}
    units = inverse_mirror_map(ctx, order).units
    for k, ray in enumerate(ctx.basis_perm[ctx.n:]):
        coeff = units[k].shift(ctx.P[ray])
        for b, e in zip(basis, ctx.z[ray]):
            if e and b in factor:
                coeff = coeff.mul(factor[b].npow(e))
        terms[ctx.z[ray]] = coeff
    return _nonzero(terms)


def batyrev_element(ctx: ToricContext, ray: int, order) -> tuple:
    """The Batyrev-style divisor element ``D_j - sum_i g_{i,j}(qc(q)) D_i``,
    as its tuple of coefficient series on ``D_0 .. D_{m-1}``."""
    coeffs = []
    for i in range(ctx.m):
        composed = compose_with_inverse(ctx, g_ij(ctx, i, ray, order))
        coeffs.append(_one(ctx, order).sub(composed) if i == ray else composed.neg())
    return tuple(coeffs)


def seidel_element(ctx: ToricContext, ray: int, order) -> tuple:
    """The normalized Seidel element ``exp(-g_j(qc(q))) B_j``, as its tuple
    of coefficient series on ``D_0 .. D_{m-1}``."""
    check_ray(ctx, ray)
    scale = _solve(ctx, order)[1].get(ray, _one(ctx, order)).npow(-1)
    return tuple(scale.mul(c) for c in batyrev_element(ctx, ray, order))


def divisor_derivative(ctx: ToricContext, ray: int, f: QSeries) -> QSeries:
    """The weighted logarithmic derivative ``sum_k (D_i . Psi_k) q_k d/dq_k``.

    A series of another ring raises :class:`~toricmirror.series.SeriesError`.
    """
    check_ray(ctx, ray)
    _one(ctx, f.order)._check_shape(f)
    row = ctx.P[ray]
    terms = {}
    for e, c in f.terms.items():
        lam = sum(p * x for p, x in zip(row, e))
        if lam:
            terms[e] = lam * c
    return QSeries(f.nvars, f.weights, f.order, terms)


def extended_mirror_factors(ctx: ToricContext, order):
    """The per-ray unit factors ``exp(-g_l(qc))`` of the extended mirror map."""
    return [g_function(ctx, ray, order).neg().exp() for ray in range(ctx.m)]
