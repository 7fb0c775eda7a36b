"""The invariant suite: the paper's identities as named checks.

:func:`suite` lists ``(name, check)`` pairs for one validated context and
truncation order.  Calling a check returns ``None`` when its identity holds
and a one-line detail naming where it fails otherwise; ``check-all`` runs
them in order and stops at the first failure.

Everything is called through the ``mirror`` and ``oracle`` module
attributes, so a function patched or wrapped there is the one a check uses.
"""

from __future__ import annotations

from fractions import Fraction

from . import fans, mirror, oracle
from .series import QSeries, SubstitutionMap


def oracle_mismatches(ctx, order):
    """Rays whose ``-g`` differs from the I-function's ``1/z`` coefficient."""
    side = oracle.i_one_over_z(ctx, order)
    return [ray for ray in range(ctx.m)
            if side[ray] != mirror.g_function(ctx, ray, order).neg()]


def first_difference(got, expected):
    """`` at e: a != b`` for the lowest monomial, by (degree, exponent), whose
    coefficients in ``got`` and ``expected`` differ; a missing term is 0."""
    exponent = min((e for e in got.terms.keys() | expected.terms.keys()
                    if got.coefficient(e) != expected.coefficient(e)),
                   key=lambda e: (got.degree(e), e))
    return (f" at {exponent}: {got.coefficient(exponent)} != "
            f"{expected.coefficient(exponent)}")


def suite(ctx, order):
    """``[(name, check)]`` for every property, in the order ``check-all`` runs them."""
    one = QSeries.one(ctx.rank, ctx.ample_weight, order)
    zero = QSeries(ctx.rank, ctx.ample_weight, order)

    def roundtrip():
        # The maps cut to ``small`` are the maps at order ``small``, as their
        # slices are final; their generic composition reads no solve row (the
        # row sums are log-identity's: see the fault matrix of test_checks.py).
        small = min(order, Fraction(4))
        identity = QSeries.one(ctx.rank, ctx.ample_weight, small)
        outer, inner = (SubstitutionMap(units=tuple(u.truncate(small) for u in m.units))
                        for m in (mirror.mirror_map(ctx, order),
                                  mirror.inverse_mirror_map(ctx, order)))
        for k, unit in enumerate(outer.compose(inner).units):
            if unit != identity:
                return (f"generic composition at order {small}: component {k} is not 1"
                        + first_difference(unit, identity))

    def product_identity():
        inv = mirror.inverse_mirror_map(ctx, order)
        units = [one.add(mirror.delta(ctx, ray, order)) for ray in range(ctx.m)]
        for k in range(ctx.rank):
            acc = one
            for ray in range(ctx.m):
                p = ctx.P[ray][k]
                if p and units[ray] != one:
                    acc = acc.mul(units[ray].npow(p))
            if acc != inv.units[k]:
                return f"component {k} disagrees" + first_difference(acc, inv.units[k])

    def log_identity():
        # The inverse route: g_l(qc(q)) is the row sum that equals the solve's
        # W_l, so this compares E_l exp(-W_l) with 1: it checks the exp
        # recurrence of the solve against QSeries.exp, and the X_d slices and
        # compose_with_inverse that the row sum reads, which roundtrip does not.
        for ray in range(ctx.m):
            g = mirror.g_function(ctx, ray, order)
            if g.is_zero():
                continue
            composed = mirror.compose_with_inverse(ctx, g)
            product = one.add(mirror.delta(ctx, ray, order)).mul(composed.neg().exp())
            if product != one:
                return (f"ray {ray}: (1+delta)exp(-g(qc(q))) != 1"
                        + first_difference(product, one))
        # The same identity in checked coordinates.  The forward map
        # q_k = qc_k exp(-g^{Psi_k}(qc)) needs only g and exp, so this side
        # reads no solve row: a wrong coefficient of the solve shows here
        # even where the inverse route agrees with itself.  It stays
        # independent of the solve, as does the oracle check.
        # Every monomial of delta has positive degree, so the substitution
        # keeps the full order.
        forward = mirror.mirror_map(ctx, order)
        for ray in range(ctx.m):
            lhs = one.add(mirror.delta(ctx, ray, order)).substitute(forward)
            rhs = mirror.g_function(ctx, ray, order).exp()
            if lhs != rhs:
                return (f"ray {ray}: (1+delta)(q(qc)) != exp(g(qc))"
                        + first_difference(lhs, rhs))

    def derivative_identity():
        composed = [mirror.compose_with_inverse(ctx, mirror.g_function(ctx, k, order))
                    for k in range(ctx.m)]
        composed_ij = {(k, l): mirror.compose_with_inverse(ctx, mirror.g_ij(ctx, k, l, order))
                       for k in range(ctx.m) for l in range(ctx.m)}
        for i in range(ctx.m):
            derivs = [mirror.divisor_derivative(ctx, i, c) for c in composed]
            for k in range(ctx.m):
                rhs = composed_ij[k, i]
                for l in range(ctx.m):
                    if not composed[l].is_zero():
                        rhs = rhs.add(derivs[l].mul(composed_ij[k, l]))
                if derivs[k] != rhs:
                    return f"i={i}, k={k} disagrees" + first_difference(derivs[k], rhs)

    def oracle_equality():
        bad = oracle_mismatches(ctx, order)
        if bad:
            return f"I-function 1/z coefficient differs at ray {bad[0]}"

    def theorem_potentials():
        disc = mirror.disc_potential(ctx, order)
        tilde = mirror.hori_vafa(ctx, order, "tilde")
        for z in sorted(disc.keys() | tilde.keys()):
            got, expected = disc.get(z, zero), tilde.get(z, zero)
            if got != expected:
                return (f"disc potential and tilde Hori-Vafa differ in z^{z}"
                        + first_difference(got, expected))

    def support_vanishing():
        for ray in range(ctx.m):
            g = mirror.g_function(ctx, ray, order)
            if fans.is_vertex(ctx, ray) and not g.is_zero():
                return f"g != 0 at vertex ray {ray}"
            face = set(fans.minimal_face(ctx, ray))
            for exponent in mirror.delta(ctx, ray, order).terms:
                for other in range(ctx.m):
                    if other not in face and ctx.pairing(other, exponent):
                        return (f"delta_{ray} monomial {exponent} pairs with ray "
                                f"{other} outside the minimal face")

    def extended_factors():
        factors = mirror.extended_mirror_factors(ctx, order)
        mm = mirror.mirror_map(ctx, order)
        for k, ray in enumerate(ctx.basis_perm[ctx.n:]):
            acc = factors[ray]
            for b, e in zip(ctx.basis_perm[:ctx.n], ctx.z[ray]):
                if e:
                    acc = acc.mul(factors[b].npow(-e))
            if acc != mm.units[k]:
                return (f"projection to component {k} disagrees"
                        + first_difference(acc, mm.units[k]))

    def fano_triviality():
        if all(ctx.degree(w.curve) > 0 for w in ctx.walls):
            if not mirror.mirror_map(ctx, order).is_identity():
                return "Fano fan has a nontrivial mirror map"
            for ray in range(ctx.m):
                if not mirror.delta(ctx, ray, order).is_zero():
                    return f"Fano fan has delta != 0 at ray {ray}"

    return [
        ("roundtrip", roundtrip),
        ("product-identity", product_identity),
        ("log-identity", log_identity),
        ("derivative-identity", derivative_identity),
        ("oracle", oracle_equality),
        ("potential-equality", theorem_potentials),
        ("support-vanishing", support_vanishing),
        ("extended-factors", extended_factors),
        ("fano-triviality", fano_triviality),
    ]
