"""The invariant suite as a library: names, order and failure details."""

import pytest

from toricmirror import checks, mirror, oracle
from toricmirror.series import QSeries, SubstitutionMap

NAMES = ["roundtrip", "product-identity", "log-identity", "derivative-identity",
         "oracle", "potential-equality", "support-vanishing", "extended-factors",
         "fano-triviality"]


def test_suite_on_f2_holds(f2):
    suite = checks.suite(f2, 6)
    assert [name for name, _ in suite] == NAMES
    assert [check() for _, check in suite] == [None] * len(NAMES)
    assert checks.oracle_mismatches(f2, 6) == []


def test_oracle_check_names_the_ray(f2, monkeypatch):
    real = oracle.i_one_over_z

    def broken(ctx, order):
        coeffs = list(real(ctx, order))
        coeffs[0] = QSeries.one(ctx.rank, ctx.ample_weight, order)
        return tuple(coeffs)

    monkeypatch.setattr(oracle, "i_one_over_z", broken)
    assert checks.oracle_mismatches(f2, 4) == [0]
    check = dict(checks.suite(f2, 4))["oracle"]
    assert check() == "I-function 1/z coefficient differs at ray 0"


def test_derivative_identity_composes_each_series_once(chain3, monkeypatch):
    # m compositions of g_k and m^2 of g_{k,l}, not one per (i, k, l)
    real = mirror.compose_with_inverse
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mirror, "compose_with_inverse", counting)
    assert dict(checks.suite(chain3, 4))["derivative-identity"]() is None
    assert 0 < len(calls) <= chain3.m + chain3.m ** 2


def test_product_identity_names_the_first_differing_monomial(f2, monkeypatch):
    # delta_1 = q1 on f2; doubling it makes component 0 of the product
    # (1 + 2 q1)^-2 = 1 - 4 q1 + ... against the inverse map's 1 - 2 q1 + ...
    real = mirror.delta

    def doubled(ctx, ray, order):
        d = real(ctx, ray, order)
        return d.add(d) if ray == 1 else d

    monkeypatch.setattr(mirror, "delta", doubled)
    check = dict(checks.suite(f2, 4))["product-identity"]
    assert check() == "component 0 disagrees at (1, 0): -4 != -2"


def test_extended_factors_names_the_first_differing_monomial(f2, monkeypatch):
    # exp(-g_1) = 1 - q1 - q1^2 - ...; moving its q1^2 coefficient to 0 turns
    # the q1^2 coefficient of the projection (1 - q1 - ...)^-2 from 5 into 3
    real = mirror.extended_mirror_factors

    def shifted(ctx, order):
        factors = list(real(ctx, order))
        factors[1] = factors[1].add(
            QSeries(ctx.rank, ctx.ample_weight, order, {(2, 0): 1}))
        return factors

    monkeypatch.setattr(mirror, "extended_mirror_factors", shifted)
    check = dict(checks.suite(f2, 4))["extended-factors"]
    assert check() == "projection to component 0 disagrees at (2, 0): 3 != 5"


def _monomial(ctx, exponent, coeff, order):
    return QSeries(ctx.rank, ctx.ample_weight, order, {exponent: coeff})


def test_roundtrip_names_the_first_differing_monomial(f2, monkeypatch):
    # adding q1 to every composition adds q1 to the log of component 0
    real = mirror.compose_with_inverse

    def shifted(ctx, f):
        out = real(ctx, f)
        return out.add(_monomial(ctx, (1, 0), 1, out.order))

    monkeypatch.setattr(mirror, "compose_with_inverse", shifted)
    check = dict(checks.suite(f2, 4))["roundtrip"]
    assert check() == "component 0 of mirror o inverse is not q1 at (1, 0): 1 != 0"


def test_generic_composition_names_the_first_differing_monomial(f2, monkeypatch):
    real = SubstitutionMap.compose

    def shifted(self, inner):
        units = list(real(self, inner).units)
        units[0] = units[0].add(_monomial(f2, (1, 0), 1, units[0].order))
        return SubstitutionMap(units=tuple(units))

    monkeypatch.setattr(SubstitutionMap, "compose", shifted)
    check = dict(checks.suite(f2, 4))["roundtrip"]
    assert check() == "generic composition at order 4: component 0 is not 1 at (1, 0): 1 != 0"


def test_log_identity_names_the_first_differing_monomial(f2, monkeypatch):
    # delta_1 = q1 on f2; doubled, (1 + 2 q1) / (1 + q1) = 1 + q1 - ...
    real = mirror.delta

    def doubled(ctx, ray, order):
        d = real(ctx, ray, order)
        return d.add(d) if ray == 1 else d

    monkeypatch.setattr(mirror, "delta", doubled)
    check = dict(checks.suite(f2, 4))["log-identity"]
    assert check() == "ray 1: (1+delta)exp(-g(qc(q))) != 1 at (1, 0): 1 != 0"


def test_log_identity_reads_delta_through_the_forward_map(f2, monkeypatch):
    # delta_1 doubled, and the inverse route's g_1(qc(q)) patched to
    # log(1 + 2 delta_1): that route then holds by construction, and only the
    # forward route, which calls no compose_with_inverse, can see the fault
    real_delta, real_compose = mirror.delta, mirror.compose_with_inverse

    def doubled(ctx, ray, order):
        d = real_delta(ctx, ray, order)
        return d.add(d) if ray == 1 else d

    def matching(ctx, f):
        if f is mirror.g_function(ctx, 1, f.order):
            one = QSeries.one(ctx.rank, ctx.ample_weight, f.order)
            return one.add(doubled(ctx, 1, f.order)).log()
        return real_compose(ctx, f)

    monkeypatch.setattr(mirror, "delta", doubled)
    monkeypatch.setattr(mirror, "compose_with_inverse", matching)
    check = dict(checks.suite(f2, 4))["log-identity"]
    assert check() == "ray 1: (1+delta)(q(qc)) != exp(g(qc)) at (1, 0): 2 != 1"


def test_derivative_identity_names_the_first_differing_monomial(f2, monkeypatch):
    # adding q1 to g_{1,1} adds q1 times the D_0-derivative of g_1(qc(q)),
    # which starts at q1, to the right side at i=0, k=1: a q1^2 term
    real = mirror.g_ij

    def shifted(ctx, i, j, order):
        g = real(ctx, i, j, order)
        return g.add(_monomial(ctx, (1, 0), 1, order)) if (i, j) == (1, 1) else g

    monkeypatch.setattr(mirror, "g_ij", shifted)
    check = dict(checks.suite(f2, 4))["derivative-identity"]
    assert check() == "i=0, k=1 disagrees at (2, 0): -1 != 0"


def test_potential_equality_names_the_first_differing_z_exponent(f2, monkeypatch):
    real = mirror.disc_potential

    def shifted(ctx, order):
        terms = dict(real(ctx, order))
        terms[0, -1] = terms[0, -1].add(_monomial(ctx, (2, 0), 3, order))
        return terms

    monkeypatch.setattr(mirror, "disc_potential", shifted)
    check = dict(checks.suite(f2, 4))["potential-equality"]
    assert check() == ("disc potential and tilde Hori-Vafa differ in z^(0, -1) "
                       "at (2, 0): 3 != 0")


def _first_failure(ctx, order):
    """The name of the first check that fails, as ``check-all`` stops there."""
    return next((name for name, check in checks.suite(ctx, order) if check()), None)


@pytest.mark.parametrize("name, order, count", [("chain3", 6, 13), ("f2", 8, 1)])
def test_every_single_term_fault_fails_the_suite(request, monkeypatch, name, order, count):
    # roundtrip's first loop, the inverse route of log-identity and the
    # basis-ray coefficients of potential-equality read the solve's own rows,
    # so a fault in one term of delta_l, or of the solve's E_l = 1 + delta_l,
    # must show in a check that does not
    ctx = request.getfixturevalue(name)
    real_delta, real_solve = mirror.delta, mirror._solve
    faults = [(ray, e) for ray in range(ctx.m) for e in real_delta(ctx, ray, order).terms]
    assert len(faults) == count
    for ray, e in faults:
        bump = _monomial(ctx, e, 1, order)

        def faulty(c, r, o, ray=ray, bump=bump):
            d = real_delta(c, r, o)
            return d.add(bump) if r == ray else d

        monkeypatch.setattr(mirror, "delta", faulty)
        assert _first_failure(ctx, order), (ray, e)
    monkeypatch.setattr(mirror, "delta", real_delta)
    W, E, X = real_solve(ctx, order)
    for ray, e in faults:
        bumped = dict(E)
        bumped[ray] = E[ray].add(_monomial(ctx, e, 1, order))
        monkeypatch.setattr(mirror, "_solve", lambda c, o, bumped=bumped: (W, bumped, X))
        assert _first_failure(ctx, order), (ray, e)
