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
    # adding q1 to every composition leaves the generic round trip alone, as
    # it composes no row sum; the inverse route of log-identity is the first
    # check to see it: (1 + delta_1) exp(-(W_1 + q1)) = exp(-q1)
    real = mirror.compose_with_inverse

    def shifted(ctx, f):
        out = real(ctx, f)
        return out.add(_monomial(ctx, (1, 0), 1, out.order))

    monkeypatch.setattr(mirror, "compose_with_inverse", shifted)
    suite = dict(checks.suite(f2, 4))
    assert suite["roundtrip"]() is None
    assert _first_failure(f2, 4) == "log-identity"
    assert suite["log-identity"]() == "ray 1: (1+delta)exp(-g(qc(q))) != 1 at (1, 0): -1 != 0"


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


def _bump(s, e):
    """``s`` plus the monomial ``q^e``, at the order of ``s``."""
    return s.add(QSeries(s.nvars, s.weights, s.order, {e: 1}))


def _on_output(real, e, pick=lambda *args: True):
    """``real`` with ``q^e`` added to each output whose arguments ``pick`` takes."""
    def faulty(*args):
        out = real(*args)
        return _bump(out, e) if pick(*args) else out
    return faulty


def _on_part(real, part, key, change):
    """``real`` (the solve) with ``change`` applied to ``[part][key]`` of its result."""
    def faulty(ctx, order):
        parts = list(real(ctx, order))
        parts[part] = {**parts[part], key: change(parts[part][key])}
        return tuple(parts)
    return faulty


def _on_unit(real, k, e):
    """``real`` (a substitution map builder) with ``q^e`` added to unit ``k``."""
    def faulty(ctx, order):
        units = list(real(ctx, order).units)
        units[k] = _bump(units[k], e)
        return SubstitutionMap(units=tuple(units))
    return faulty


def _lowest(s):
    """The lowest term of ``s`` that is not constant."""
    return next(e for e in s.terms if any(e))


def _faults(ctx, order):
    """``(family, owner, name, replacement)`` for each single-term fault.

    ``delta`` and ``E`` bump every term of every ``delta_l``.  The other rows
    of the solve, the series builders and the maps' units bump the lowest
    term of each of their series; ``X`` bumps the lowest key of one level of
    the lowest row that the row sum reads, at most ``top - wt_d``; the
    compositions and the series operations add the lowest class row to every
    output.
    """
    W, E, X = mirror._solve(ctx, order)
    row = min(X)
    n = min(n for n in X[row] if 0 < n <= ctx.ring.level(order) - (row >> ctx.ring.shift))
    key = min(X[row][n])
    low = ctx.ring.exponent(row)
    faults = []
    for ray in range(ctx.m):
        for e in mirror.delta(ctx, ray, order).terms:
            faults.append(("delta", mirror, "delta",
                           _on_output(mirror.delta, e, lambda c, r, o, ray=ray: r == ray)))
            faults.append(("E", mirror, "_solve",
                           _on_part(mirror._solve, 1, ray, lambda s, e=e: _bump(s, e))))
    for l, w in W.items():
        faults.append(("W", mirror, "_solve",
                       _on_part(mirror._solve, 0, l, lambda s, e=_lowest(w): _bump(s, e))))
    faults.append(("X", mirror, "_solve", _on_part(
        mirror._solve, 2, row, lambda x: {**x, n: {**x[n], key: x[n][key] + 1}})))
    faults.append(("compose", mirror, "compose_with_inverse",
                   _on_output(mirror.compose_with_inverse, low)))
    for i in range(ctx.m):
        g = mirror.g_function(ctx, i, order)
        if g.is_zero():
            continue
        faults.append(("g", mirror, "g_function", _on_output(
            mirror.g_function, _lowest(g), lambda c, r, o, i=i: r == i)))
        j = next(j for j in range(ctx.m) if not mirror.g_ij(ctx, i, j, order).is_zero())
        faults.append(("g_ij", mirror, "g_ij", _on_output(
            mirror.g_ij, _lowest(mirror.g_ij(ctx, i, j, order)),
            lambda c, a, b, o, ij=(i, j): (a, b) == ij)))
    for family, builder in (("mirror unit", "mirror_map"),
                            ("inverse unit", "inverse_mirror_map")):
        real = getattr(mirror, builder)
        for k, unit in enumerate(real(ctx, order).units):
            faults.append((family, mirror, builder, _on_unit(real, k, _lowest(unit))))
    for op in ("exp", "log", "recip", "npow", "substitute"):
        faults.append((op, QSeries, op, _on_output(getattr(QSeries, op), low)))
    return faults


# For each fan and fault family of _faults: the number of faults, and for
# each check of NAMES, in this order, the number of them it catches.
#                             rt  pi  li  di  or  pe  sv  ef  ft
MATRIX = {
    "f2": {
        "delta":        ( 1, ( 0,  1,  1,  0,  0,  0,  0,  0,  0)),
        "E":            ( 1, ( 0,  1,  1,  0,  0,  1,  0,  0,  0)),
        "W":            ( 1, ( 1,  1,  0,  0,  0,  1,  0,  0,  0)),
        "X":            ( 1, ( 0,  0,  1,  1,  0,  1,  0,  0,  0)),
        "compose":      ( 1, ( 0,  0,  1,  1,  0,  1,  0,  0,  0)),
        "g":            ( 1, ( 1,  0,  1,  1,  1,  1,  0,  0,  0)),
        "g_ij":         ( 1, ( 0,  0,  0,  1,  0,  0,  0,  0,  0)),
        "mirror unit":  ( 2, ( 2,  0,  1,  0,  0,  0,  0,  2,  0)),
        "inverse unit": ( 2, ( 2,  2,  0,  0,  0,  2,  0,  0,  0)),
        "exp":          ( 1, ( 1,  1,  1,  0,  0,  1,  0,  1,  0)),
        "log":          ( 1, ( 0,  0,  0,  0,  0,  0,  0,  0,  0)),
        "recip":        ( 1, ( 0,  1,  0,  0,  0,  1,  0,  1,  0)),
        "npow":         ( 1, ( 1,  1,  1,  0,  0,  1,  0,  1,  0)),
        "substitute":   ( 1, ( 1,  0,  1,  0,  0,  0,  0,  0,  0)),
    },
    "chain3": {
        "delta":        (13, ( 0, 13, 13,  0,  0,  0,  0,  0,  0)),
        "E":            (13, ( 0, 13, 13,  0,  0, 13,  0,  0,  0)),
        "W":            ( 5, ( 5,  5,  0,  0,  0,  5,  0,  0,  0)),
        "X":            ( 1, ( 0,  0,  1,  1,  0,  0,  0,  0,  0)),
        "compose":      ( 1, ( 0,  0,  1,  1,  0,  1,  0,  0,  0)),
        "g":            ( 5, ( 5,  0,  5,  5,  5,  1,  0,  0,  0)),
        "g_ij":         ( 5, ( 0,  0,  0,  5,  0,  0,  0,  0,  0)),
        "mirror unit":  ( 6, ( 6,  0,  6,  0,  0,  0,  0,  6,  0)),
        "inverse unit": ( 6, ( 6,  6,  0,  0,  0,  5,  0,  0,  0)),
        "exp":          ( 1, ( 1,  1,  1,  0,  0,  1,  0,  1,  0)),
        "log":          ( 1, ( 0,  0,  0,  0,  0,  0,  0,  0,  0)),
        "recip":        ( 1, ( 1,  1,  1,  0,  0,  1,  0,  1,  0)),
        "npow":         ( 1, ( 1,  1,  1,  0,  0,  1,  0,  1,  0)),
        "substitute":   ( 1, ( 1,  0,  1,  0,  0,  0,  0,  0,  0)),
    },
}


@pytest.mark.parametrize("name, order", [("f2", 8), ("chain3", 6)])
def test_fault_matrix(request, load, monkeypatch, name, order):
    # each fault runs on a fresh context, so that no memo entry formed before
    # the patch serves it
    found = {}
    for family, owner, attr, faulty in _faults(request.getfixturevalue(name), order):
        ctx = load(name)
        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, faulty)
            hits = [bool(check()) for _, check in checks.suite(ctx, order)]
        # the suite fails on every fault but those of log, which no engine
        # output reads
        assert any(hits) == (family != "log"), family
        count, caught = found.get(family, (0, (0,) * len(NAMES)))
        found[family] = (count + 1, tuple(map(sum, zip(caught, hits))))
    assert found == MATRIX[name]
    # two checks or more catch each family, but g_ij, whose faults only
    # derivative-identity sees, and log
    assert {family for family, (_, caught) in found.items()
            if sum(map(bool, caught)) < 2} == {"g_ij", "log"}
