import gc
import json
import random
from fractions import Fraction
from math import factorial

import pytest

from toricmirror import mirror
from toricmirror.series import GradedRing, QSeries, SeriesError, SubstitutionMap, solve_units

W = (1, 1)


def S(terms, order=8, weights=W):
    return QSeries(GradedRing.of(weights), order, terms)


def rand_series(rng, nvars=2, weights=W, order=6, lo=-2, hi=3, zero_const=True):
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        e = tuple(rng.randrange(lo, hi) for _ in range(nvars))
        if zero_const and not any(e):
            continue
        if sum(w * x for w, x in zip(weights, e)) <= 0:
            continue
        terms[e] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return QSeries(GradedRing.of(weights), order, terms)


def test_constructor_drops_zeros_and_high_order():
    f = S({(1, 0): Fraction(0), (0, 1): 1, (9, 0): 7})
    assert f.terms == {(0, 1): Fraction(1)}


def test_weights_must_be_positive():
    with pytest.raises(SeriesError):
        QSeries(GradedRing.of((1, 0)), 4, {})
    with pytest.raises(SeriesError):
        QSeries(GradedRing.of((1, Fraction(-1, 2))), 4, {})


@pytest.mark.parametrize("weights, order", [((True,), 3), ((1,), True), ((1.0,), 3)])
def test_weights_and_orders_are_int_or_fraction(weights, order):
    # bool is an int, but True is not the weight or the order 1, also where
    # the ring of weight 1 is already formed
    QSeries(GradedRing.of((1,)), 3)
    bad = next(v for v in (*weights, order) if type(v) is not int)
    with pytest.raises(SeriesError,
                       match=f"must be int or Fraction, got {type(bad).__name__}"):
        QSeries(GradedRing.of(weights), order)


@pytest.mark.parametrize("exponent", [(True,), (1.0,)], ids=["bool", "float"])
def test_exponent_entries_are_integers(exponent):
    # True is not the exponent 1, as it is not the weight 1
    with pytest.raises(SeriesError, match="exponent entries must be integers"):
        QSeries(GradedRing.of((1,)), 3, {exponent: 1})


@pytest.mark.parametrize("coeff", [True, 1.0, "1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("where", ["term", "scalar"])
def test_coefficients_are_int_or_fraction(coeff, where):
    # True is not the coefficient 1, in a term or as a linear_sum scalar
    ring = GradedRing.of((1,))
    with pytest.raises(SeriesError, match="^coefficient must be an int or Fraction, "
                                          f"got {type(coeff).__name__}$"):
        if where == "term":
            QSeries(ring, 3, {(1,): coeff})
        else:
            QSeries.linear_sum([(QSeries(ring, 3, {(1,): 1}), coeff)], ring, 3)


@pytest.mark.parametrize("build", [
    lambda: QSeries(1, (1,), 3),
    lambda: QSeries((1,), 3),
    lambda: QSeries.one(None, 3),
    lambda: QSeries.linear_sum([], (1,), 3),
], ids=["four-arguments", "weights", "one", "linear-sum"])
def test_a_series_is_built_on_a_ring(build):
    with pytest.raises(SeriesError, match="^a series is built on a GradedRing, got "):
        build()


@pytest.mark.parametrize("use", [
    lambda f, smap, ctx: f.add(3),
    lambda f, smap, ctx: f.sub(3),
    lambda f, smap, ctx: f.mul(3),
    lambda f, smap, ctx: QSeries.linear_sum([(3, 1)], f.ring, 3),
    lambda f, smap, ctx: f.substitute(3),
    lambda f, smap, ctx: f.substitute(smap.units),
    lambda f, smap, ctx: SubstitutionMap([1]),
    lambda f, smap, ctx: SubstitutionMap(f),
    lambda f, smap, ctx: smap.compose(3),
    lambda f, smap, ctx: mirror.divisor_derivative(ctx, 1, 3),
    lambda f, smap, ctx: mirror.compose_with_inverse(ctx, 3),
], ids=["add", "sub", "mul", "linear-sum", "substitute", "substitute-units", "map-unit",
        "map-of-a-series", "compose", "divisor-derivative", "compose-with-inverse"])
def test_an_operand_that_is_not_a_series_raises(use, f2):
    f = QSeries(f2.ring, 3, {(1, 0): 1})
    smap = SubstitutionMap([QSeries.one(f2.ring, 3)] * 2)
    with pytest.raises(SeriesError, match=r"^(expected a \w+|a substitution map takes a "
                                          r"sequence of series), got (int|tuple|QSeries)$"):
        use(f, smap, f2)


@pytest.mark.parametrize("weights", [1, (), [], {2, 1}, {1: 0, 2: 0}, iter((1, 2))],
                         ids=["int", "tuple", "list", "set", "dict", "iterator"])
def test_a_ring_needs_a_nonempty_weight_sequence(weights):
    # a set, a dict's keys or an iterator fix no order of the variables
    with pytest.raises(SeriesError, match="^weights must be a"):
        GradedRing.of(weights)


@pytest.mark.parametrize("k", [True, False, 2.0, Fraction(2)],
                         ids=["true", "false", "float", "fraction"])
def test_a_power_is_an_int(k):
    q = S({(1, 0): 1})
    with pytest.raises(SeriesError, match=f"^a power must be an int, got {type(k).__name__}$"):
        q.npow(k)


@pytest.mark.parametrize("what, use", [
    ("exp", lambda tail: tail.exp()),
    ("log", lambda tail: tail.add(S({(0, 0): 1})).log()),
    ("recip", lambda tail: tail.add(S({(0, 0): 1})).recip()),
    ("a substitution factor", lambda tail: SubstitutionMap([tail.add(S({(0, 0): 1}))] * 2)),
], ids=["exp", "log", "recip", "map"])
@pytest.mark.parametrize("exponent", [(1, -1), (1, -2)], ids=["level-0", "negative"])
def test_one_tail_check_names_the_operation(what, use, exponent):
    with pytest.raises(SeriesError, match=f"^{what} needs every non-constant term "
                                          f"at positive degree$"):
        use(S({(1, 0): 1, exponent: 1}))


def test_fractional_weights_bound_the_support():
    f = QSeries(GradedRing.of((Fraction(1, 2), 3)), 4, {(8, 0): 1, (9, 0): 1, (0, 1): 1})
    # degree of (9,0) is 9/2 > 4, so it is cut
    assert set(f.terms) == {(8, 0), (0, 1)}
    assert f.min_degree() == 3


def test_add_cancels_exactly():
    f = S({(1, 0): Fraction(2, 3), (0, 2): -1})
    assert f.add(f.neg()).is_zero()
    assert f.sub(f).terms == {}


def test_mul_truncates_to_order():
    u = S({(0, 0): 1, (1, 0): 1}, order=1)
    sq = u.mul(u)
    assert sq.terms == {(0, 0): Fraction(1), (1, 0): Fraction(2)}


def test_shape_mismatch_raises():
    f = S({(1, 0): 1})
    g = QSeries(GradedRing.of((1, 2)), 8, {(1, 0): 1})
    with pytest.raises(SeriesError):
        f.add(g)
    with pytest.raises(SeriesError):
        f.mul(QSeries(GradedRing.of((1, 1, 1)), 8, {}))
    with pytest.raises(SeriesError, match="another shape"):
        QSeries.linear_sum([(f, 1), (g, 1)], GradedRing.of(W), 8)
    # a map's units share one ring, so its first unit names the map's shape
    two = SubstitutionMap((QSeries.one(GradedRing.of(W), 8),) * 2)
    three = SubstitutionMap((QSeries.one(GradedRing.of((1, 1, 1)), 8),) * 3)
    heavy = SubstitutionMap((QSeries.one(GradedRing.of((1, 2)), 8),) * 2)
    cases = [(lambda: f.substitute(three), "variable count mismatch"),
             (lambda: two.compose(three), "variable count mismatch"),
             (lambda: three.compose(two), "variable count mismatch"),
             (lambda: f.substitute(heavy), "grading weight mismatch"),
             (lambda: two.compose(heavy), "grading weight mismatch")]
    for call, message in cases:
        with pytest.raises(SeriesError, match=message):
            call()


def test_geometric_reciprocal():
    u = S({(0, 0): 1, (1, 0): -1})
    r = u.recip()
    assert all(r.coefficient((k, 0)) == 1 for k in range(9))
    assert u.mul(r) == QSeries.one(GradedRing.of(W), 8)


def test_recip_needs_a_unit():
    with pytest.raises(SeriesError):
        S({(1, 0): 1}).recip()


def test_npow_matches_repeated_mul():
    u = S({(0, 0): 1, (1, 0): 2, (0, 1): Fraction(-1, 3)})
    assert u.npow(3) == u.mul(u).mul(u)
    assert u.npow(0) == QSeries.one(GradedRing.of(W), 8)
    assert u.npow(-2) == u.recip().mul(u.recip())


def test_npow_matches_repeated_mul_and_recip_and_is_memoised():
    u = S({(0, 0): 1, (1, 0): 2, (0, 1): Fraction(-1, 3)}, order=5)
    one, r = S({(0, 0): 1}, order=5), u.recip()
    expected = {0: one, 1: u, -1: r}
    for k in range(2, 6):
        expected[k], expected[-k] = expected[k - 1].mul(u), expected[1 - k].mul(r)
    for k in (3, -2, 0, 1, -1, 2, -3, 5, -5, 4, -4):
        assert u.npow(k) == expected[k]
        assert u.npow(k) is u.npow(k)
    assert u.npow(1) is u
    assert u.npow(-1).mul(u) == one
    t = u.truncate(2)           # another order: the cache is not carried over
    assert t.npow(3) == t.mul(t).mul(t) != u.npow(3)


def test_npow_forms_each_power_once_with_few_products(monkeypatch):
    calls = {"mul": 0, "recip": 0}
    for name in calls:
        real = getattr(QSeries, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(QSeries, name, counting)
    u = S({(0, 0): 1, (1, 0): 1, (0, 1): 2}, order=3)
    u.npow(1024)                # a lone power: ten squarings
    assert calls == {"mul": 10, "recip": 0}
    u.npow(1025)                # one step from a kept power
    for k in range(-1, -9, -1):
        u.npow(k)               # a run: one reciprocal, then one product each
    assert calls == {"mul": 11 + 7, "recip": 1}
    for k in (1024, 1025, 512, 2, -1, -8, 0, 1):
        u.npow(k)
    assert calls == {"mul": 18, "recip": 1}


def test_npow_of_large_exponents_matches_the_binomial_form():
    # (1 + q2)^k cut at degree 2 is 1 + k q2 + k(k-1)/2 q2^2 for every integer k
    u = S({(0, 0): 1, (0, 1): 1}, order=2)
    for k in (1100, -1100, 10 ** 9 + 7, -(10 ** 9 + 7)):
        assert u.npow(k).terms == {(0, 0): 1, (0, 1): k, (0, 2): k * (k - 1) // 2}


def test_dropping_a_series_with_cached_powers_leaves_no_cycle():
    gc.collect()
    gc.disable()
    try:
        u = S({(0, 0): 1, (1, 0): 2, (0, 1): 1}, order=4)
        for k in (0, 1, -1, 2, 5, -3):
            u.npow(k)
        del u
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_substitute_a_monomial_of_large_exponent():
    f = S({(1100, 0): 1}, order=1200)
    m = SubstitutionMap((S({(0, 0): 1, (0, 50): 1}, order=1200), S({(0, 0): 1}, order=1200)))
    assert f.substitute(m).terms == {(1100, 0): 1, (1100, 50): 1100, (1100, 100): 1100 * 1099 // 2}


def test_exp_coefficients_are_inverse_factorials():
    from math import factorial
    e = S({(1, 0): 1}).exp()
    for k in range(9):
        assert e.coefficient((k, 0)) == Fraction(1, factorial(k))


def test_log_of_geometric_series():
    u = S({(0, 0): 1, (1, 0): -1}).recip()   # 1/(1-q1)
    lg = u.log()
    for k in range(1, 9):
        assert lg.coefficient((k, 0)) == Fraction(1, k)


def test_exp_log_are_inverse():
    rng = random.Random(7)
    for _ in range(12):
        f = rand_series(rng)
        assert f.exp().log() == f
        assert f.exp().recip() == f.neg().exp()


def test_exp_is_additive():
    rng = random.Random(8)
    for _ in range(8):
        f, g = rand_series(rng), rand_series(rng)
        assert f.exp().mul(g.exp()) == f.add(g).exp()


def test_exp_rejects_nonzero_constant():
    with pytest.raises(SeriesError):
        S({(0, 0): 1, (1, 0): 1}).exp()


def test_log_rejects_constant_not_one():
    with pytest.raises(SeriesError):
        S({(0, 0): 2, (1, 0): 1}).log()
    with pytest.raises(SeriesError):
        S({(1, 0): 1}).log()


def test_shift_multiplies_by_a_monomial():
    f = S({(1, 0): 1, (0, 1): 3})
    g = QSeries.linear_sum([(f.shift((-1, 1)), Fraction(1, 2))], GradedRing.of(W), 8)
    assert g.terms == {(0, 1): Fraction(1, 2), (-1, 2): Fraction(3, 2)}
    # a monomial above the order still brings terms of negative degree into it
    low = S({(-2, 0): 1, (1, 0): 1}, order=2)
    assert low.shift((4, 0)).terms == {(2, 0): 1}


def test_negative_exponents_weigh_in():
    # weights (1,3): the monomial q1^-1 q2 has degree 2 and survives order 2
    f = QSeries(GradedRing.of((1, 3)), 2, {(-1, 1): 1, (1, 1): 1})
    assert f.terms == {(-1, 1): Fraction(1)}
    assert f.degree((-1, 1)) == 2


def test_truncate_and_coefficient():
    f = S({(1, 0): 1, (2, 0): 2, (3, 0): 3})
    t = f.truncate(2)
    assert t.order == 2 and set(t.terms) == {(1, 0), (2, 0)}
    # a series is never declared exact beyond its own order
    assert QSeries(GradedRing.of((1,)), 2, {(1,): 1}).truncate(5).order == 2
    assert f.coefficient((5, 5)) == 0
    assert f.constant_term() == 0


def test_substitute_identity_is_noop():
    rng = random.Random(9)
    ident = SubstitutionMap(units=(QSeries.one(GradedRing.of(W), 6),) * 2)
    for _ in range(6):
        f = rand_series(rng)
        assert f.substitute(ident) == f


def rand_unit_map(rng, nvars=2, weights=W, order=6):
    units = []
    for _ in range(nvars):
        u = rand_series(rng, nvars, weights, order)
        units.append(u.add(QSeries.one(GradedRing.of(weights), order)))
    return SubstitutionMap(tuple(units))


def test_compose_agrees_with_sequential_apply():
    rng = random.Random(10)
    for _ in range(6):
        outer, inner = rand_unit_map(rng), rand_unit_map(rng)
        f = rand_series(rng)
        assert f.substitute(outer.compose(inner)) == f.substitute(outer).substitute(inner)


def test_substitution_map_requires_unit_factors():
    bad = S({(1, 0): 1})
    with pytest.raises(SeriesError):
        SubstitutionMap((bad, bad))
    with pytest.raises(SeriesError):
        SubstitutionMap(units=[S({(0, 0): 1}), bad])
    with pytest.raises(SeriesError):
        SubstitutionMap(())
    with pytest.raises(SeriesError):
        SubstitutionMap(units=[S({(0, 0): 1, (1, -1): 1}), S({(0, 0): 1})])
    # one unit for two variables: refused when built, not when first used
    with pytest.raises(SeriesError, match="2 variables"):
        SubstitutionMap(units=[S({(0, 0): 1})])


def test_revert_rejects_units_of_different_shapes():
    # units of different gradings cannot be inverted together, so the map refuses them when built
    with pytest.raises(SeriesError, match="grading weight mismatch"):
        SubstitutionMap((S({(0, 0): 1, (1, 0): 1}), S({(0, 0): 1}, weights=(1, 2))))


def test_records_roundtrip_graded_lex():
    f = S({(0, 1): Fraction(-1, 2), (1, 0): 1, (2, -1): 5})
    recs = f.to_records()
    assert recs == [
        {"exponent": [0, 1], "num": -1, "den": 2},
        {"exponent": [1, 0], "num": 1, "den": 1},
        {"exponent": [2, -1], "num": 5, "den": 1},
    ]


def test_to_text():
    # graded-lex: q1^-1 q2 has degree 0 and sorts before the constant
    f = S({(0, 0): 1, (1, 0): 2, (1, 2): Fraction(-3, 2), (-1, 1): 1})
    assert f.to_text() == "q1^-1 q2 + 1 + 2·q1 - 3/2·q1 q2^2"
    assert S({}).to_text() == "0"
    assert S({(1, 0): -1}).to_text(var="t") == "-t1"


def test_eq_ignores_truncation_metadata():
    a = S({(1, 0): 1}, order=4)
    b = S({(1, 0): 1}, order=9)
    assert a == b
    assert a != S({(1, 0): 2}, order=4)


def test_eq_across_rings_compares_terms_and_variable_count():
    # equality of stored truncations: the weights are not compared, the
    # variable count is, and a series is never equal to a number
    f = QSeries(GradedRing.of((1,)), 3, {(1,): 1})
    assert f == QSeries(GradedRing.of((2,)), 3, {(1,): 1})
    assert f != QSeries(GradedRing.of((1, 1)), 3, {(1, 0): 1})
    assert (f == 1) is False


# ------------------------------------------------- int-first coefficient type

def assert_int_first(f):
    """Integral coefficients are ``int``; the rest are non-integral Fractions."""
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_integral_fraction_input_is_stored_as_int():
    e = (1, 2)
    a, b = S({e: 3}), S({e: Fraction(3)})
    assert a == b
    assert type(b.coefficient(e)) is int
    assert type(QSeries(GradedRing.of(W), 8, {(0, 0): Fraction(4, 2)}).constant_term()) is int
    assert type(QSeries(GradedRing.of(W), 8, {e: Fraction(-6, 3)}).coefficient(e)) is int
    assert type(S({}).coefficient(e)) is int


def test_records_and_text_do_not_depend_on_input_type():
    ints = {(0, 0): 1, (1, 0): -2, (0, 1): Fraction(1, 2), (1, 1): 7}
    fracs = {e: Fraction(c) for e, c in ints.items()}
    a, b = S(ints), S(fracs)
    assert a.to_records() == b.to_records()
    assert json.dumps(a.to_records()) == json.dumps(b.to_records())
    assert a.to_text() == b.to_text() == "1 + 1/2·q2 - 2·q1 + 7·q1 q2"


def test_operations_keep_integral_coefficients_int():
    half = Fraction(1, 2)
    f = S({(0, 0): half, (1, 0): half})              # 1/2 + 1/2 q1
    g = S({(0, 0): Fraction(2), (1, 0): 2})          # 2 + 2 q1
    u = S({(0, 0): 1, (1, 0): half, (0, 1): Fraction(3)})
    t = S({(1, 0): Fraction(1), (0, 1): half})
    smap = SubstitutionMap((S({(0, 0): 1, (0, 1): Fraction(1)}),
                            S({(0, 0): 1, (1, 0): half})))
    product = f.mul(g)
    # 1/2·2 + 1/2·2 sums two Fractions to an integer
    assert product.terms == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    results = [product, t.exp(), u.log(), u.recip(), u.npow(3), u.npow(-2),
               f.substitute(smap), u.substitute(smap),
               QSeries.linear_sum([(f, Fraction(4))], GradedRing.of(W), 8),
               QSeries.linear_sum([(f, half)], GradedRing.of(W), 8),
               QSeries.linear_sum([(f.shift((0, 1)), Fraction(6, 3))], GradedRing.of(W), 8),
               QSeries.linear_sum([(f, 2), (t, half)], GradedRing.of(W), 8)]
    for r in results:
        assert r.terms
        assert_int_first(r)
    assert any(type(c) is int for r in results for c in r.terms.values())
    assert any(type(c) is Fraction for r in results for c in r.terms.values())


def test_random_arithmetic_stays_int_first():
    rng = random.Random(12)
    for _ in range(8):
        f, g = rand_series(rng), rand_series(rng)
        for r in (f.mul(g), f.exp(), f.exp().log(), f.add(g), f.exp().recip()):
            assert_int_first(r)


# ------------------------------------------------------- packed monomial keys

def ref_degree(weights, e):
    return sum((Fraction(w) * x for w, x in zip(weights, e)), Fraction(0))


def ref_cut(weights, terms, order):
    return {e: c for e, c in terms.items() if c and ref_degree(weights, e) <= order}


def ref_add(weights, a, b, order):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_cut(weights, out, order)


def ref_mul(weights, a, b, order):
    """Plain tuple-keyed convolution with a degree filter."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_cut(weights, out, order)


def ref_power_sum(weights, t, coeffs, order):
    """``sum_i coeffs(i) t^i`` for a tail ``t`` of positive degree."""
    out, power, i = {}, {(0,) * len(weights): Fraction(1)}, 0
    while power:
        out = ref_add(weights, out, {e: coeffs(i) * c for e, c in power.items()}, order)
        power, i = ref_mul(weights, power, t, order), i + 1
    return out


def ref_recip(weights, u, order):
    zero = (0,) * len(weights)
    c0 = Fraction(u[zero])
    t = {e: -c / c0 for e, c in u.items() if e != zero}
    return ref_power_sum(weights, t, lambda i: 1 / c0, order)


def rand_laurent(rng, weights, lo=-3, hi=5, positive=True, size=5):
    """Terms with negative entries allowed; every degree is > 0 (or >= 0)."""
    terms = {}
    while len(terms) < size:
        e = tuple(rng.randrange(lo, hi) for _ in weights)
        d = ref_degree(weights, e)
        if d > 0 or (not positive and d == 0 and any(e)):
            terms[e] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return {e: c for e, c in terms.items() if c}


PACKING_SHAPES = [(1, 1), (1, 3), (Fraction(1, 2), 3), (Fraction(2, 3), 1, Fraction(5, 2))]


@pytest.mark.parametrize("weights", PACKING_SHAPES, ids=str)
def test_packed_arithmetic_matches_tuple_reference(weights):
    rng = random.Random(2007)
    ring = GradedRing.of(weights)
    zero = (0,) * ring.nvars
    for order in (Fraction(4), Fraction(7, 2)):
        for _ in range(6):
            a, b = rand_laurent(rng, weights), rand_laurent(rng, weights, positive=False)
            fa, fb = QSeries(ring, order, a), QSeries(ring, order, b)
            high = QSeries(ring, order + 1, a)
            a, b = ref_cut(weights, a, order), ref_cut(weights, b, order)
            minus_b = {e: -c for e, c in b.items()}
            assert fa.terms == a and fb.terms == b
            assert fa.mul(fb).terms == ref_mul(weights, a, b, order)
            assert fa.add(fb).terms == ref_add(weights, a, b, order)
            assert fa.sub(fb).terms == ref_add(weights, a, minus_b, order)
            low = order - 1
            assert fa.truncate(low).terms == ref_cut(weights, a, low)
            # a sum of two orders is exact to, and cut at, the lower one
            for got in (fa.add(fb.truncate(low)), fa.truncate(low).add(fb)):
                assert got.order == low and got.terms == ref_add(weights, a, b, low)
            got = high.sub(fb)
            assert got.order == order and got.terms == ref_add(weights, a, minus_b, order)
            # linear_sum: a part of higher order is cut, one of lower order
            # lowers the result's order
            half_b = {e: Fraction(-1, 2) * c for e, c in b.items()}
            got = QSeries.linear_sum([(high, 3), (fb, Fraction(-1, 2))], ring, order)
            assert got.order == order and got.terms == ref_add(
                weights, {e: 3 * c for e, c in a.items()}, half_b, order)
            got = QSeries.linear_sum([(fa, 1), (fb.truncate(low), 1)], ring, order)
            assert got.order == low and got.terms == ref_add(weights, a, b, low)
            s = tuple(rng.randrange(-2, 3) for _ in weights)
            scaled = QSeries.linear_sum([(fa.shift(s), Fraction(3, 2))], ring, order)
            assert scaled.terms == ref_cut(
                weights, {tuple(x + y for x, y in zip(e, s)): Fraction(3, 2) * c
                          for e, c in a.items()}, order)
            ref_exp = ref_power_sum(weights, a, lambda i: Fraction(1, factorial(i)), order)
            assert fa.exp().terms == ref_exp
            unit = ref_add(weights, {zero: 1}, a, order)
            ref_log = ref_power_sum(weights, a, lambda i: Fraction((-1) ** (i + 1), i) if i
                                    else 0, order)
            assert QSeries(ring, order, unit).log().terms == ref_log
            scaled = ref_add(weights, {zero: Fraction(2, 5)}, a, order)
            assert (QSeries(ring, order, scaled).recip().terms
                    == ref_recip(weights, scaled, order))


@pytest.mark.parametrize("weights", PACKING_SHAPES, ids=str)
def test_packed_substitution_matches_tuple_reference(weights):
    rng = random.Random(2008)
    ring = GradedRing.of(weights)
    zero = (0,) * ring.nvars
    order = Fraction(7, 2)
    for _ in range(3):
        units = [ref_add(weights, {zero: 1}, rand_laurent(rng, weights, size=3), order)
                 for _ in weights]
        inverses = [ref_recip(weights, u, order) for u in units]
        f = ref_cut(weights, rand_laurent(rng, weights, positive=False, size=4), order)
        expected = {}
        for e, c in f.items():
            image = {e: c}
            for k, x in enumerate(e):
                for _ in range(abs(x)):
                    image = ref_mul(weights, image, units[k] if x > 0 else inverses[k], order)
            expected = ref_add(weights, expected, image, order)
        smap = SubstitutionMap(tuple(QSeries(ring, order, u) for u in units))
        assert QSeries(ring, order, f).substitute(smap).terms == expected


def test_exponents_outside_the_packed_field_raise():
    limit = 1 << 15
    for bad in (limit, -limit):
        with pytest.raises(SeriesError, match="packed field"):
            QSeries(GradedRing.of(W), 4, {(bad, 0): 1})
    order = 1 << 16
    up = QSeries(GradedRing.of(W), order, {(1 << 14, 0): 1})
    with pytest.raises(SeriesError, match="packed field"):
        up.mul(up)
    down = QSeries(GradedRing.of(W), order, {(-(1 << 14), 0): 1})
    with pytest.raises(SeriesError, match="packed field"):
        down.mul(down)
    with pytest.raises(SeriesError, match="packed field"):
        up.shift((1 << 14, 0))


def test_exp_log_recip_raise_where_a_sum_of_terms_could_leave_the_field():
    # with f = q1^(2^13), an order that admits f^4 = q1^(2^15) keeps a term
    # of exp(f), log(1 + f), 1/(1 + f) and f(q1 (1 + f)) outside the field
    big = 1 << 13
    order = 4 * big

    def substitute(f, unit):
        return f.substitute(SubstitutionMap((unit, S({(0, 0): 1}, order))))

    f = S({(big, 0): 1}, order)
    unit = S({(0, 0): 1, (big, 0): 1}, order)
    for kernel in (f.exp, unit.log, unit.recip, lambda: unit.npow(-1),
                   lambda: substitute(f, unit)):
        with pytest.raises(SeriesError, match="packed field"):
            kernel()
    # one degree lower admits only the cube, and every kernel is exact
    order -= 1
    f, unit = S({(big, 0): 1}, order), S({(0, 0): 1, (big, 0): 1}, order)
    powers = [(k * big, 0) for k in range(4)]
    assert f.exp().terms == dict(zip(powers, (1, 1, Fraction(1, 2), Fraction(1, 6))))
    assert unit.log().terms == dict(zip(powers[1:], (1, Fraction(-1, 2), Fraction(1, 3))))
    assert unit.recip().terms == dict(zip(powers, (1, -1, 1, -1)))
    assert unit.npow(-1).terms == dict(zip(powers, (1, -1, 1, -1)))
    # q1^big (1 + q1^big)^big, cut below q1^(4 big)
    assert substitute(f, unit).terms == dict(zip(powers[1:], (1, big, big * (big - 1) // 2)))


@pytest.mark.parametrize("weights", [(1,), (1, 1), (Fraction(1, 2), 3),
                                     (1, Fraction(2, 3), Fraction(5, 2))])
def test_ring_check_is_exact_at_the_field_boundaries(weights):
    # a key k1 + k2 - bias of two stored keys passes exactly when every
    # entry of e1 + e2 lies strictly between -2^15 and 2^15, in the top
    # field (under the level), a middle one and the bottom one, whatever its
    # neighbours hold; -2^15 leaves a zero field, which only k - ones shows
    ring = GradedRing.of(weights)
    limit = 1 << 15
    for k in range(ring.nvars):
        for rest in (-(limit - 1), 0, limit - 1):
            for total in (limit - 1, -(limit - 1), limit, -limit, 2 * limit - 2, 2 - 2 * limit):
                e = [rest] * ring.nvars
                e[k] = total
                e1 = [x - x // 2 for x in e]
                e2 = [x // 2 for x in e]
                key = ring.key(e1) + ring.key(e2) - ring.bias
                if abs(total) < limit:
                    ring.check([key])
                    assert ring.exponent(key) == tuple(e)
                else:
                    with pytest.raises(SeriesError, match="packed field"):
                        ring.check([ring.bias, key, ring.key(e1)])
    ring.check([])


def test_solve_raises_where_a_kept_exponent_leaves_the_field():
    # W = q^d exp(W) with d = (2^14, 1 - 2^14) of level 1: level 2 holds
    # q^(2d), whose first entry is 2^15
    ring = GradedRing.of((1, 1))
    d = (1 << 14, 1 - (1 << 14))
    sources = {0: [(d, 1, 1, (1,))]}
    W, E, _ = solve_units(ring, Fraction(1), sources)
    assert W[0].terms == {d: 1} and E[0].terms == {(0, 0): 1, d: 1}
    with pytest.raises(SeriesError, match="packed field"):
        solve_units(ring, Fraction(2), sources)


def test_products_near_the_field_limit_do_not_raise():
    limit = 1 << 15
    order = 1 << 16
    near = QSeries(GradedRing.of(W), order, {((1 << 14) - 1, 0): 1})
    assert near.mul(near).terms == {(limit - 2, 0): 1}
    up = QSeries(GradedRing.of(W), order, {(1 << 14, 0): 1})
    assert up.mul(near).terms == {(limit - 1, 0): 1}
    # the bounds sum past the limit, but the only pair that would leave the
    # field lies above the order and is never formed
    a = QSeries(GradedRing.of(W), 20001, {(20000, 0): 1, (0, 1): 2})
    assert a.mul(a).terms == {(0, 2): 4, (20000, 1): 4}
    # (33000, 0) leaves the field, but at degree 33000 it is cut
    assert a.shift((13000, 0)).terms == {(13000, 1): 2}


def test_terms_view_is_tuple_keyed_in_degree_then_exponent_order():
    # equal weights: the packed keys put (0, 1) before (1, 0), as the
    # canonical (degree, exponent tuple) order does
    f = S({(1, 0): 3, (0, 1): Fraction(1, 2), (-1, 1): 5, (2, 0): 1})
    assert f.ring.key((0, 1)) < f.ring.key((1, 0))
    assert list(f.terms) == [(-1, 1), (0, 1), (1, 0), (2, 0)]
    assert all(type(e) is tuple for e in f.mul(f).terms)
    assert [r["exponent"] for r in f.to_records()] == [[-1, 1], [0, 1], [1, 0], [2, 0]]
    assert f.to_text() == "5·q1^-1 q2 + 1/2·q2 + 3·q1 + q1^2"
