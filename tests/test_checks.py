"""The invariant suite as a library: names, order and failure details."""

from toricmirror import checks, mirror, oracle
from toricmirror.mirror import DivisorSeries
from toricmirror.series import QSeries

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
        coeffs = list(real(ctx, order).coeffs)
        coeffs[0] = QSeries.one(ctx.rank, ctx.ample_weight, order)
        return DivisorSeries(tuple(coeffs))

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
