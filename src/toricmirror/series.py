"""Truncated multivariate formal power series over exact rationals.

A :class:`QSeries` stores finitely many terms ``coeff * q^e`` where ``e`` is
an integer exponent vector (negative entries are allowed) and ``coeff`` is
exact: an ``int`` when it is integral, otherwise a non-integral
:class:`fractions.Fraction`, never a float.  Truncation is governed by a
fixed strictly positive weight vector: a series of order ``N`` keeps exactly
the terms whose weighted degree ``w . e`` is ``<= N``.  All arithmetic is
exact — nothing is ever rounded, and a coefficient that cancels to zero is
removed from the term map, so two equal series always compare equal.

Weighted truncation is what makes the mirror-map pipeline terminate: every
series produced by the engine is supported on a pointed monoid of exponent
vectors on which the weight is strictly positive, so each degree slice is
finite even though individual exponent entries may be negative.

:class:`SubstitutionMap` represents a coordinate change of "unit" shape
``q_k -> q_k * u_k(q)`` with ``u_k(0) = 1``.  Maps of this shape form a group
under composition; :meth:`SubstitutionMap.revert` computes the inverse by a
fixed-point iteration that gains one weighted degree per pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, floor
from operator import add as _add, mul as _mul


class SeriesError(ValueError):
    """Raised for malformed series operations (shape or domain mismatch)."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise SeriesError(f"weights and orders must be int or Fraction, got {type(value).__name__}")


def _coeff(value):
    """Normalise a coefficient: ``int`` when integral, else a ``Fraction``."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise SeriesError(f"coefficient must be an int or Fraction, got {type(value).__name__}")


def unit_powers(unit):
    """Memoised signed integer powers ``k -> unit^k`` of one unit series.

    Each power is one product with its neighbour towards zero (``unit`` or
    ``unit^-1``), and the reciprocal is formed at most once.
    """
    cache = {1: unit}

    def power(k: int) -> "QSeries":
        val = cache.get(k)
        if val is None:
            if k > 0:
                val = power(k - 1).mul(unit)
            elif k == 0:
                val = QSeries.one(unit.nvars, unit.weights, unit.order)
            elif k == -1:
                val = unit.recip()
            else:
                val = power(k + 1).mul(power(-1))
            cache[k] = val
        return val

    return power


class QSeries:
    """An exactly-truncated power series in ``nvars`` variables.

    ``weights`` is the strictly positive grading vector and ``order`` the
    truncation bound, both exact rationals.  The instance is immutable by
    convention: all operations return fresh series.
    """

    __slots__ = ("nvars", "weights", "order", "terms", "_bydeg", "_intw")

    def __init__(self, nvars, weights, order, terms=None):
        if len(weights) != nvars:
            raise SeriesError("weight vector length does not match variable count")
        weights = tuple(_as_fraction(w) for w in weights)
        if any(w <= 0 for w in weights):
            raise SeriesError("weights must be strictly positive")
        self.nvars = nvars
        self.weights = weights
        # Integer weights are by far the common case; degree computations sit
        # on the hot path, so keep an all-int copy when possible.
        self._intw = (tuple(int(w) for w in weights)
                      if all(w.denominator == 1 for w in weights) else None)
        self.order = _as_fraction(order)
        limit = self.order if self._intw is None else floor(self.order)
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _coeff(c)
                if not c:
                    continue
                e = tuple(e)
                if len(e) != nvars:
                    raise SeriesError("exponent length does not match variable count")
                if self.degree(e) <= limit:
                    clean[e] = c
        self.terms = clean
        self._bydeg = None

    # ---------------------------------------------------------------- basics

    def degree(self, exponent):
        """Weighted degree of an exponent vector (int or Fraction)."""
        if self._intw is not None:
            return sum(map(_mul, self._intw, exponent))
        return sum((w * x for w, x in zip(self.weights, exponent)), Fraction(0))

    @classmethod
    def zero(cls, nvars, weights, order):
        return cls(nvars, weights, order)

    @classmethod
    def constant(cls, value, nvars, weights, order):
        return cls(nvars, weights, order, {(0,) * nvars: _coeff(value)})

    @classmethod
    def one(cls, nvars, weights, order):
        return cls.constant(1, nvars, weights, order)

    @classmethod
    def monomial(cls, exponent, coeff, nvars, weights, order):
        return cls(nvars, weights, order, {tuple(exponent): _coeff(coeff)})

    def like(self, terms=None, order=None):
        """A series with the same shape (nvars/weights) as this one."""
        return QSeries(self.nvars, self.weights, self.order if order is None else order, terms)

    def coefficient(self, exponent):
        return self.terms.get(tuple(exponent), 0)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self):
        """Smallest weighted degree present, or None for the zero series."""
        if not self.terms:
            return None
        return min(self.degree(e) for e in self.terms)

    def truncate(self, order):
        order = _as_fraction(order)
        if order >= self.order:
            return QSeries(self.nvars, self.weights, order, self.terms)
        return QSeries(self.nvars, self.weights, order,
                       {e: c for e, c in self.terms.items() if self.degree(e) <= order})

    def _sorted_by_degree(self):
        if self._bydeg is None:
            rows = sorted((self.degree(e), e) for e in self.terms)
            self._bydeg = ([d for d, _ in rows], [e for _, e in rows])
        return self._bydeg

    def _check_shape(self, other):
        if self.nvars != other.nvars:
            raise SeriesError("variable count mismatch")
        if self.weights != other.weights:
            raise SeriesError("grading weight mismatch")

    # ------------------------------------------------------------ arithmetic

    def add(self, other):
        self._check_shape(other)
        order = min(self.order, other.order)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return QSeries(self.nvars, self.weights, order, out)

    def neg(self):
        return QSeries(self.nvars, self.weights, self.order,
                       {e: -c for e, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scalar_mul(self, value):
        value = _coeff(value)
        if not value:
            return QSeries(self.nvars, self.weights, self.order)
        return QSeries(self.nvars, self.weights, self.order,
                       {e: value * c for e, c in self.terms.items()})

    def shift(self, exponent, scalar=1):
        """Multiply by ``scalar * q^exponent`` without a full convolution."""
        exponent = tuple(exponent)
        scalar = _coeff(scalar)
        if not scalar:
            return QSeries(self.nvars, self.weights, self.order)
        return QSeries(self.nvars, self.weights, self.order,
                       {tuple(map(_add, e, exponent)): scalar * c
                        for e, c in self.terms.items()})

    def mul(self, other):
        self._check_shape(other)
        order = min(self.order, other.order)
        # Iterate the smaller support on the outside and cut the inner loop
        # by remaining degree budget; this keeps dense*dense products at the
        # cost of the genuinely contributing pairs only.
        small, big = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        degs, exps = big._sorted_by_degree()
        bigterms = big.terms
        # With integer weights every degree is an int, so the budget is one too.
        limit = order if self._intw is None else floor(order)
        out = {}
        for e1, c1 in small.terms.items():
            hi = bisect_right(degs, limit - small.degree(e1))
            for e2 in exps[:hi]:
                e = tuple(map(_add, e1, e2))
                s = out.get(e, 0) + c1 * bigterms[e2]
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        # Every term is nonzero and within ``order`` by construction; only a
        # sum of Fractions that came out integral needs normalising.
        for e, c in out.items():
            if type(c) is not int and c.denominator == 1:
                out[e] = c.numerator
        product = QSeries.__new__(QSeries)
        product.nvars, product.weights, product._intw = self.nvars, self.weights, self._intw
        product.order, product.terms, product._bydeg = order, out, None
        return product

    def npow(self, k: int):
        """Integer power; negative exponents require an invertible constant term."""
        if k == 0:
            return QSeries.one(self.nvars, self.weights, self.order)
        base = self if k > 0 else self.recip()
        k = abs(k)
        result = None
        acc = base
        while k:
            if k & 1:
                result = acc if result is None else result.mul(acc)
            k >>= 1
            if k:
                acc = acc.mul(acc)
        return result

    def recip(self):
        """Multiplicative inverse of a series with nonzero constant term."""
        c0 = self.constant_term()
        if not c0:
            raise SeriesError("cannot invert a series with zero constant term")
        rest = self.scalar_mul(Fraction(1, 1) / c0)
        tail = rest.sub(QSeries.one(self.nvars, self.weights, self.order))
        mind = tail.min_degree()
        r = QSeries.constant(Fraction(1, 1) / c0, self.nvars, self.weights, self.order)
        if mind is None:
            return r
        if mind <= 0:
            raise SeriesError("cannot invert: non-constant term of non-positive degree")
        two = QSeries.constant(2, self.nvars, self.weights, self.order)
        correct = mind
        while correct <= self.order:
            r = r.mul(two.sub(self.mul(r)))
            correct *= 2
        return r

    def exp(self):
        """Exponential of a series whose terms all have positive degree."""
        if self.constant_term():
            raise SeriesError("exp requires zero constant term")
        mind = self.min_degree()
        out = QSeries.one(self.nvars, self.weights, self.order)
        if mind is None:
            return out
        if mind <= 0:
            raise SeriesError("exp requires terms of positive weighted degree")
        power = out
        i = 0
        while mind * (i + 1) <= self.order:
            i += 1
            power = power.mul(self)
            out = out.add(power.scalar_mul(Fraction(1, factorial(i))))
        return out

    def log(self):
        """Logarithm of a unit series (constant term exactly 1)."""
        if self.constant_term() != 1:
            raise SeriesError("log requires constant term 1")
        tail = self.sub(QSeries.one(self.nvars, self.weights, self.order))
        mind = tail.min_degree()
        out = QSeries.zero(self.nvars, self.weights, self.order)
        if mind is None:
            return out
        if mind <= 0:
            raise SeriesError("log requires tail terms of positive weighted degree")
        power = QSeries.one(self.nvars, self.weights, self.order)
        i = 0
        while mind * (i + 1) <= self.order:
            i += 1
            power = power.mul(tail)
            out = out.add(power.scalar_mul(Fraction(-1 if i % 2 == 0 else 1, i)))
        return out

    def substitute(self, smap: "SubstitutionMap"):
        """Simultaneous substitution ``q_k -> q_k * u_k(q)``.

        Every term ``c * q^e`` maps to ``c * q^e * prod_k u_k^{e_k}``; powers
        of the unit factors are memoised across terms.

        A monomial of negative total degree shifts truncation error downward:
        its image is only exact to (map order + that degree).  The result's
        declared order is lowered accordingly, so it never claims more
        precision than the map can provide.
        """
        if len(smap.units) != self.nvars:
            raise SeriesError("substitution map has wrong number of components")
        for u in smap.units:
            self._check_shape(u)
        order = min([self.order] + [u.order for u in smap.units])
        map_order = min(u.order for u in smap.units)
        drop = min((self.degree(e) for e in self.terms), default=0)
        exact_to = min(self.order, map_order + min(0, drop))
        powers = [unit_powers(u) for u in smap.units]

        out = QSeries.zero(self.nvars, self.weights, order)
        for e, c in self.terms.items():
            acc = QSeries.monomial(e, c, self.nvars, self.weights, order)
            for k, ek in enumerate(e):
                if ek:
                    acc = acc.mul(powers[k](ek))
            out = out.add(acc)
        return out.truncate(exact_to)

    # ------------------------------------------------------------- protocols

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __neg__(self):
        return self.neg()

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return self.mul(other)
        return self.scalar_mul(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        # Equality is equality of stored truncations; the order metadata is
        # deliberately not compared.
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"QSeries({self.to_text()!r}, order={self.order})"

    # ---------------------------------------------------------- presentation

    def _canonical_terms(self):
        return sorted(self.terms.items(), key=lambda item: (self.degree(item[0]), item[0]))

    def to_records(self):
        """Canonical list-of-dicts form (graded-lexicographic term order)."""
        return [
            {"exponent": list(e), "num": c.numerator, "den": c.denominator}
            for e, c in self._canonical_terms()
        ]

    @classmethod
    def from_records(cls, records, nvars, weights, order):
        terms = {}
        for rec in records:
            e = tuple(rec["exponent"])
            num, den = rec["num"], rec["den"]
            if not isinstance(num, int) or not isinstance(den, int) or den <= 0:
                raise SeriesError("series records require integer num and positive integer den")
            if e in terms:
                raise SeriesError("duplicate exponent in series records")
            terms[e] = Fraction(num, den)
        return cls(nvars, weights, order, terms)

    def to_text(self, var: str = "q") -> str:
        """Human-readable rendering, e.g. ``1 + 3/2·q1^2 q2 - q3``."""
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self._canonical_terms():
            mono = " ".join(
                f"{var}{k + 1}" if x == 1 else f"{var}{k + 1}^{x}"
                for k, x in enumerate(e) if x
            )
            if not mono:
                text = str(c)
            elif c == 1:
                text = mono
            elif c == -1:
                text = f"-{mono}"
            else:
                text = f"{c}·{mono}"
            pieces.append(text)
        out = pieces[0]
        for text in pieces[1:]:
            if text.startswith("-"):
                out += " - " + text[1:]
            else:
                out += " + " + text
        return out


@dataclass(frozen=True)
class SubstitutionMap:
    """A coordinate change ``q_k -> q_k * u_k(q)`` with unit factors ``u_k``."""

    units: tuple

    def __post_init__(self):
        units = tuple(self.units)
        object.__setattr__(self, "units", units)
        if not units:
            raise SeriesError("substitution map needs at least one component")
        for u in units:
            if u.constant_term() != 1:
                raise SeriesError("substitution factors must have constant term 1")
            for e in u.terms:
                if any(e) and u.degree(e) <= 0:
                    raise SeriesError("substitution factors must be 1 plus "
                                      "terms of positive degree")

    @classmethod
    def identity(cls, nvars, weights, order):
        one = QSeries.one(nvars, weights, order)
        return cls(units=tuple(one for _ in range(nvars)))

    @property
    def nvars(self) -> int:
        return self.units[0].nvars

    def apply(self, f: QSeries) -> QSeries:
        return f.substitute(self)

    def is_identity(self) -> bool:
        return all(not u.sub(QSeries.one(u.nvars, u.weights, u.order)).terms for u in self.units)

    def compose(self, inner: "SubstitutionMap") -> "SubstitutionMap":
        """The map "apply ``inner``, then ``self``"."""
        if self.nvars != inner.nvars:
            raise SeriesError("cannot compose maps with different variable counts")
        units = tuple(inner.units[k].mul(self.units[k].substitute(inner))
                      for k in range(self.nvars))
        return SubstitutionMap(units=units)

    def revert(self) -> "SubstitutionMap":
        """Compositional inverse, found by fixed-point iteration.

        Each pass recomputes ``v_k = 1 / (u_k o t)`` and is exact one more
        weighted degree than the previous one, so the loop is bounded by
        order / (minimal positive degree in the unit tails).
        """
        template = self.units[0]
        tails = [u.sub(QSeries.one(u.nvars, u.weights, u.order)) for u in self.units]
        steps = [t.min_degree() for t in tails if t.min_degree() is not None]
        t = SubstitutionMap.identity(self.nvars, template.weights, template.order)
        if not steps:
            return t
        step = min(steps)
        if step <= 0:
            raise SeriesError("cannot revert: unit tail of non-positive degree")
        passes = int(template.order / step) + 2
        for _ in range(passes):
            prev = t
            units = tuple(self.units[k].substitute(prev).recip() for k in range(self.nvars))
            t = SubstitutionMap(units=units)
            if t.units == prev.units:
                return t
        degree, k = min((t.units[k].sub(prev.units[k]).min_degree(), k)
                        for k in range(self.nvars) if t.units[k] != prev.units[k])
        raise ArithmeticError(f"reversion fixed point did not stabilise within {passes} "
                              f"passes: component {k} still changes at degree {degree}")
