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

Every series is built on the :class:`GradedRing` of its weights, one memoised
ring per weight vector, in ``nvars = len(weights)`` variables.  The ring
validates the weights once and scales them to integers by the lcm ``L`` of
their denominators, so ``L * deg(e)`` is an ``int``.  It stores each
monomial as one packed ``int`` key (the packed-exponent technique of Monagan
& Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007)::

    key(e) = (L * deg(e) << nvars * W) + sum_k (e_k + B) << (nvars - 1 - k) * W

with one fixed field width ``W = 17`` and bias ``B = 2^15``.  Bits 0-15 of
a field hold ``e_k + B``, from 1 to ``2^16 - 1``, so a field of a stored key
never borrows from its neighbour, and bit 16 is a guard bit that every
stored key keeps clear.  Variable 0 has the top field, so comparing keys
compares (degree, exponent tuple): key order is term order.  Truncation to
order ``N`` is ``key < cutoff(N)``, the product of two monomials has key
``k1 + k2 - C`` (``C`` is the key of the constant monomial), and the degree
budget of a product is one ``bisect`` over a sorted key list.  A shift by
``q^e`` is a product with that monomial, so its terms past the order are
never formed.

``exp``, ``log`` and ``recip`` split their operand into level slices, a map
from each level ``L * deg`` that holds terms to those terms, ascending, and
form the result one slice at a time from strictly lower slices, in one frame
(:meth:`QSeries._recurrence`: one tail check, one level loop that a constant
series skips), by a recurrence that costs about one product in all (cf.
Brent & Kung, J. ACM 1978): with ``theta`` the derivation ``q^e -> level(e)
q^e``, ``theta exp(f) = exp(f) theta f``, ``theta log(u) = theta u / u`` and
``u * (1/u) = 1``.  One private slice kernel, :func:`_convolve`, forms every
such slice, in :func:`solve_units` too, which solves the inverse mirror map
for ``mirror``.  One row step, :func:`_row_slice`, forms a level of ``sum_d
c_d q^d X_d`` there and in :func:`row_sum`.

Integer powers have one path, :meth:`QSeries.npow`, memoised on the series
itself, so a unit's powers are formed once however many terms, components
(:meth:`SubstitutionMap.compose`) or ``mirror`` consumers read them.

Overflow.  A field holds ``e_k + B``, so every exponent entry must satisfy
``|e_k| < B``, and a field never wraps silently: a kept term whose exponent
leaves its field raises :class:`SeriesError`.  The ring owns the one exact
test (:meth:`GradedRing.check`), and no series carries a bound.  A key
``k = k1 + k2 - C`` formed from two stored keys has each field in ``-B + 2
.. 3B - 2``, and ``ones`` has a 1 in each field.  If every field lies in
``1 .. 2B - 1``, neither ``k`` nor ``k - ones`` borrows, and no guard bit is
set.  Otherwise take the lowest field outside that range: the valid fields
below it leave it as it is, so it sets its guard bit in ``k`` (it is
negative and borrowed from the field above, or it reached ``2B``), or it is
exactly 0 and sets its guard bit in ``k - ones``.  So ``k`` is valid
exactly when ``k | (k - ones)`` has no guard bit set.  Every kernel output
passes through :func:`_clean`, which tests the keys it keeps.  A borrow
lowers the level by at most one, so an overflowing pair of level ``top +
1`` may also be kept and raise.  Readers see the
terms through :attr:`QSeries.terms`, a dict keyed by exponent tuples in
(degree, exponent) order, decoded once from the sorted keys on first use.

:class:`SubstitutionMap` represents a coordinate change of "unit" shape
``q_k -> q_k * u_k(q)`` with ``u_k(0) = 1``.  Maps of this shape form a group
under composition.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from operator import index as _operator_index, mul as _mul

WIDTH = 17                      # bits per packed exponent field, guard bit included
BIAS = 1 << 15                  # a field holds e + BIAS, so |e| < BIAS
_FIELD = (1 << 16) - 1          # the value bits of a field, below its guard bit


class SeriesError(ValueError):
    """Raised for malformed series operations (shape or domain mismatch)."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise SeriesError(f"weights and orders must be int or Fraction, got {type(value).__name__}")


def _index(value) -> int:
    """:func:`operator.index`, refusing ``bool``: ``True`` is not the integer 1."""
    if isinstance(value, bool):
        raise TypeError("bool is not an integer here")
    return _operator_index(value)


def _expect(value, kind):
    """``value``, checked to be a ``kind``: any other operand raises
    :class:`SeriesError`, not a bare ``AttributeError`` where it is read."""
    if not isinstance(value, kind):
        raise SeriesError(f"expected a {kind.__name__}, got {type(value).__name__}")
    return value


def _coeff(value):
    """Normalise a coefficient: ``int`` when integral, else a ``Fraction``;
    ``True`` is not the coefficient 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise SeriesError(f"coefficient must be an int or Fraction, got {type(value).__name__}")


def _clean(terms, ring):
    """Drop cancelled terms, turn integral ``Fraction`` sums into ``int`` and
    check the kept keys against ``ring``'s fields (:meth:`GradedRing.check`)."""
    out = {k: c if type(c) is int or c.denominator != 1 else c.numerator
           for k, c in terms.items() if c}
    ring.check(out)
    return out


def _overflow():
    return SeriesError(f"exponent leaves the packed field: every entry must lie "
                       f"strictly between -{BIAS} and {BIAS}")


def _div(c, n):
    """``c / n`` as a normalised coefficient."""
    if type(c) is int:
        q, r = divmod(c, n)
        return Fraction(c, n) if r else q
    return _coeff(c / n)


def _put(slices, n, terms, ring):
    """Clean ``terms`` into level ``n`` of ``slices`` when any term is left."""
    if terms := _clean(terms, ring):
        slices[n] = terms


def _convolve(a, b, n, bias, out=None, scalar=1):
    """The slice kernel: add ``scalar * sum_{i <= n} a[i] * b[n - i]``, the
    level-``n`` slice of a product, to ``out`` and return it.

    ``a`` and ``b`` map levels to slices ``{packed key: coeff}`` and hold only
    nonempty levels, ``a`` ascending.  A level that ``b`` does not hold adds
    nothing, so a recurrence forming ``b[n]`` reads ``b`` only below ``n``.
    Keys of levels ``i`` and ``n - i`` multiply to ``k1 + k2 - bias``, of
    level ``n``.  The sum is not cleaned.
    """
    if out is None:
        out = {}
    get = out.get
    for i, x in a.items():
        if i > n:
            break
        y = b.get(n - i)
        if y:
            y = y.items()
            for k1, c1 in x.items():
                base = k1 - bias
                c1 *= scalar
                for k2, c2 in y:
                    k = base + k2
                    c = c1 * c2
                    s = get(k)
                    out[k] = c if s is None else s + c
    return out


def solve_units(ring, order, sources):
    """Solve ``W_l = sum_d gamma_{l,d} q^d prod_j exp(W_j)^{pair_j}`` online.

    ``sources`` maps each unknown ``l`` to its nonempty rows ``(d, wt, gamma,
    pair)``: an exponent vector, its level in ``ring``, a coefficient and a
    tuple read only at the keys of ``sources`` (an unknown without rows has
    ``W = 0``).  Returns the dicts of ``W_l`` and ``E_l = exp(W_l)``, exact to
    ``order``, and the dict ``X`` from each row's packed key to the level
    slices of its ``X_d``, formed at least to level ``top - wt_d``: what
    :func:`row_sum` reads.  Each row weighs at least one level, so level
    ``n`` of the right side reads each ``E_j`` only below ``n``, and every
    slice is formed once, from final lower slices, for ``n = 1..top`` (cf.
    van der Hoeven, "Relax, but don't be too lazy", J. Symb. Comput. 2002):
    ``W_l[n] = sum_d gamma_{l,d} q^d X_d[n - wt_d]`` by the row step
    :func:`_row_slice`, with ``X_d`` the product of the powers
    ``E_j^{pair_j}``, then ``n E_l[n] = sum_i i W_l[i] E_l[n - i]``.  Every
    slice passes through :func:`_clean`, so an exponent that leaves its
    packed field raises as soon as its level forms; none is kept empty.
    """
    if not sources:
        return {}, {}, {}
    top = ring.level(order)
    active = sorted(sources)
    rows = [row for table in sources.values() for row in table]
    if min(wt for _, wt, _, _ in rows) <= 0:
        raise SeriesError("solve rows must have positive level")
    bias = ring.bias
    one = {0: {bias: 1}}
    # W is kept as D * W, with D the lcm of the gammas' denominators, so
    # that integral E keeps every slice product in int arithmetic
    scale = lcm(*(gamma.denominator for _, _, gamma, _ in rows))
    theta = {l: {} for l in active}        # level n holds n * D * W_l[n]
    E = {l: {0: {bias: 1}} for l in active}

    # X_d multiplies the powers E_j^{pair_j} over the active j in turn; a
    # power or prefix product is grown only to the level its heaviest use
    # reads, top - wt
    chains, powers, products = [], {}, {}
    for l, ls in sources.items():
        for comps, wt, gamma, pair in ls:
            chain = tuple((j, pair[j]) for j in active if pair[j])
            chains.append((l, ring.key(comps) - bias, int(gamma * scale), wt, chain))
            for j, k in chain:
                for i in range(2, k + 1) if k > 0 else range(-1, k - 1, -1):
                    powers[j, i] = max(powers.get((j, i), 0), top - wt)
            for i in range(2, len(chain) + 1):
                products[chain[:i]] = max(products.get(chain[:i], 0), top - wt)

    def power(j, k):
        return E[j] if k == 1 else one if k == 0 else slices[j, k]

    def product(chain):
        return one if not chain else power(*chain[0]) if len(chain) == 1 else slices[chain]

    # (slices, reach, a, b, above): a * b, or, with ``above``, the negative
    # power solving a * slices = above.  Inputs come first.
    slices, nodes = {}, []
    for (j, k), reach in sorted(powers.items(), key=lambda p: (p[0][0], abs(p[0][1]))):
        out = slices[j, k] = {0: {bias: 1}}
        if k > 0:
            nodes.append((out, reach, E[j], power(j, k - 1), None))
        else:
            nodes.append((out, reach, E[j], out, power(j, k + 1)))
    for chain, reach in sorted(products.items(), key=lambda p: len(p[0])):
        out = slices[chain] = {0: {bias: 1}}
        nodes.append((out, reach, product(chain[:-1]), power(*chain[-1]), None))
    uses = {l: [] for l in active}
    X = {}
    for l, offset, gamma, wt, chain in chains:
        x = X[offset + bias] = product(chain)
        uses[l].append((offset, gamma, wt, x))

    for n in range(1, top + 1):
        for l, ls in uses.items():
            _put(theta[l], n, {k: n * c for k, c in _row_slice(ls, n, {}).items()}, ring)
        for l in active:
            total = _convolve(theta[l], E[l], n, bias)
            _put(E[l], n, {k: _div(c, n * scale) for k, c in total.items()}, ring)
        for out, reach, a, b, above in nodes:
            if n > reach:
                continue
            if above is None:
                _put(out, n, _convolve(a, b, n, bias), ring)
            else:
                # E_j^k[n] = E_j^{k+1}[n] - sum_{i>=1} E_j[i] E_j^k[n-i]
                _put(out, n, _convolve(a, b, n, bias, dict(above.get(n, {})), -1), ring)
    zero = QSeries._of(ring, order, top, {})
    W = {l: zero._from_slices({n: {k: _div(c, n * scale) for k, c in s.items()}
                               for n, s in theta[l].items()})
         for l in active}
    return W, {l: zero._from_slices(E[l]) for l in active}, X


def row_sum(f, X):
    """``sum_d c_d q^d X_d`` over the terms ``c_d q^d`` of ``f``, exact to
    ``f.order``, with ``X`` the level maps of :func:`solve_units` at the same
    ring and order; raises :class:`SeriesError` naming the lowest monomial
    of ``f`` that is not a row of ``X``.  A term of level ``wt`` reads the
    levels of ``X_d`` up to ``top - wt``, so no product is formed and no
    term above the order is kept.
    """
    ring, packed = f.ring, f._packed
    if not X.keys() >= packed.keys():
        raise SeriesError(f"{ring.exponent(min(packed.keys() - X.keys()))} is not a class row")
    bias, shift = ring.bias, ring.shift
    rows = [(key - bias, c, key >> shift, X[key]) for key, c in packed.items()]
    out = {}
    for n in range(1, f._top + 1):
        _row_slice(rows, n, out)
    return QSeries._of(ring, f.order, f._top, _clean(out, ring))


def _row_slice(rows, n, out):
    """Add the level-``n`` slice of ``sum c q^d X_d`` over the rows ``(key of
    q^d less the bias, c, level of d, level slices of X_d)`` to ``out``,
    uncleaned; a level that ``X_d`` does not hold adds nothing."""
    get = out.get
    for offset, c, wt, x in rows:
        for k, v in x.get(n - wt, {}).items():
            k += offset
            v *= c
            s = get(k)
            out[k] = v if s is None else s + v
    return out


_RINGS = {}


class GradedRing:
    """One memoised ring per weight vector, in ``len(weights)`` variables.

    ``scale`` is the lcm ``L`` of the weights' denominators and ``scaled``
    the integer weights ``L * w``, so a *level* ``L * deg(e)`` is an ``int``.
    ``shift`` is the bit offset ``nvars * WIDTH`` of the level in a key and
    ``bias`` the key of the constant monomial.
    """

    __slots__ = ("nvars", "weights", "scale", "scaled", "shift", "bias",
                 "_units", "_fields", "_ones", "_guard")

    @staticmethod
    def of(weights) -> "GradedRing":
        """The one ring of these weights, a nonempty sequence.  They are
        checked before the lookup, so a ``1.0`` or ``True`` never finds the
        ring of ``1``."""
        try:
            weights = tuple(map(_as_fraction, weights))
        except TypeError:
            raise SeriesError(f"weights must be a sequence, "
                              f"got {type(weights).__name__}") from None
        ring = _RINGS.get(weights)
        if ring is None:
            ring = _RINGS[weights] = GradedRing(weights)
        return ring

    def __init__(self, weights):
        if not weights or any(w <= 0 for w in weights):
            raise SeriesError("weights must be a nonempty sequence of strictly positive numbers")
        nvars = self.nvars = len(weights)
        self.weights = weights
        self.scale = lcm(*(w.denominator for w in weights))
        self.scaled = tuple(int(w * self.scale) for w in weights)
        # variable 0 in the top field: key order is (degree, exponent) order
        self._fields = tuple((nvars - 1 - k) * WIDTH for k in range(nvars))
        self.shift = nvars * WIDTH
        self._ones = sum(1 << f for f in self._fields)
        self._guard = self._ones << 16
        self.bias = BIAS * self._ones
        # key(e) = bias + sum_k e_k * unit_k
        self._units = tuple((s << self.shift) + (1 << f)
                            for s, f in zip(self.scaled, self._fields))

    def vector(self, exponent) -> tuple:
        """An exponent vector as an ``int`` tuple, checked for its length."""
        try:
            e = tuple(map(_index, exponent))
        except TypeError:
            raise SeriesError("exponent entries must be integers") from None
        if len(e) != self.nvars:
            raise SeriesError("exponent length does not match variable count")
        return e

    def key(self, exponent) -> int:
        """The packed key of an exponent vector, checked against the fields."""
        e = self.vector(exponent)
        if not all(-BIAS < x < BIAS for x in e):
            raise _overflow()
        return sum(map(_mul, e, self._units), self.bias)

    def check(self, keys):
        """Raise :class:`SeriesError` unless every key, a sum of stored keys
        ``k1 + k2 - bias``, holds each exponent entry inside its field: a
        field that left ``1 .. 2 * BIAS - 1`` sets its guard bit in ``k`` or
        in ``k - ones`` (see the module docstring)."""
        ones, guard = self._ones, self._guard
        for k in keys:
            if (k | (k - ones)) & guard:
                raise _overflow()

    def exponent(self, key) -> tuple:
        """The exponent vector of a packed key."""
        return tuple(((key >> f) & _FIELD) - BIAS for f in self._fields)

    def grade(self, exponent) -> int:
        """The level ``L * deg(exponent)`` of an exponent vector."""
        return sum(map(_mul, self.scaled, exponent))

    def level(self, order) -> int:
        """The largest level of weighted degree ``<= order``."""
        return order.numerator * self.scale // order.denominator

    def degree(self, level):
        """The weighted degree of a level: ``int`` when integral weights make it one."""
        return level if self.scale == 1 else Fraction(level, self.scale)

    def cutoff(self, level) -> int:
        """Keys of level ``<= level`` are exactly those below this."""
        return (level + 1) << self.shift

    def match(self, operand):
        """Raise :class:`SeriesError` unless ``operand`` is a series of this ring."""
        other = _expect(operand, QSeries).ring
        if other is not self:
            raise SeriesError("variable count mismatch" if other.nvars != self.nvars
                              else "grading weight mismatch")

class QSeries:
    """An exactly-truncated power series on a :class:`GradedRing`.

    ``ring`` holds the strictly positive grading vector and ``order`` is the
    truncation bound, an exact rational.  Terms are stored as a dict from
    packed keys of :attr:`ring` (see the module docstring) to coefficients;
    :attr:`terms` is the same map keyed by exponent tuples.  The instance is
    immutable by convention: all operations return fresh series, and only
    the public constructor, the one way to build a series from terms,
    validates its input.
    """

    __slots__ = ("ring", "order", "_top", "_packed", "_sorted", "_view", "_powers")

    def __init__(self, ring, order, terms=None):
        if not isinstance(ring, GradedRing):
            raise SeriesError(f"a series is built on a GradedRing, got {type(ring).__name__}")
        order = _as_fraction(order)
        top = ring.level(order)
        stop = ring.cutoff(top)
        packed = {}
        if terms:
            for e, c in terms.items():
                c = _coeff(c)
                if not c:
                    continue
                k = ring.key(e)
                if k < stop:
                    packed[k] = c
        self._set(ring, order, top, packed)

    def _set(self, ring, order, top, packed):
        self.ring = ring
        self.order = order
        self._top = top            # ring.level(order)
        self._packed = packed
        self._sorted = None
        self._view = None
        self._powers = None        # {k: self^k} formed by npow, k != 1

    @staticmethod
    def _of(ring, order, top, packed):
        """A series from trusted parts: nothing is re-checked."""
        out = QSeries.__new__(QSeries)
        out._set(ring, order, top, packed)
        return out

    def _const(self, value):
        """``value`` as a series of this ring, to this series' order."""
        ring, top = self.ring, self._top
        packed = {ring.bias: value} if value and ring.bias < ring.cutoff(top) else {}
        return QSeries._of(ring, self.order, top, packed)

    # ---------------------------------------------------------------- basics

    @property
    def terms(self):
        """``{exponent tuple: coefficient}``, in (degree, exponent) order."""
        if self._view is None:
            exponent = self.ring.exponent
            self._view = {exponent(k): c for k, c in self._by_key()[1]}
        return self._view

    def degree(self, exponent):
        """Weighted degree of an exponent vector (int or Fraction)."""
        ring = self.ring
        return ring.degree(ring.grade(ring.vector(exponent)))

    @classmethod
    def one(cls, ring, order):
        return cls(ring, order)._const(1)

    def coefficient(self, exponent):
        return self.terms.get(self.ring.vector(exponent), 0)

    def constant_term(self):
        return self._packed.get(self.ring.bias, 0)

    def is_zero(self) -> bool:
        return not self._packed

    def min_degree(self):
        """Smallest weighted degree present, or None for the zero series."""
        if not self._packed:
            return None
        return self.ring.degree(min(self._packed) >> self.ring.shift)

    def truncate(self, order):
        """Drop the terms above ``order``; the terms are shared when none is.

        A series is never declared exact beyond its own order.
        """
        ring, packed = self.ring, self._packed
        order = min(self.order, _as_fraction(order))
        top = ring.level(order)
        if top < self._top and packed:
            stop = ring.cutoff(top)
            if max(packed) >= stop:
                cut = {k: c for k, c in packed.items() if k < stop}
                return QSeries._of(ring, order, top, cut)
        out = QSeries._of(ring, order, top, packed)
        out._sorted, out._view = self._sorted, self._view
        return out

    def _by_key(self):
        """``(keys, items)``: the terms sorted by key, i.e. in term order."""
        if self._sorted is None:
            items = sorted(self._packed.items())
            self._sorted = ([k for k, _ in items], items)
        return self._sorted

    # ------------------------------------------------------------ arithmetic

    def add(self, other):
        self.ring.match(other)
        order, top = min(self.order, other.order), min(self._top, other._top)
        out = dict(self._packed)
        get = out.get
        for k, c in other._packed.items():
            s = get(k)
            if s is None:
                out[k] = c
            else:
                s += c
                if s:
                    out[k] = _coeff(s)
                else:
                    del out[k]
        if self._top != other._top:
            stop = self.ring.cutoff(top)
            out = {k: c for k, c in out.items() if k < stop}
        return QSeries._of(self.ring, order, top, out)

    def neg(self):
        return QSeries._of(self.ring, self.order, self._top,
                           {k: -c for k, c in self._packed.items()})

    def sub(self, other):
        return self.add(_expect(other, QSeries).neg())

    def shift(self, exponent):
        """Multiply by ``q^exponent``, keeping this series' order: a product
        with the monomial, so terms shifted past the order are never formed."""
        ring = self.ring
        monomial = QSeries._of(ring, self.order, self._top, {ring.key(exponent): 1})
        return self.mul(monomial)

    @classmethod
    def linear_sum(cls, parts, ring, order):
        """``sum(scalar * s)`` over ``(s, scalar)`` in ``parts``, exact to the
        least of ``order`` and the parts' orders.

        Raises :class:`SeriesError` when a part belongs to another ring.
        """
        if not isinstance(ring, GradedRing):
            raise SeriesError(f"a series is built on a GradedRing, got {type(ring).__name__}")
        order = _as_fraction(order)
        for s, _ in parts:
            if _expect(s, QSeries).ring is not ring:
                raise SeriesError("summand has another shape")
            order = min(order, s.order)
        top = ring.level(order)
        stop = ring.cutoff(top)
        out = {}
        get = out.get
        for s, scalar in parts:
            scalar = _coeff(scalar)
            for k, c in s._packed.items():
                if k < stop:
                    c *= scalar
                    t = get(k)
                    out[k] = c if t is None else t + c
        return QSeries._of(ring, order, top, _clean(out, ring))

    def mul(self, other):
        self.ring.match(other)
        order = min(self.order, other.order)
        top = min(self._top, other._top)
        # Iterate the smaller support on the outside and cut the inner loop
        # by remaining degree budget; this keeps dense*dense products at the
        # cost of the genuinely contributing pairs only.  A product key is
        # k1 + k2 - bias and must stay below cutoff(top), so the partners of
        # k1 are the sorted keys below cutoff(top) + bias - k1.
        small, big = (self, other) if len(self._packed) <= len(other._packed) else (other, self)
        keys, items = big._by_key()
        bias = self.ring.bias
        stop = self.ring.cutoff(top) + bias
        out = {}
        get = out.get
        for k1, c1 in small._packed.items():
            base = k1 - bias
            for k2, c2 in items[:bisect_left(keys, stop - k1)]:
                k = base + k2
                c = c1 * c2
                s = get(k)
                out[k] = c if s is None else s + c
        return QSeries._of(self.ring, order, top, _clean(out, self.ring))

    def npow(self, k: int):
        """The integer power ``self^k``, memoised on this series.

        Negative ``k`` needs an invertible constant term and works from
        ``self^-1``, formed once.  For ``m = |k|``, ``self^m`` is one product:
        ``self^(m-1) * self`` when ``self^(m-1)`` is kept or ``m`` is odd, else
        ``(self^(m/2))^2``.  So a run of powers costs one product each and a
        lone power O(log |k|), planned in a loop, not by recursion.  ``self^1``
        is ``self`` and is not kept: the cache holds no reference to its series.
        """
        if type(k) is not int:
            raise SeriesError(f"a power must be an int, got {type(k).__name__}")
        if k == 1:
            return self
        powers = self._powers
        if powers is None:
            powers = self._powers = {}
        val = powers.get(k)
        if val is not None:
            return val
        if k == 0:
            val = powers[0] = self._const(1)
            return val
        sign = 1 if k > 0 else -1
        if sign < 0 and -1 not in powers:
            powers[-1] = self.recip()
        unit = self if sign > 0 else powers[-1]

        def get(m):
            return unit if m == 1 else powers.get(sign * m)

        steps = []              # m, and whether self^m squares self^(m/2)
        m = abs(k)
        while get(m) is None:
            square = not m & 1 and get(m - 1) is None
            steps.append((m, square))
            m = m >> 1 if square else m - 1
        for m, square in reversed(steps):
            powers[sign * m] = (get(m >> 1).mul(get(m >> 1)) if square
                                else get(m - 1).mul(unit))
        return powers[k]

    def _check_tail(self, what):
        """Whether this series has a non-constant term; raises
        :class:`SeriesError`, naming ``what``, unless each has positive level."""
        bias, shift = self.ring.bias, self.ring.shift
        least = min((k >> shift for k in self._packed if k != bias), default=None)
        if least is not None and least <= 0:
            raise SeriesError(f"{what} needs every non-constant term at positive degree")
        return least is not None

    def _slices(self):
        """The terms as ``{level: {key: coeff}}`` over their levels, ascending."""
        slices = {}
        shift = self.ring.shift
        for k, c in sorted(self._packed.items()):
            slices.setdefault(k >> shift, {})[k] = c
        return slices

    def _from_slices(self, slices):
        """The series of this ring and order with the given level slices."""
        packed = {k: c for s in slices.values() for k, c in s.items()}
        return QSeries._of(self.ring, self.order, self._top, packed)

    def _recurrence(self, what, seed, step):
        """The level slices of ``r``: ``r[0] = seed``, and ``r[n] = step(r, n)``
        for ``n = 1..top`` from ``r`` below ``n``.  One tail check, naming
        ``what`` (:meth:`_check_tail`); a constant series skips the loop."""
        out = self._const(seed)._slices()
        if self._check_tail(what):
            for n in range(1, self._top + 1):
                _put(out, n, step(out, n), self.ring)
        return out

    def recip(self):
        """Multiplicative inverse of a series with nonzero constant term.

        ``u r = 1`` read at level ``n``: ``r[n] = -(1/u_0) sum_{i>=1} u[i] r[n-i]``.
        """
        c0 = self.constant_term()
        if not c0:
            raise SeriesError("cannot invert a series with zero constant term")
        inv0 = _coeff(Fraction(1, 1) / c0)
        u = self._slices()
        return self._from_slices(self._recurrence(
            "recip", inv0, lambda r, n: _convolve(u, r, n, self.ring.bias, scalar=-inv0)))

    def exp(self):
        """Exponential of a series whose terms all have positive degree.

        With ``theta`` the derivation ``q^e -> level(e) q^e``,
        ``theta E = E theta f``, read at level ``n``:
        ``n E[n] = sum_{i>=1} i f[i] E[n-i]``.
        """
        if self.constant_term():
            raise SeriesError("exp requires zero constant term")
        theta = {n: {k: n * c for k, c in s.items()} for n, s in self._slices().items()}
        return self._from_slices(self._recurrence("exp", 1, lambda e, n: {
            k: _div(c, n) for k, c in _convolve(theta, e, n, self.ring.bias).items()}))

    def log(self):
        """Logarithm of a unit series (constant term exactly 1).

        ``theta L = theta u / u`` (``theta`` as in :meth:`exp`), read at level
        ``n``: ``n L[n] = n u[n] - sum_{1<=i<n} u[i] (n-i) L[n-i]``.
        """
        if self.constant_term() != 1:
            raise SeriesError("log requires constant term 1")
        u = self._slices()
        theta = self._recurrence("log", 0, lambda t, n: _convolve(
            u, t, n, self.ring.bias, {k: n * c for k, c in u.get(n, {}).items()}, -1))
        return self._from_slices({n: {k: _div(c, n) for k, c in s.items()}
                                  for n, s in theta.items()})

    def substitute(self, smap: "SubstitutionMap"):
        """Simultaneous substitution ``q_k -> q_k * u_k(q)``.

        Every term ``c * q^e`` maps to ``c * q^e * prod_k u_k^{e_k}``, with
        the powers from :meth:`npow`, memoised on the units themselves, and
        the images are summed into one dict.

        A monomial of negative total degree shifts truncation error downward:
        its image is only exact to (map order + that degree).  The result's
        declared order is lowered accordingly, so it never claims more
        precision than the map can provide.
        """
        units = _expect(smap, SubstitutionMap).units
        self.ring.match(units[0])
        order = min([self.order] + [u.order for u in units])
        map_order = min(u.order for u in units)
        drop = self.min_degree() or 0
        exact_to = min(self.order, map_order + min(0, drop))

        ring = self.ring
        top = ring.level(order)
        stop = ring.cutoff(top)
        parts = []
        for key, c in self._packed.items():
            acc = QSeries._of(ring, order, top, {key: c} if key < stop else {})
            for k, ek in enumerate(ring.exponent(key)):
                if ek:
                    acc = acc.mul(units[k].npow(ek))
            parts.append((acc, 1))
        return QSeries.linear_sum(parts, ring, order).truncate(exact_to)

    # ------------------------------------------------------------- protocols

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        # Equality is equality of stored truncations; the order metadata is
        # deliberately not compared, and neither are the weights.
        if self.ring is other.ring:
            return self._packed == other._packed
        return self.ring.nvars == other.ring.nvars and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"QSeries({self.to_text()!r}, order={self.order})"

    # ---------------------------------------------------------- presentation

    def to_records(self):
        """Canonical list-of-dicts form (graded-lexicographic term order)."""
        return [
            {"exponent": list(e), "num": c.numerator, "den": c.denominator}
            for e, c in self.terms.items()
        ]

    def to_text(self, var: str = "q") -> str:
        """Human-readable rendering, e.g. ``1 + 3/2·q1^2 q2 - q3``."""
        if not self._packed:
            return "0"
        pieces = []
        for e, c in self.terms.items():
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


class SubstitutionMap:
    """A coordinate change ``q_k -> q_k * u_k(q)`` with unit factors ``u_k``.

    Immutable by convention, as :class:`QSeries` is.
    """

    __slots__ = ("units",)

    def __init__(self, units):
        try:
            units = tuple(units)
        except TypeError:
            raise SeriesError(f"a substitution map takes a sequence of series, "
                              f"got {type(units).__name__}") from None
        if not units:
            raise SeriesError("substitution map needs at least one component")
        ring = _expect(units[0], QSeries).ring
        if len(units) != ring.nvars:
            raise SeriesError(f"substitution map has {len(units)} units for "
                              f"{ring.nvars} variables")
        for u in units:
            ring.match(u)
            if u.constant_term() != 1:
                raise SeriesError("substitution factors must have constant term 1")
            u._check_tail("a substitution factor")
        self.units = units

    def is_identity(self) -> bool:
        return all(u == u._const(1) for u in self.units)

    def compose(self, inner: "SubstitutionMap") -> "SubstitutionMap":
        """The map "apply ``inner``, then ``self``"; ``substitute`` checks
        ``inner`` before its units are read."""
        images = [s.substitute(inner) for s in self.units]
        return SubstitutionMap([i.mul(s) for i, s in zip(inner.units, images)])
