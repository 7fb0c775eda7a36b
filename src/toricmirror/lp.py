"""Exact linear programming over the rationals via Fourier-Motzkin elimination.

The fan/curve machinery only ever deals with a handful of variables: the rank
of H_2, which is 7 for the 3-folds that ``seidel_fan`` builds from chain3 and
8 for the 4-folds that ``seidel_fan`` applied twice builds from it.  Plain
Fourier-Motzkin blows up doubly exponentially in that count, so every
elimination chain prunes with Chernikov's rule (S. N. Chernikov, 1965;
J.-L. Imbert, 1990): each row carries its history, an ``int`` bitmask of the
input rows it was combined from, and once ``k`` variables are eliminated a
row combined from more than ``k + 1`` input rows is redundant and is never
formed.  A row kept for a set of parallel rows keeps only the history bits
they all share, so it is pruned no sooner than any of them would have been.
What is dropped is redundant, so every stage is still the exact projection.

Everything here is exact ``int``/``Fraction`` arithmetic, never float:
constraints are scaled to coprime ``int`` rows (an all-``int`` row is taken
as it is), so elimination and lattice-point enumeration run on plain
integers, and only a bound that has a real denominator is a ``Fraction``.
Each stage of a chain is split once into a plan of lower and upper rows on
that stage's variable, each with its prefix of coefficients.  Lattice-point
enumeration brackets every node of its descent with one integer dot product
and one floor division per row; back substitution reads the same plan with
exact division.

A constraint is a pair ``(coeffs, rhs)`` encoding ``coeffs . x >= rhs``.
Entry points:

* :func:`feasible` / :func:`witness` — decide a system, produce a rational point.
* :func:`minimize` — exact minimum of a linear objective (raises
  :class:`LPUnboundedError` when unbounded below).
* :func:`integer_points` — enumerate all lattice points of a bounded
  polyhedron in deterministic lexicographic order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


class LPUnboundedError(ArithmeticError):
    """The objective is unbounded below on the feasible region."""


def _norm(coeffs, rhs):
    """Scale a constraint to ``int`` coefficients and right-hand side.

    A row that is all ``int`` already is returned as it is.  Any other entry
    must be an ``int`` or a ``Fraction``: a float, a string or a ``bool``
    raises ``ValueError``.
    """
    if type(rhs) is int and all(type(v) is int for v in coeffs):
        return coeffs, rhs
    row = [*coeffs, rhs]
    for v in row:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValueError(f"constraint entries must be int or Fraction, "
                             f"got {type(v).__name__}")
    row = [Fraction(v) for v in row]
    scale = lcm(*(v.denominator for v in row))
    ints = [v.numerator * (scale // v.denominator) for v in row]
    return ints[:-1], ints[-1]


def _width(coeffs, nvars, what="constraint"):
    """``coeffs``, after checking that it has ``nvars`` entries: every row
    enters through here, so none is read short or long."""
    if len(coeffs) != nvars:
        raise ValueError(f"{what} has width {len(coeffs)}, not the variable count {nvars}")
    return coeffs


def _count(nvars):
    """``nvars``, checked to be a non-negative ``int``: ``True`` is not the count 1."""
    if type(nvars) is not int:
        raise ValueError(f"variable count must be an int, got {type(nvars).__name__}")
    if nvars < 0:
        raise ValueError(f"variable count must not be negative, got {nvars}")
    return nvars


def _dedupe(rows):
    """Merge parallel ``int`` constraints into coprime ``int`` rows.

    ``c . x >= b`` bounds the primitive direction ``p = c / g``, with
    ``g = gcd(c)``, by ``b / g``.  Of the rows that share a direction only
    the largest ``b / g`` constrains anything, so only that one is kept, as
    ``(p * g/h, b/h)`` with ``h = gcd(g, b)``.  Rows come out in the order
    in which their directions first appear.

    Rows are ``(c, b, history)``, the history an ``int``.  The kept row
    stands in for every row merged into it, so it takes the bits that all of
    their histories share: Chernikov's rule then never drops a combination
    of it that would have been kept for one of the rows it replaced.
    """
    best = {}
    for coeffs, rhs, hist in rows:
        g = gcd(*coeffs) or 1
        key = tuple(c // g for c in coeffs) if g > 1 else tuple(coeffs)
        kept = best.get(key)
        if kept is not None:
            hist &= kept[2]
            if rhs * kept[1] <= kept[0] * g:
                rhs, g = kept[0], kept[1]
        best[key] = (rhs, g, hist)
    out = []
    for key, (rhs, g, hist) in best.items():
        h = gcd(g, rhs)
        scale = g // h
        out.append((tuple(c * scale for c in key) if scale > 1 else key, rhs // h, hist))
    return out


def _tightest_bounds(pos, neg, j, i, width, cap):
    """Combine every pair when ``x_i`` is the only other variable left.

    Each combination then bounds ``x_i`` alone, and of those with the same
    sign only the tightest survives :func:`_dedupe`, so keep one per sign
    instead of forming every combined row.  The last elimination of every
    chain is this case.  As in :func:`eliminate`, a pair whose history has
    more than ``cap`` bits is skipped, and as in :func:`_dedupe`, the row
    kept for a sign takes the history bits shared by every pair of that sign.
    """
    best = {}
    for cp, bp, hp in pos:
        ap, xp = cp[j], cp[i]
        for cn, bn, hn in neg:
            h = hp | hn
            if h.bit_count() > cap:
                continue
            an = -cn[j]
            c, r = an * xp + ap * cn[i], an * bp + ap * bn
            sign = (c > 0) - (c < 0)
            kept = best.get(sign)
            if kept is not None:
                h &= kept[2]
                # c x_i >= r bounds sign * x_i by r / |c|; a row 0 >= r, by r
                if r * (abs(kept[0]) or 1) <= kept[1] * (abs(c) or 1):
                    c, r = kept[0], kept[1]
            best[sign] = (c, r, h)
    return [(tuple(c if m == i else 0 for m in range(width)), r, h)
            for c, r, h in best.values()]


def eliminate(cons, j):
    """Project a system onto the hyperplane ``x_j`` forgotten.

    Fourier-Motzkin: pair every lower bound on ``x_j`` with every upper
    bound.  The variable's slot is kept (as coefficient zero) so that
    indices stay stable across passes.  The pairs stream into the merge of
    parallel rows, so only the rows that are kept are ever held at once.

    Rows of a chain are ``(coeffs, rhs, history)``; a pair's history is the
    union of its rows' histories.  The chain eliminates from the last
    variable down, so once ``x_j`` is gone ``k = width - j`` variables have
    been eliminated, and by Chernikov's rule a pair whose history has more
    than ``k + 1`` bits is redundant: it is skipped.  Rows with history ``0``
    are never pruned.
    """
    width = len(cons[0][0]) if cons else 0
    cap = width - j + 1
    pos, neg, zero = [], [], []
    for row in cons:
        a = row[0][j]
        (pos if a > 0 else neg if a < 0 else zero).append(row)
    others = [i for i in range(width) if i != j and any(row[0][i] for row in cons)]
    if len(others) == 1:
        return _dedupe(zero + _tightest_bounds(pos, neg, j, others[0], width, cap))

    def combined():
        yield from zero
        for cp, bp, hp in pos:
            ap = cp[j]
            for cn, bn, hn in neg:
                h = hp | hn
                if h.bit_count() <= cap:
                    an = -cn[j]
                    yield [an * x + ap * y for x, y in zip(cp, cn)], an * bp + ap * bn, h

    return _dedupe(combined())


def _chain(cons, nvars):
    """Eliminate variables nvars-1, nvars-2, ..., returning each stage.

    ``stages[k]`` constrains variables ``x_0 .. x_{k}`` only.  The input is
    normalised and merged with history ``0``; row ``i`` of the result then
    starts with history ``1 << i``.
    """
    stages = [None] * nvars
    rows = _dedupe([(*_norm(_width(c, nvars), b), 0) for c, b in cons])
    current = [(c, b, 1 << i) for i, (c, b, _) in enumerate(rows)]
    stages[nvars - 1] = current
    for j in range(nvars - 1, 0, -1):
        current = eliminate(current, j)
        stages[j - 1] = current
    return stages


def _contradicts(stages) -> bool:
    """Whether the last stage of a chain holds a row ``0 >= rhs > 0``."""
    return any(not coeffs[0] and rhs > 0 for coeffs, rhs, _ in stages[0])


def _back_substitute(stages, plans):
    """The chain's deterministic rational point, or None when it is empty.

    Each ``x_j`` in turn takes its least value given ``x_0 .. x_{j-1}``, its
    greatest if it has no lower bound, and zero if it has neither: the
    stage's plan (see :func:`_plans`) read with exact division.
    """
    if _contradicts(stages):
        return None
    point = []
    for lower, upper in plans:
        lo = max((Fraction(b - sum(map(mul, p, point)), a) for a, p, b in lower),
                 default=None)
        hi = min((Fraction(sum(map(mul, p, point)) - b, a) for a, p, b in upper),
                 default=None)
        if lo is not None and hi is not None and lo > hi:
            return None
        point.append(lo if lo is not None else hi if hi is not None else Fraction(0))
    return tuple(point)


def _holds_without_variables(cons) -> bool:
    """Whether a system in no variables holds: each row reads ``0 >= rhs``."""
    return all(_norm(_width(c, 0), b)[1] <= 0 for c, b in cons)


def feasible(cons, nvars) -> bool:
    return witness(cons, nvars) is not None


def witness(cons, nvars):
    """A rational feasible point (see :func:`_back_substitute`), or None."""
    if not _count(nvars):
        return () if _holds_without_variables(cons) else None
    stages = _chain(cons, nvars)
    return _back_substitute(stages, _plans(stages))


def minimize(objective, cons, nvars):
    """Exact minimum of ``objective . x`` subject to ``cons``.

    Returns ``(value, point)``.  Raises :class:`LPUnboundedError` when the
    objective is unbounded below and ``ValueError`` when infeasible.

    Implemented by introducing ``t = objective . x`` as an extra leading
    variable, eliminating all the ``x``'s, and reading off the lower bound of
    the projected interval in ``t``.

    The point is then found by :func:`_back_substitute`: with ``t`` at its
    minimum, each ``x_j`` in turn takes its least value given
    ``x_0 .. x_{j-1}``.  So when the optimal face is bounded below, the point
    is the lexicographically smallest point of that face.  That is why the
    grading which :func:`toricmirror.fans.validate` picks, the printed ample
    weight, does not depend on how the elimination found it.
    """
    objective = _width(tuple(objective), _count(nvars), "objective")
    # t - objective.x >= 0 and objective.x - t >= 0 pin t to the objective.
    lifted = [((1,) + tuple(-c for c in objective), 0), ((-1,) + objective, 0)]
    lifted += [((0,) + _width(tuple(coeffs), nvars), rhs) for coeffs, rhs in cons]
    stages = _chain(lifted, nvars + 1)
    plans = _plans(stages)
    point = _back_substitute(stages, plans)
    if point is None:
        raise ValueError("infeasible system")
    if not plans[0][0]:
        raise LPUnboundedError("objective unbounded below")
    return point[0], point[1:]


def _plans(stages):
    """Each stage's bracket plan ``(lower, upper)`` on its variable ``x_j``.

    A row ``c . x >= b`` of stage ``j`` with ``a = c_j > 0`` is a lower row
    ``(a, c_0..c_{j-1}, b)``: ``x_j >= ceil((b - s) / a)``, where ``s`` is the
    prefix's pairing with ``x_0 .. x_{j-1}``.  One with ``a < 0`` is an upper
    row ``(-a, c_0..c_{j-1}, b)``: ``x_j <= floor((s - b) / -a)``.  Rows with
    ``a = 0`` do not bound ``x_j`` and are not in the plan.
    """
    plans = []
    for j, stage in enumerate(stages):
        lower, upper = [], []
        for coeffs, rhs, _ in stage:
            a = coeffs[j]
            if a > 0:
                lower.append((a, coeffs[:j], rhs))
            elif a < 0:
                upper.append((-a, coeffs[:j], rhs))
        plans.append((lower, upper))
    return plans


def integer_points(cons, nvars):
    """All integer points of the (bounded) polyhedron, lexicographically.

    Descends through the elimination chain: stage ``j`` brackets ``x_j``
    given integer ``x_0 .. x_{j-1}``, by exact floor division, through the
    plan :func:`_plans` made for it once.  A bracket can be empty, since a
    stage is the exact rational projection, not the integer one.  Raises
    :class:`LPUnboundedError` at the first node reached whose coordinate has
    no lower or no upper row, since the enumeration would then be infinite.

    A point inside every bracket already satisfies each input row.  Each
    row, or the parallel row that :func:`_dedupe` kept in its place and that
    implies it, sits in the stage of its last nonzero variable, and the
    bracket of that stage is exact for integer points; a row with no nonzero
    variable is caught by :func:`_contradicts`.  The final check of each
    point against the normalised input rows is a guard that should never
    reject.
    """
    if not _count(nvars):
        return [()] if _holds_without_variables(cons) else []
    last = nvars - 1
    stages = _chain(cons, nvars)
    normed = stages[last]
    if _contradicts(stages):
        return []
    plans = _plans(stages)
    out = []

    def descend(j, point):
        lower, upper = plans[j]
        if not lower or not upper:
            raise LPUnboundedError(f"coordinate {j} is unbounded; cannot enumerate")
        lo = max([-((sum(map(mul, p, point)) - b) // a) for a, p, b in lower])
        hi = min([(sum(map(mul, p, point)) - b) // a for a, p, b in upper])
        if j < last:
            for v in range(lo, hi + 1):
                descend(j + 1, point + (v,))
            return
        for v in range(lo, hi + 1):
            nxt = point + (v,)
            if all(sum(map(mul, c, nxt)) >= b for c, b, _ in normed):
                out.append(nxt)

    descend(0, ())
    return out

