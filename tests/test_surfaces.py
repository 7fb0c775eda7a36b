"""The 16 smooth semi-Fano toric surfaces, generated by toric blow-ups.

A smooth complete toric surface is a cycle of primitive rays ``v_0 ..
v_{m-1}`` with ``det(v_i, v_{i+1}) = 1``, and ``v_{i-1} + v_{i+1} = b_i v_i``
with ``D_i^2 = -b_i``.  Blowing up the fixed point of the cone ``{v_i,
v_{i+1}}`` inserts the ray ``v_i + v_{i+1}`` (a (-1)-curve) and lowers both
neighbours' self-intersections by one.  Every such surface other than P^2 and
the Hirzebruch surfaces F_a is a blow-up of one of them, and the surface is
semi-Fano exactly when every ``D_i^2 >= -2``; blowing down only raises
self-intersections, so the search from P^2, P^1 x P^1 and F_2 that keeps the
semi-Fano fans reaches them all.  There are 16 up to isomorphism, as many as
the reflexive polygons.
"""

import pytest

from toricmirror import checks, parse_fan, semi_fano_check, validate

STARTS = [
    [(1, 0), (0, 1), (-1, -1)],                 # P^2
    [(1, 0), (0, 1), (-1, 0), (0, -1)],         # P^1 x P^1
    [(1, 0), (0, 1), (-1, 2), (0, -1)],         # F_2
]


def det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def self_intersections(rays):
    """``D_i^2`` for rays in cyclic order, either orientation."""
    m = len(rays)
    return tuple(-det(rays[i - 1], rays[(i + 1) % m]) * det(rays[i - 1], rays[i])
                 for i in range(m))


def canonical(sequence):
    """The least rotation of the sequence or of its reverse."""
    m = len(sequence)
    return min(s[i:] + s[:i] for s in (sequence, sequence[::-1]) for i in range(m))


def blow_ups(rays):
    m = len(rays)
    for i in range(m):
        a, b = rays[i], rays[(i + 1) % m]
        yield rays[:i + 1] + [(a[0] + b[0], a[1] + b[1])] + rays[i + 1:]


def semi_fano_surfaces():
    """``({canonical sequence: rays}, [rays of rejected blow-ups])``, breadth
    first from :data:`STARTS`."""
    found, rejected, frontier = {}, [], []
    for rays in STARTS:
        found[canonical(self_intersections(rays))] = rays
        frontier.append(rays)
    while frontier:
        nxt = []
        for rays in frontier:
            for child in blow_ups(rays):
                sequence = self_intersections(child)
                if min(sequence) < -2:
                    rejected.append(child)
                elif canonical(sequence) not in found:
                    found[canonical(sequence)] = child
                    nxt.append(child)
        frontier = nxt
    return found, rejected


def context(rays):
    m = len(rays)
    return validate(parse_fan({"dim": 2, "rays": [list(v) for v in rays],
                               "max_cones": [[i, (i + 1) % m] for i in range(m)]}))


@pytest.fixture(scope="module")
def surfaces():
    return semi_fano_surfaces()


def test_there_are_16_semi_fano_toric_surfaces(surfaces):
    found, _ = surfaces
    assert len(found) == 16
    assert max(len(rays) for rays in found.values()) == 9
    for sequence, rays in found.items():
        assert all(det(a, b) == 1 for a, b in zip(rays, rays[1:] + rays[:1]))
        # sum of D_i^2 = 12 - 3m on a smooth complete toric surface
        assert sum(sequence) == 12 - 3 * len(rays)


def test_the_fixtures_are_four_of_them(surfaces, load):
    found, _ = surfaces
    for name in ("p2", "p1xp1", "f2", "chain3"):
        rays = load(name).fan.rays
        assert canonical(self_intersections(rays)) in found, name


def test_the_engine_agrees_on_which_blow_ups_are_semi_fano(surfaces):
    found, rejected = surfaces
    assert rejected
    for rays in found.values():
        assert semi_fano_check(context(rays))[0]
    for rays in rejected:
        assert not semi_fano_check(context(rays))[0]


def test_every_semi_fano_surface_passes_the_invariant_suite(surfaces):
    found, _ = surfaces
    for sequence, rays in found.items():
        ctx = context(rays)
        for name, check in checks.suite(ctx, 8):
            assert check() is None, f"surface {sequence}: {name}"
