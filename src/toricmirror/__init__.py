"""Exact mirror maps, open Gromov-Witten potentials, and Seidel elements
for smooth semi-Fano toric fans.

Everything is computed in exact ``int``/``Fraction`` arithmetic, never
float: integral values stay ``int``, and ``Fraction`` appears only where a
real denominator exists.  The main entry points:

- :func:`parse_fan` / :func:`validate` build a :class:`ToricContext` from a
  fan description,
- :func:`mirror_map`, :func:`inverse_mirror_map`, :func:`delta`,
  :func:`open_gw` compute the mirror map and open GW invariants,
- :func:`disc_potential`, :func:`hori_vafa` produce superpotentials,
- :func:`batyrev_element`, :func:`seidel_element`, :func:`seidel_fan` cover
  the quantum-cohomology side,
- :mod:`toricmirror.oracle` recomputes the g-series from the I-function for
  cross-checking.

A curve class is a plain tuple of ``int`` of length ``ctx.rank``, and
``open_gw(ctx, ray, alpha)`` takes the disc class ``beta_ray + alpha`` as
its ray and curve class.
"""

from .fans import (
    Fan,
    FanError,
    ToricContext,
    Wall,
    is_vertex,
    minimal_face,
    parse_fan,
    seidel_fan,
    semi_fano_check,
    validate,
)
from .mirror import (
    batyrev_element,
    compose_with_inverse,
    delta,
    disc_potential,
    divisor_derivative,
    enumerate_classes,
    extended_mirror_factors,
    g_function,
    g_ij,
    g_psi,
    hori_vafa,
    inverse_mirror_map,
    mirror_map,
    open_gw,
    open_gw_divisor,
    seidel_element,
)
from .series import QSeries, SeriesError, SubstitutionMap

__version__ = "0.1.0"

__all__ = [
    "Fan",
    "FanError",
    "QSeries",
    "SeriesError",
    "SubstitutionMap",
    "ToricContext",
    "Wall",
    "batyrev_element",
    "compose_with_inverse",
    "delta",
    "disc_potential",
    "divisor_derivative",
    "enumerate_classes",
    "extended_mirror_factors",
    "g_function",
    "g_ij",
    "g_psi",
    "hori_vafa",
    "inverse_mirror_map",
    "is_vertex",
    "minimal_face",
    "mirror_map",
    "open_gw",
    "open_gw_divisor",
    "parse_fan",
    "seidel_element",
    "seidel_fan",
    "semi_fano_check",
    "validate",
    "__version__",
]
