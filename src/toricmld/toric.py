"""Fans of simplicial cones and the log-discrepancy function.

A toric variety here is a pair (lattice, fan): ``lattice`` is the lattice of
valuations N (a finite overlattice of Z^d) and ``fan`` holds the primitive
ray generators as one integer table (ints, e), rays = ints / e, plus the
index sets of the maximal cones and each full-dimensional cone's integer
inverse.  The library reads only the table; the rays as Fractions are built
on first read, for output.  Only simplicial cones are representable;
non-simplicial input is rejected when the fan is built.  Two builders
skip the checks that hold by construction: the orthant over a lattice on
its primitive axis rays, ``ToricVariety._orthant`` (the cyclic quotients
and every fibration's base), whose table and diagonal inverse are read off
one substitution per axis; and the total space of a fibration in normal
form, ``mfs._product_fan``, whose cone inverses are block diagonal, a fiber
block's inverse beside the base diagonal, and which keeps the two checks
that can fail there, duplicate rays and dependent cones.

The log discrepancy of a lattice point v is the value at v of the function
that is linear on every cone and equals 1 on each primitive ray generator.
Points outside the fan support get the explicit result ``None`` rather than
an error, because search code needs to probe and branch on that case; a fan
with a lower-dimensional maximal cone is an error, as it is for the mld.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .exactmath import (
    SingularMatrixError,
    _integral,
    _scaled_inverse,
    as_fractions,
    rank,
    solve_exact,
)
from .lattice import Lattice, NotInLatticeError, Vector, ZeroVectorError, _fractions


class DimensionMismatchError(ValueError):
    pass


class NonSimplicialError(ValueError):
    """Cone generators are dependent or a maximal cone is not full-dimensional."""


class WrongShapeError(ValueError):
    """Fan does not have the expected combinatorial shape."""


@dataclass(frozen=True)
class SimplicialCone:
    """A simplicial cone: the indices of its generators in its fan's ray table.

    ``inverse`` is (K, q), integers with inverse(generator matrix) = K / q and
    q > 0 least, for a full-dimensional cone, and None otherwise.  The cone
    keeps no generator rows: they are its fan's rays at ``ray_indices``.
    """

    ray_indices: tuple[int, ...]
    inverse: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.ray_indices)


@dataclass(frozen=True)
class Fan:
    """Maximal simplicial cones over a table of primitive rays.

    ``integral`` is the rays' one stored form, the integer table (ints, e):
    rays = ints / e, e > 0 the least such, the lcm of the rays' denominators.
    ``build`` and ``_checked`` make it as they check the fan,
    ``ToricVariety._orthant`` and ``mfs._product_fan`` in closed form, and
    every reader in the library reads it.  ``rays``, the same rays as
    Fraction tuples, is built from it on first read, for output and tests.  A fan
    constructed directly, ``Fan(integral, max_cones, dim)``, is not checked.
    """

    integral: tuple[tuple[tuple[int, ...], ...], int]
    max_cones: tuple[SimplicialCone, ...]
    dim: int

    @cached_property
    def rays(self) -> tuple[Vector, ...]:
        ints, e = self.integral
        return tuple(_fractions(row, e) for row in ints)

    @classmethod
    def build(cls, rays: Sequence[Sequence], cone_indices: Sequence[Sequence[int]]) -> "Fan":
        """Validate and assemble a fan from ray vectors and cone index lists."""
        ray_rows = [as_fractions(r) for r in rays]
        dim = len(ray_rows[0]) if ray_rows else 0
        if any(len(r) != dim for r in ray_rows):
            raise DimensionMismatchError("rays have mixed dimensions")
        ints, e = _integral(ray_rows)  # every ray read once: rays = ints / e, e least
        return cls._checked(tuple(map(tuple, ints)), e, cone_indices)

    @classmethod
    def _checked(cls, ints: tuple, e: int, cone_indices) -> "Fan":
        """The fan on the table rays = ints / e, after every check of ``build``."""
        if len(set(ints)) != len(ints):
            raise ValueError("duplicate rays in fan")
        dim = len(ints[0]) if ints else 0
        cones = []
        covered: set[int] = set()
        for idx_list in cone_indices:
            idx = tuple(idx_list)
            if len(set(idx)) != len(idx):
                raise ValueError(f"repeated ray index in cone {idx}")
            if any(i < 0 or i >= len(ints) for i in idx):
                raise ValueError(f"ray index out of range in cone {idx}")
            gens = [ints[i] for i in idx]
            inv = None
            if len(gens) == dim:
                try:  # (K, q) is canonical, so the shared e gives the cone's own
                    inv = _scaled_inverse(gens, e)
                except SingularMatrixError:
                    raise NonSimplicialError(f"cone {idx} generators are dependent") from None
            elif len(gens) > dim:
                raise NonSimplicialError(f"cone {idx} has more generators than the dimension")
            elif rank(gens) != len(gens):
                raise NonSimplicialError(f"cone {idx} generators are dependent")
            covered.update(idx)
            cones.append(SimplicialCone(idx, inv))
        if len({frozenset(c.ray_indices) for c in cones}) != len(cones):
            raise ValueError("duplicate maximal cones in fan")
        if covered != set(range(len(ints))):
            raise ValueError("every ray must appear in at least one cone")
        return cls((ints, e), tuple(cones), dim)


class ToricVariety:
    """(N, Sigma): a lattice of valuations together with a simplicial fan.

    Every ray generator must be a lattice point; generators are expected to
    be primitive in N for the log-discrepancy values to carry their usual
    geometric meaning (the fibration validator reports violations).
    """

    __slots__ = ("lattice", "fan")

    def __init__(self, lattice: Lattice, fan: Fan):
        ints, e = fan.integral  # w / e is a lattice point iff e divides all of C
        if ints and fan.dim != lattice.dim:
            raise DimensionMismatchError(
                f"fan dimension {fan.dim} does not match lattice dimension {lattice.dim}"
            )
        for w in ints:
            if any(c % e for c in lattice._substitute(w)):
                raise NotInLatticeError(f"ray {_fractions(w, e)!r} is not a lattice point")
        self.lattice = lattice
        self.fan = fan

    @classmethod
    def _on_lattice_points(cls, lattice: Lattice, fan: Fan) -> "ToricVariety":
        """The variety on rays the caller has just made lattice points of
        ``lattice`` (``Lattice.primitivize``), so nothing is re-checked."""
        var = cls.__new__(cls)
        var.lattice = lattice
        var.fan = fan
        return var

    @classmethod
    def _orthant(cls, lattice: Lattice) -> "ToricVariety":
        """The nonnegative orthant over ``lattice`` on its primitive axis rays,
        in closed form.  N contains Z^d, so e_i / g_i is primitive for g_i the
        gcd of the coordinates of e_i: the table is (L / g_i) e_i over
        L = lcm(g), and the cone's inverse is diag(g) over 1.  Every check of
        ``Fan._checked`` holds by construction, so none runs."""
        d = lattice.dim
        g = [math.gcd(*lattice._substitute([int(i == j) for j in range(d)])) for i in range(d)]
        e = math.lcm(*g)
        ints = tuple(tuple(e // g[i] if i == j else 0 for j in range(d)) for i in range(d))
        k = tuple(tuple(g[i] if i == j else 0 for j in range(d)) for i in range(d))
        fan = Fan((ints, e), (SimplicialCone(tuple(range(d)), (k, 1)),), d)
        return cls._on_lattice_points(lattice, fan)

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def rays_primitive(self) -> list[bool]:
        """Whether each ray generator is primitive: for the fan's table, its
        coordinates C / e have gcd(C) = e."""
        ints, e = self.fan.integral
        return [self.lattice._scaled_content(w, e)[1] == e for w in ints]

    def __repr__(self) -> str:
        return (
            f"ToricVariety(dim={self.dim}, rays={len(self.fan.integral[0])}, "
            f"max_cones={len(self.fan.max_cones)}, index={self.lattice.index_over_standard})"
        )


def _require_full_dimensional(x_var: ToricVariety) -> None:
    """Reject a fan whose maximal cones are not all full-dimensional."""
    for cone in x_var.fan.max_cones:
        if cone.dim != x_var.dim:
            raise NonSimplicialError(f"maximal cone {cone.ray_indices} is not full-dimensional")


def _locate(x_var: ToricVariety, w: Sequence[int], e: int) -> Optional[tuple[int, list[int], int]]:
    """(ci, nums, s): the lowest-index maximal cone ci containing the point
    w / e, for integers w and e > 0, and its barycentrics there, nums / s.
    A cone is left at its first negative barycentric."""
    dim = x_var.dim
    if len(w) != dim:
        raise DimensionMismatchError(f"vector has dimension {len(w)}, expected {dim}")
    _require_full_dimensional(x_var)
    cols = range(dim)
    for ci, cone in enumerate(x_var.fan.max_cones):
        k, q = cone.inverse
        nums = []
        for j in cols:
            c = sum([w[i] * k[i][j] for i in cols])
            if c < 0:
                break
            nums.append(c)
        else:
            return ci, nums, e * q
    return None


def log_discrepancy(x_var: ToricVariety, v: Sequence) -> Optional[Fraction]:
    """Value of the piecewise-linear discrepancy function at lattice point v.

    Returns the sum of barycentric coordinates in any maximal cone containing
    v (the value does not depend on the choice), or None when v is outside
    the fan support.  Raises NonSimplicialError on a fan with a maximal cone
    that is not full-dimensional, as ``mld`` does.
    """
    vv = as_fractions(v)
    if all(c == 0 for c in vv):
        raise ZeroVectorError("log discrepancy is undefined at the origin")
    if not x_var.lattice.contains(vv):
        raise NotInLatticeError(f"{v!r} is not a lattice point")
    (w,), e = _integral([vv])
    hit = _locate(x_var, w, e)
    return None if hit is None else Fraction(sum(hit[1]), hit[2])


def find_containing_cone(x_var: ToricVariety, v: Sequence) -> Optional[int]:
    """Lowest index of a maximal cone containing v, or None; raises as ``log_discrepancy``."""
    (w,), e = _integral([as_fractions(v)])
    hit = _locate(x_var, w, e)
    return None if hit is None else hit[0]


def origin_barycentrics(vertices: Sequence[Vector]) -> Optional[tuple[Fraction, ...]]:
    """Solve sum y_i * V_i = 0, sum y_i = 1; None when the system is singular."""
    k = len(vertices)
    dim = len(vertices[0])
    if k != dim + 1:
        raise WrongShapeError(f"need {dim + 1} vertices in dimension {dim}")
    a = [[vertices[i][j] for i in range(k)] for j in range(dim)]
    a.append([1] * k)
    b = [0] * dim + [1]
    try:
        return tuple(solve_exact(a, b))
    except SingularMatrixError:
        return None
