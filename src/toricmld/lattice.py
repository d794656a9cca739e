"""Finite overlattices of Z^d and their quotient groups.

A :class:`Lattice` is a rank-d subgroup N of Q^d containing Z^d, stored in
a canonical integer form so equal lattices compare equal: D, the lcm of the
generators' denominators (the least D with D N inside Z^d), and the d x d
upper-triangular Hermite rows of the integer lattice D N.  Equality and
hashing use (d, D, rows); the rational basis is those rows divided by D.
``from_generators`` writes D N as span(D gens) + D Z^d and takes its rows
from ``hnf_mod``, the Hermite form modulo D, with no transform and no
Fraction; such an N contains Z^d by construction.
Coordinates come from one integer substitution on the triangular rows: for
v = w / e they are C / e with C @ rows = D w, and each division is exact
because N contains Z^d, so ``coords``, ``contains`` and ``primitivize`` form
no inverse and no Fraction per step, and the gcd g of C tells whether v is
a lattice point (e divides g) and primitive (g = e).  The substitution
itself, ``_substitute``, takes the integer vector w = e v, so a caller that
holds integer rows (a fan's ray table) reads no Fraction, and an error names
such a point by building its Fractions then; a point given as Fractions is
read into (w, e) by ``exactmath._integral``, as generators are.  The one
integer primitivization, ``_primitive_scaled``, returns D times the
primitive point, and ``primitivize`` divides it by D.  Every lattice is
built by ``from_generators`` or, from integer rows over a denominator, by
``_from_scaled``.

``quotient_group`` reads N / B, for a full-rank sublattice B, off the Smith
normal form of B's coordinate matrix; ``reps_scaled`` counts one
representative per coset in mixed radix, as integer sublattice coordinates
over a common denominator in [0,1)^d.  Only tests list a group: ``mld``
searches each cone's coset lattice in Hermite order instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

# hnf is unused here: it stays importable as lattice.hnf while perfbench's tests bind it
from .exactmath import _integral, _least_terms, as_fractions, hnf, hnf_mod, snf

Vector = tuple[Fraction, ...]


class LatticeError(ValueError):
    pass


class NotInLatticeError(LatticeError):
    """A vector expected to be a lattice point is not."""


class NotSublatticeError(LatticeError):
    """A proposed sublattice basis row is not a lattice point."""


class DegenerateBasisError(LatticeError):
    """Proposed sublattice basis rows are linearly dependent."""


class ZeroVectorError(LatticeError):
    """The zero vector is not allowed here."""


def _as_vector(v: Sequence, dim: int) -> Vector:
    if len(v) != dim:
        raise ValueError(f"expected a vector of dimension {dim}, got {len(v)}")
    return as_fractions(v)


def _fractions(w: Sequence[int], e: int) -> Vector:
    """The point w / e as Fractions, for integers w and e > 0: how a point
    held as integers is returned or named in an error."""
    return tuple(Fraction(x, e) for x in w)


class Lattice:
    """A finite-index overlattice N of Z^d, N subset of Q^d; basis = rows / denominator."""

    __slots__ = ("dim", "denominator", "rows")

    @classmethod
    def standard(cls, dim: int) -> "Lattice":
        return cls.from_generators(dim, [])

    @classmethod
    def from_generators(cls, dim: int, gens: Iterable[Sequence]) -> "Lattice":
        """Smallest lattice containing Z^d and all of gens, in canonical form."""
        if dim < 1:
            raise ValueError("dimension must be positive")
        rows, denom = _integral([_as_vector(g, dim) for g in gens])
        return cls._from_scaled(dim, denom, rows)

    @classmethod
    def _from_scaled(cls, dim: int, denom: int, rows: Sequence[Sequence[int]]) -> "Lattice":
        """``from_generators`` of the rows / denom, for integer rows: in lowest
        terms rows / denom = A / D, and D N = span(A) + D Z^d."""
        rows, denom = _least_terms(rows, denom)
        lat = cls()
        lat.dim = dim
        lat.denominator = denom
        lat.rows = tuple(map(tuple, hnf_mod(rows or [[0] * dim], denom)))
        return lat

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The rational basis rows / D."""
        return tuple(_fractions(row, self.denominator) for row in self.rows)

    def _read(self, v: Sequence) -> tuple[list[int], int]:
        """(w, e): integers with v = w / e, e the lcm of v's denominators."""
        (w,), e = _integral([_as_vector(v, self.dim)])
        return w, e

    def _solve(self, v: Sequence) -> tuple[list[int], int]:
        """(C, e): integers with coords(v) = C / e, e the lcm of v's denominators."""
        w, e = self._read(v)
        return self._substitute(w), e

    def _substitute(self, w: Sequence[int]) -> list[int]:
        """C with C @ rows = D w, for an integer vector w, by substitution on
        the triangular rows.  Every division is exact: N contains Z^d, so
        D rows^-1 is an integer matrix."""
        denom, h = self.denominator, self.rows
        c: list[int] = []
        for j, x in enumerate(w):
            t = x * denom
            for i in range(j):
                t -= c[i] * h[i][j]
            c.append(t // h[j][j])
        return c

    def coords(self, v: Sequence) -> Vector:
        """Coordinates c of v in the basis (rational): c @ rows = D v."""
        return _fractions(*self._solve(v))

    def contains(self, v: Sequence) -> bool:
        c, e = self._solve(v)
        return all(x % e == 0 for x in c)

    @property
    def index_over_standard(self) -> int:
        """The group order [N : Z^d]."""
        return self.denominator**self.dim // math.prod(self.rows[i][i] for i in range(self.dim))

    def _scaled_content(self, w: Sequence[int], e: int, v: Optional[Sequence] = None) -> tuple[list[int], int]:
        """(C, g) for a nonzero lattice point v = w / e, from integers w and
        e > 0, with coordinates C / e: g is the gcd of C, so v is g / e times
        the primitive point C / g, and v is primitive iff g = e.  A lattice
        point iff e divides g.  v only names the point in errors, w / e when
        not given."""
        c = self._substitute(w)
        g = math.gcd(*c)
        if not g:
            raise ZeroVectorError("cannot primitivize the zero vector")
        if g % e:
            name = _fractions(w, e) if v is None else v
            raise NotInLatticeError(f"{name!r} is not a lattice point")
        return c, g

    def _primitive_scaled(self, w: Sequence[int], e: int, v: Optional[Sequence] = None) -> tuple[int, ...]:
        """D times the shortest lattice point on the ray of v = w / e, for
        integers w and e > 0: (C / g) @ rows, summed over i <= j as the rows
        are upper triangular.  v names the point in errors, as in
        ``_scaled_content``."""
        c, g = self._scaled_content(w, e, v)
        h = self.rows
        c = [x // g for x in c]
        return tuple(sum(c[i] * h[i][j] for i in range(j + 1)) for j in range(self.dim))

    def primitivize(self, v: Sequence) -> Vector:
        """Shortest lattice point on the ray spanned by v (same direction):
        ``_primitive_scaled`` over D."""
        return _fractions(self._primitive_scaled(*self._read(v), v), self.denominator)

    def quotient_group(self, sub_basis: Sequence[Sequence]) -> "QuotientGroup":
        """Quotient N / <rows of sub_basis>, for a full-rank sublattice."""
        rows = [_as_vector(r, self.dim) for r in sub_basis]
        if len(rows) != self.dim:
            raise DegenerateBasisError("sublattice basis must have d rows")
        coord_rows = []
        for r in rows:
            c = self.coords(r)
            if any(x.denominator != 1 for x in c):
                raise NotSublatticeError(f"{r!r} is not a lattice point")
            coord_rows.append([int(x) for x in c])
        s, u = snf(coord_rows)
        factors = tuple(s[i][i] for i in range(self.dim))
        if 0 in factors:  # the Smith diagonal holds a 0 iff det = 0
            raise DegenerateBasisError("sublattice basis rows are linearly dependent")
        order = math.prod(factors)
        denom = math.lcm(*factors)
        # Coset reps in sub-basis coordinates are frac(sum_i t_i * u[i] / s_i),
        # t_i in [0, s_i); scale by denom to keep everything integral.
        gen_rows = tuple(
            tuple((denom // factors[i]) * u[i][j] % denom for j in range(self.dim))
            for i in range(self.dim)
        )
        return QuotientGroup(
            order=order,
            invariant_factors=factors,
            denominator=denom,
            generator_rows=gen_rows,
        )

    def __eq__(self, other) -> bool:
        key = (self.dim, self.denominator, self.rows)
        return isinstance(other, Lattice) and key == (other.dim, other.denominator, other.rows)

    def __hash__(self) -> int:
        return hash((self.dim, self.denominator, self.rows))

    def __repr__(self) -> str:
        rows = ", ".join("(" + ", ".join(str(x) for x in row) + ")" for row in self.basis)
        return f"Lattice(dim={self.dim}, basis=[{rows}])"


@dataclass(frozen=True)
class QuotientGroup:
    """Finite quotient of a lattice by a full-rank sublattice.

    ``generator_rows[i] / denominator`` is the i-th invariant-factor
    generator written in sublattice coordinates; every coset representative
    is an integer combination of these, reduced mod 1.
    """

    order: int
    invariant_factors: tuple[int, ...]
    denominator: int
    generator_rows: tuple[tuple[int, ...], ...] = field(repr=False)

    def reps_scaled(self) -> Iterator[tuple[int, ...]]:
        """Representatives in sublattice coordinates, scaled by denominator.

        Yields integer tuples num with rep = (num / denominator) @ B for the
        sublattice basis B given to ``quotient_group``, each entry in
        [0, denominator).  First yield is the zero tuple.
        Enumeration order is a fixed mixed-radix count over the invariant
        factors, the last one least significant, so repeated runs agree.
        """
        denom, rows = self.denominator, self.generator_rows
        cols = range(len(rows))
        for digits in product(*map(range, self.invariant_factors)):
            yield tuple(sum(t * row[j] for t, row in zip(digits, rows)) % denom for j in cols)
