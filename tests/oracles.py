"""Reference searches that the library no longer uses, kept as test oracles.

``dirichlet_pair`` is the grid pair search over arbitrary points on the torus
that ``find_witness`` used before it scanned multiples directly;
``scan_oracle_pair`` runs it on the explicit multiples k*b mod Z^m.
``first_multiple_loop`` is the per-k integer loop that ``find_witness`` ran
before its scan was streamed.

``fiber_oracle`` builds the generic fiber the way ``ToricMfs.fiber`` did
before it read the fiber off the total space's Hermite form and cone
inverses: the kernel lattice from a Smith-form kernel (``integer_row_kernel``),
the simplex fan from ``Fan.build``, and the origin's barycentrics from an
exact solve.  ``generic_fiber_group`` is the invariant-factor group of the
kernel lattice over Z^m, which the library never needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from itertools import combinations

from toricmld import Fan, Lattice, NoPairFoundError, ToricVariety, find_witness, lift_to_X, mld
from toricmld.exactmath import invariant_factors, iroot_floor, snf
from toricmld.lattice import Vector, _frac
from toricmld.mfs import FiberData, InvalidMfsError, ToricMfs, _kernel_ray_indices
from toricmld.toric import origin_barycentrics


def _pair_search(
    points: Sequence[Vector],
    qualifies: Callable[[int, int], bool],
    g: int,
) -> Optional[tuple[int, int]]:
    """First pair (smallest j, then smallest i < j) satisfying ``qualifies``.

    Buckets the torus into g cells per axis; any pair within the threshold
    1/(g-1) differs by at most 2 cells per axis, so scanning the 5^m
    neighborhood of each point sees every qualifying pair.
    """
    if not points:
        return None
    m = len(points[0])
    offsets = [()]
    for _ in range(m):
        offsets = [o + (s,) for o in offsets for s in (-2, -1, 0, 1, 2)]
    keys = [tuple(int(math.floor(c * g)) % g for c in p) for p in points]
    cells: dict[tuple[int, ...], list[int]] = {}
    for idx, key in enumerate(keys):
        cells.setdefault(key, []).append(idx)
    for j in range(1, len(points)):
        seen: set[int] = set()
        for off in offsets:
            cell = tuple((keys[j][l] + off[l]) % g for l in range(m))
            for i in cells.get(cell, ()):
                if i < j:
                    seen.add(i)
        for i in sorted(seen):
            if qualifies(i, j):
                return (i, j)
    return None


def _min_grid(threshold_power: Fraction, exponent: int) -> int:
    """Smallest g >= 1 with g**exponent >= threshold_power."""
    seed = iroot_floor(
        threshold_power.numerator // threshold_power.denominator, exponent
    )
    g = max(seed, 1)
    while g**exponent < threshold_power:
        g += 1
    return g


def dirichlet_pair(points: Sequence[Sequence], t: Fraction) -> tuple[int, int]:
    """Indices i < j with every coordinate of points[i] - points[j] within
    t^(-1/m) on the torus R^m / Z^m.

    Comparisons stay exact: gap <= t^(-1/m) iff gap^m * t <= 1.  A pair is
    guaranteed whenever len(points) > t.  Deterministic result: smallest j,
    then smallest i.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("pigeonhole parameter must be positive")
    if not points:
        raise NoPairFoundError("no points supplied")
    pts = [tuple(_frac(Fraction(c)) for c in p) for p in points]
    m = len(pts[0])
    if any(len(p) != m for p in pts):
        raise ValueError("points have mixed dimensions")

    def qualifies(i: int, j: int) -> bool:
        gaps = [_frac(a - b) for a, b in zip(pts[i], pts[j])]
        worst = max(min(f, 1 - f) for f in gaps)
        return worst**m * t <= 1

    g = _min_grid(t, m)
    found = _pair_search(pts, qualifies, g)
    if found is None:
        raise NoPairFoundError(
            f"no pair within t^(-1/m) among {len(pts)} points (need more than t={t})"
        )
    return found


def scan_oracle_pair(mfs, delta):
    """The pair that the grid search of ``dirichlet_pair`` picks among the
    explicit multiples k*b mod Z^m, k = 0..T.  A zero coordinate pads the
    points to dimension m+1 so its test gap^(m+1) * (1/delta) <= 1 is the
    witness threshold."""
    m = mfs.m
    b = lift_to_X(mfs, mld(mfs.y).witness)[:m]
    t = int(find_witness(mfs, delta).t)
    points = [tuple((k * c) % 1 for c in b) + (Fraction(0),) for k in range(t + 1)]
    return dirichlet_pair(points, 1 / Fraction(delta))


def first_multiple_loop(step: Sequence[int], d: int, num: int, den: int, last: int) -> Optional[int]:
    """Smallest k in 1..last with every min(x, d - x)^(m+1) * den <= num *
    d^(m+1), x = k * s mod d over the m steps s, or None: one multiple at a
    time, with the threshold as an integer-power comparison."""
    m = len(step)
    limit = num * d ** (m + 1)
    cur = [0] * m
    for k in range(1, last + 1):
        cur = [(x + s) % d for x, s in zip(cur, step)]
        if max(min(x, d - x) for x in cur) ** (m + 1) * den <= limit:
            return k
    return None


def integer_row_kernel(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the left integer kernel {x in Z^rows : x @ m = 0}.

    The returned rows extend to a basis of Z^rows (they come from a
    unimodular transform), so the kernel is returned saturated.
    """
    s, u, _ = snf(m)
    rows = len(m)
    cols = len(m[0]) if m else 0
    kernel = []
    for i in range(rows):
        diag = s[i][i] if i < min(rows, cols) else 0
        if diag == 0:
            kernel.append(list(u[i]))
    return kernel


def fiber_oracle(mfs: ToricMfs) -> FiberData:
    """The generic fiber built from scratch: Smith-form kernel, ``Fan.build``
    and an exact solve for the barycentrics."""
    if not mfs.report.overall:
        failed = [c.name for c in mfs.report.checks if not c.passed]
        raise InvalidMfsError(f"normal-form validation failed: {failed}")
    m = mfs.m
    # kernel of the projection restricted to the lattice, as a sublattice of Q^m
    kernel_rows = integer_row_kernel([row[m:] for row in mfs.x.lattice.rows])
    ambient = [mfs.x.lattice.to_ambient(row) for row in kernel_rows]
    z_lattice = Lattice.from_generators(m, [v[:m] for v in ambient])
    verts = [tuple(mfs.x.fan.rays[i][:m]) for i in _kernel_ray_indices(mfs)]
    fan = Fan.build(verts, [list(c) for c in combinations(range(m + 1), m)])
    ys = origin_barycentrics(verts)
    return FiberData(z=ToricVariety(z_lattice, fan), simplex_vertices=tuple(verts), origin_barycentrics=ys)


def generic_fiber_group(mfs: ToricMfs) -> tuple[int, ...]:
    """Invariant factors of the fiber lattice modulo the standard fiber
    lattice Z^m (the finite group acting on the fixed model fiber)."""
    z = mfs.fiber.z.lattice
    rows = []
    for i in range(mfs.m):
        e = tuple(Fraction(int(i == j)) for j in range(mfs.m))
        rows.append([int(x) for x in z.coords(e)])
    return tuple(invariant_factors(rows))
