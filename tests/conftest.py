"""Shared generators and checkers for the test suite.

Randomized tests draw from seeded random.Random instances so every run sees
the same instances; helpers below build lattices, fans, unimodular changes
of basis, and fibration instances of controlled size.
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

from oracles import det_bareiss
from toricmld import Fan, Lattice, ToricVariety, make_mfs


def rand_unimodular(rng: random.Random, d: int, steps: int = 8) -> list[list[int]]:
    """Random unimodular integer matrix from elementary row operations."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        elif kind == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    assert abs(det_bareiss(u)) == 1
    return u


def apply_unimodular(variety: ToricVariety, u: list[list[int]]) -> ToricVariety:
    """Transform ambient coordinates by v -> v @ u (a lattice automorphism of Z^d)."""
    d = variety.dim

    def tr(v):
        return tuple(sum(v[i] * u[i][j] for i in range(d)) for j in range(d))

    lat = Lattice.from_generators(d, [tr(row) for row in variety.lattice.basis])
    rays = [tr(r) for r in variety.fan.rays]
    fan = Fan.build(rays, [list(c.ray_indices) for c in variety.fan.max_cones])
    return ToricVariety(lat, fan)


def rand_overlattice(rng: random.Random, d: int, max_index: int) -> Lattice:
    """Cyclic overlattice Z^d + (w/r) with one unit weight, index exactly r."""
    r = rng.randint(2, max_index)
    w = [rng.randrange(r) for _ in range(d)]
    w[rng.randrange(d)] = 1
    return Lattice.from_generators(d, [tuple(Fraction(a, r) for a in w)])


def rand_affine_variety(
    rng: random.Random, d: int, max_index: int, entry_bound: int = 2
) -> ToricVariety:
    """Random single-cone variety over a random cyclic overlattice."""
    lat = rand_overlattice(rng, d, max_index)
    while True:
        rows = [
            [rng.randint(-entry_bound, entry_bound) for _ in range(d)] for _ in range(d)
        ]
        if det_bareiss(rows) == 0:
            continue
        rays = [lat.primitivize(tuple(Fraction(c) for c in row)) for row in rows]
        if len(set(rays)) == d:
            return ToricVariety(lat, Fan.build(rays, [list(range(d))]))


def standard_fiber_rays(m: int) -> list[tuple[int, ...]]:
    rays = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    rays.append(tuple(-1 for _ in range(m)))
    return rays


def rand_standard_simplex_mfs(rng: random.Random, m: int, n: int, max_index: int):
    """Fibration with the standard simplex fiber over a random cyclic base.

    The adjoined generator has a unit base weight, which pins the kernel
    lattice to Z^m, so the fiber really is the standard simplex.  Base-ray
    multiples are whatever the lattice dictates; they are computed up front
    and passed through.
    """
    r = rng.randint(2, max_index)
    w = [rng.randrange(r) for _ in range(m + n)]
    w[m] = 1
    gen = tuple(Fraction(a, r) for a in w)
    x_lat = Lattice.from_generators(m + n, [gen])
    y_lat = Lattice.from_generators(n, [gen[m:]])
    mults = []
    for l in range(n):
        ex = tuple(Fraction(int(j == m + l)) for j in range(m + n))
        ey = tuple(Fraction(int(j == l)) for j in range(n))
        mults.append(int(x_lat.primitivize(ex)[m + l] / y_lat.primitivize(ey)[l]))
    with warnings.catch_warnings():
        # base rays may legitimately re-primitivize for these random lattices
        warnings.simplefilter("ignore")
        return make_mfs(m, n, standard_fiber_rays(m), mults, [gen])
