"""Reference searches that the library no longer uses, kept as test oracles.

``dirichlet_pair`` is the grid pair search over arbitrary points on the torus
that ``find_witness`` used before it scanned multiples directly;
``scan_oracle_pair`` runs it on the explicit multiples k*b mod Z^m.
``first_multiple_loop`` is the per-k integer loop that ``find_witness`` ran
before its scan was streamed.

``fiber_oracle`` builds the generic fiber the way ``generic_fiber`` did
before it read the fiber off the total space's Hermite form and cone
inverses: the kernel lattice from a Smith-form kernel (``integer_row_kernel``),
the simplex fan from ``Fan.build``, and the origin's barycentrics from an
exact solve.  ``generic_fiber_group`` is the invariant-factor group of the
kernel lattice over Z^m, which the library never needed.

``box_scan_oracle`` is ``mld_bruteforce`` before it searched in rounds of
growing value: one walk of each cone's whole ambient box, which is the
oracle of the oracle.

``det_bareiss`` is the triangular Bareiss determinant that ``exactmath.det``
used before it read the determinant off the Gauss-Jordan's last pivot; the
tests keep it as the reference determinant of integer matrices.

``effective_delta_oracle`` is ``witness.effective_delta`` before it kept the
running maximum as an integer pair: the Fraction maximum of each fiber
cone's coefficient 1-norm.

``witness_report_oracle`` is ``find_witness`` as it was built over
Fractions: ``lift_oracle``'s lift, the shift summed over the sheared base
rays, ``first_multiple_loop`` over the least denominator of b', and Q's cone
and ld(Q) from ``find_containing_cone`` and ``log_discrepancy``, with C from
``effective_delta_oracle`` on ``fiber_oracle``'s fiber.

``lift_oracle`` is ``witness.lift_to_X`` before ``hnf`` carried the fiber
blocks through its row operations: it builds the whole unimodular transform
U, solves for the coordinates y U of the preimage in the rows of D N, and
reads the fiber part off their product with those rows.

``dense_gauss_jordan`` is the fraction-free Gauss-Jordan step that updates
every row at every pivot, before rows already zero in the pivot column were
only rescaled.  ``mat_mul`` is the matrix product that ``snf`` took of each
row transform before ``hnf`` carried U through its row operations, and
``vec_mat`` the row-vector product, which the library no longer takes.
``checked_lattice_oracle`` is the checked ``Lattice(dim, gens)`` constructor
that ``from_generators`` replaced: a full ``hnf`` of the generators and a
substitution per e_j to check that N contains Z^d.
``solve_oracle`` and ``primitivize_oracle`` are ``Lattice._solve`` and
``Lattice.primitivize`` before the substitution read each entry once and the
product skipped the zeros below the triangular rows; ``to_ambient_oracle``,
the point with given lattice coordinates, is what ``Lattice.to_ambient``
computed before it left the library, which never read it.
``rays_primitive_oracle`` is ``ToricVariety.rays_primitive`` when it
primitivized every ray and compared the Fraction tuples.

``klein_mld_2d`` is no former library code: it reads the mld of a 2-d cone
off the Hirzebruch-Jung continued fraction of its quotient, in O(log r)
steps, so it checks ``mld`` at orders far past the brute force's reach.

``coset_lattice_oracle`` is ``mld._coset_lattice`` before an identity cone
read its coset lattice off the lattice's rows and Z^d skipped the product:
every cone takes (H K) over D_N q to lowest terms and its Hermite form mod D.

``surjectivity_image_oracle`` is F(N) as ``lattice_surjectivity`` read it
before it took the base blocks of N's own Hermite rows: from the Hermite
form modulo D of D N with the base coordinates first, whose top n rows span
D F(N) by their base blocks.

``cone_generators`` reads a cone's generator rows off its fan's rays, which
a ``SimplicialCone`` does not store.  ``with_guard`` runs a library call
under a given work guard, which the library reads only from ``GUARD``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Callable, Optional, Sequence

from itertools import combinations

from toricmld import Fan, Lattice, NoPairFoundError, ToricVariety, find_witness, lift_to_X, mld
from toricmld.exactmath import hnf, hnf_mod, invariant_factors, iroot_floor, snf
from toricmld.lattice import DegenerateBasisError, LatticeError, NotInLatticeError, Vector, ZeroVectorError
from toricmld.mfs import FiberData, InvalidMfsError, ToricMfs, generic_fiber
from toricmld.mld import GUARD, MldResult, TooLargeError, _check_cones, _scaled_generators
from toricmld.toric import find_containing_cone, log_discrepancy, origin_barycentrics
from toricmld.witness import EffectiveDelta, NotInBaseLatticeError, WitnessReport


def cone_generators(fan: Fan, cone) -> tuple[Vector, ...]:
    """The generator rows of ``cone``, one of ``fan``'s cones, as Fractions."""
    return tuple(fan.rays[i] for i in cone.ray_indices)


def coset_lattice_oracle(x_var: ToricVariety, ci: int):
    """(D, h, gint) of cone ``ci`` as ``mld._coset_lattice`` gives it, always
    through the product H K and ``hnf_mod``; None when D = 1."""
    lat = x_var.lattice
    k, q = x_var.fan.max_cones[ci].inverse
    bary = [vec_mat(row, k) for row in lat.rows]
    common = math.gcd(lat.denominator * q, *(x for row in bary for x in row))
    denom = lat.denominator * q // common
    if denom == 1:
        return None
    return denom, hnf_mod([[x // common for x in row] for row in bary], denom), _scaled_generators(x_var, ci)


def surjectivity_image_oracle(lat: Lattice, m: int) -> Lattice:
    """The image of N under the projection dropping the first m coordinates."""
    n = lat.dim - m
    base_first = hnf_mod([row[m:] + row[:m] for row in lat.rows], lat.denominator)
    return Lattice._from_scaled(n, lat.denominator, [row[:n] for row in base_first[:n]])


def with_guard(guard: int, fn: Callable, *args):
    """``fn(*args)`` with ``GUARD`` set to ``guard`` in this context, then reset."""
    token = GUARD.set(guard)
    try:
        return fn(*args)
    finally:
        GUARD.reset(token)


def _frac(x: Fraction) -> Fraction:
    return x - math.floor(x)


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


def witness_report_oracle(mfs: ToricMfs, delta: Optional[Fraction] = None) -> WitnessReport:
    """The report of ``find_witness(mfs, delta)``, every field built over
    Fractions: scan b' = b - s, s = sum_l (a_l / t_l) s_l over the base rays
    (s_l, t_l e_l) with s_l != 0, over b''s least denominator d, one multiple
    at a time, and locate Q = k P less an integer vector by the public
    queries."""
    base = mld(mfs.y)
    delta = base.value if delta is None else Fraction(delta)
    m, n = mfs.m, mfs.n
    coeff = effective_delta_oracle(fiber_oracle(mfs)).c_z + 1
    a = base.witness
    p = lift_oracle(mfs, a)
    shift = [Fraction(0)] * m
    for w in mfs.x.fan.rays:
        if any(w[m:]) and any(w[:m]):
            l = next(i for i in range(n) if w[m + i])
            shift = [s + a[l] * w[j] / w[m + l] for j, s in enumerate(shift)]
    b = [x - s for x, s in zip(p[:m], shift)]
    t = max(iroot_floor(delta.denominator**m // delta.numerator**m, m + 1), 1)
    d = math.lcm(*(x.denominator for x in b))
    k = first_multiple_loop([int(x * d) for x in b], d, delta.numerator, delta.denominator, t)
    if k is None:
        raise NoPairFoundError("no multiple k <= T is close enough to the origin")
    centred = ((k * x) % 1 for x in b)
    q_fiber = tuple((c if 2 * c <= 1 else c - 1) + k * s for c, s in zip(centred, shift))
    q = q_fiber + tuple(k * c for c in a)
    ld_q = log_discrepancy(mfs.x, q)
    return WitnessReport(
        base_point=a,
        lift=p,
        t=Fraction(t),
        pair=(0, k),
        q=q,
        q_fiber=q_fiber,
        cone_index=find_containing_cone(mfs.x, q),
        ld_q=ld_q,
        delta=delta,
        bound_coefficient=coeff,
        bound_satisfied=ld_q ** (m + 1) <= coeff ** (m + 1) * delta,
    )


def integer_row_kernel(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the left integer kernel {x in Z^rows : x @ m = 0}.

    The returned rows extend to a basis of Z^rows (they come from a
    unimodular transform), so the kernel is returned saturated.
    """
    s, u = snf(m)
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
    ambient = [to_ambient_oracle(mfs.x.lattice, row) for row in kernel_rows]
    z_lattice = Lattice.from_generators(m, [v[:m] for v in ambient])
    verts = [tuple(r[:m]) for r in mfs.x.fan.rays if not any(r[m:])]
    fan = Fan.build(verts, [list(c) for c in combinations(range(m + 1), m)])
    ys = origin_barycentrics(verts)
    return FiberData(z=ToricVariety(z_lattice, fan), simplex_vertices=tuple(verts), origin_barycentrics=ys)


def generic_fiber_group(mfs: ToricMfs) -> tuple[int, ...]:
    """Invariant factors of the fiber lattice modulo the standard fiber
    lattice Z^m (the finite group acting on the fixed model fiber)."""
    z = generic_fiber(mfs).z.lattice
    rows = []
    for i in range(mfs.m):
        e = tuple(Fraction(int(i == j)) for j in range(mfs.m))
        rows.append([int(x) for x in z.coords(e)])
    return tuple(invariant_factors(rows))


def lift_oracle(mfs: ToricMfs, a: Sequence) -> Vector:
    """Preimage of base lattice point A with fiber coordinates in [0,1), by
    the full transform: y @ H = D A against H = U B for the base blocks B of
    the rows of D N, then the fiber part of ((y U) @ rows mod D) / D."""
    m, n = mfs.m, mfs.n
    av = tuple(Fraction(c) for c in a)
    if len(av) != n:
        raise ValueError(f"base point has dimension {len(av)}, expected {n}")
    if all(c == 0 for c in av):
        raise ZeroVectorError("cannot lift the zero point: witnesses must be nonzero")
    lat = mfs.x.lattice
    d = m + n
    if any(lat.denominator % c.denominator for c in av):
        raise NotInBaseLatticeError(f"{a!r} is not in the base lattice")
    target = [int(c * lat.denominator) for c in av]
    h, u = hnf([row[m:] for row in lat.rows])
    y = [0] * d
    residual = list(target)
    for i in range(d):
        pivot_col = next((j for j in range(n) if h[i][j] != 0), None)
        if pivot_col is None:
            break
        if residual[pivot_col] % h[i][pivot_col] != 0:
            raise NotInBaseLatticeError(f"{a!r} is not in the base lattice")
        q = residual[pivot_col] // h[i][pivot_col]
        y[i] = q
        if q:
            residual = [residual[j] - q * h[i][j] for j in range(n)]
    if any(residual):
        raise NotInBaseLatticeError(f"{a!r} is not in the base lattice")
    coeffs = [sum(y[i] * u[i][j] for i in range(d)) for j in range(d)]
    denom = lat.denominator
    fiber = (sum(c * row[j] for c, row in zip(coeffs, lat.rows)) % denom for j in range(m))
    return tuple(Fraction(x, denom) for x in fiber) + av


def effective_delta_oracle(fiber: FiberData) -> EffectiveDelta:
    c_z = Fraction(0)
    for cone in fiber.z.fan.max_cones:
        k, q = cone.inverse
        c_z = max(c_z, Fraction(sum(abs(sum(row)) for row in k), q))
    return EffectiveDelta(c_z=c_z, m=fiber.z.dim)


def box_scan_oracle(x_var: ToricVariety) -> MldResult:
    """``mld_bruteforce`` as it was before its rounds: scan all lattice points
    with barycentric coordinates in [0, 1] for every maximal cone.

    Sweeps the ambient bounding box of each scaled cone body level by level,
    one triangular lattice row per level, carrying the barycentric numerators
    (point @ K) down the levels by adding each row's numerators.  On the
    innermost row they are linear in the row index c, so c is clipped to
    0 <= numerator <= D q in closed form, and the row's minimum is at an
    end of that range: the origin is skipped, and on ties the smallest c (the
    lex-smallest point) wins.  Every box point counts against ``GUARD``, a
    row at a time; past it TooLargeError is raised.
    The least (value, witness) pair is kept as Fractions, capped at 1 by the
    lex-least ray, and its cone is located by
    ``find_containing_cone``: none of the library's integer incumbent.
    """
    guard = GUARD.get()
    _check_cones(x_var)
    d = x_var.dim
    last = d - 1
    # lattice points are (c @ h_rows) / denom for integer c
    denom, h_rows = x_var.lattice.denominator, x_var.lattice.rows
    best: Optional[tuple[Fraction, Vector]] = None
    visited = 0

    for ci in range(len(x_var.fan.max_cones)):
        k, q = x_var.fan.max_cones[ci].inverse
        scale = denom * q  # barycentric numerators live over this, in [0, scale]
        # the ambient box of the cone body, and each row's numerators
        g = _scaled_generators(x_var, ci)
        lo = [sum(min(row[j], 0) for row in g) for j in range(d)]
        hi = [sum(max(row[j], 0) for row in g) for j in range(d)]
        row_nums = [[sum(h[a] * k[a][b] for a in range(d)) for b in range(d)] for h in h_rows]
        slope = sum(row_nums[last])

        cone_best: Optional[int] = None
        cone_witness: Optional[list[int]] = None

        def scan(i: int, partial: list[int], nums: list[int]) -> None:
            # partial: the point so far, scaled by denom; nums: partial @ k
            nonlocal visited, cone_best, cone_witness
            step = h_rows[i][i]
            c_lo = -((partial[i] - lo[i]) // step)
            c_hi = (hi[i] - partial[i]) // step
            if c_lo > c_hi:
                return
            if i < last:
                h, n = h_rows[i], row_nums[i]
                partial = [a + c_lo * x for a, x in zip(partial, h)]
                nums = [a + c_lo * x for a, x in zip(nums, n)]
                for _ in range(c_lo, c_hi + 1):
                    scan(i + 1, partial, nums)
                    partial = list(map(add, partial, h))
                    nums = list(map(add, nums, n))
                return
            visited += c_hi - c_lo + 1
            if visited > guard:
                raise TooLargeError(f"enumeration exceeded guard of {guard} points")
            for base, s in zip(nums, row_nums[last]):
                if s > 0:  # 0 <= base + c s <= scale
                    c_lo = max(c_lo, -(base // s))
                    c_hi = min(c_hi, (scale - base) // s)
                elif s < 0:
                    c_lo = max(c_lo, -((scale - base) // -s))
                    c_hi = min(c_hi, base // -s)
                elif not 0 <= base <= scale:
                    return
            c = c_lo if slope >= 0 else c_hi
            total = sum(nums) + c * slope
            if total == 0:  # the origin; its neighbour inward is the next best
                c += 1 if slope >= 0 else -1
                total += abs(slope)
            if not c_lo <= c <= c_hi or (cone_best is not None and total > cone_best):
                return
            point = partial[:last] + [partial[last] + c * step]
            if cone_best is None or total < cone_best or point < cone_witness:
                cone_best = total
                cone_witness = point

        scan(0, [0] * d, [0] * d)
        if cone_best is not None:
            cand = (Fraction(cone_best, scale), tuple(Fraction(x, denom) for x in cone_witness))
            if best is None or cand < best:
                best = cand
    ray = (Fraction(1), min(x_var.fan.rays))  # every ray has value 1
    if best is None or ray < best:
        best = ray
    value, witness = best
    return MldResult(value, witness, find_containing_cone(x_var, witness), "bruteforce")


def det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination: every intermediate value is an exact minor."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dense_gauss_jordan(a: list[list[int]]) -> tuple[list[int], int]:
    """``exactmath._gauss_jordan`` with the full Bareiss update of every row
    at every pivot, in place: (pivot columns, sign of the row permutation)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        p, row_r = a[r][c], a[r]
        for i in range(rows):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row_r)]
        prev = p
        pivots.append(c)
    return pivots, sign


def solve_oracle(lat: Lattice, v: Sequence) -> tuple[list[int], int]:
    """(C, e) with coords(v) = C / e, by substitution on the triangular rows."""
    if len(v) != lat.dim:
        raise ValueError(f"expected a vector of dimension {lat.dim}, got {len(v)}")
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    e = math.lcm(*(x.denominator for x in v))
    h = lat.rows
    c: list[int] = []
    for j, x in enumerate(v):
        t = x.numerator * (e // x.denominator) * lat.denominator
        cj, rest = divmod(t - sum(c[i] * h[i][j] for i in range(j)), h[j][j])
        if rest:
            raise LatticeError("basis does not contain Z^d with finite index")
        c.append(cj)
    return c, e


def mat_mul(a, b):
    """Matrix product a @ b for list-of-rows matrices."""
    cols_b = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols_b)]
        for i in range(len(a))
    ]


def vec_mat(v: Sequence, m) -> list:
    """Row vector times matrix: sum_i v[i] * m[i]."""
    cols = len(m[0]) if m else 0
    return [sum(v[i] * m[i][j] for i in range(len(m))) for j in range(cols)]


def checked_lattice_oracle(dim: int, gens: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, rows) of the lattice N that the rational rows gens generate: D the
    lcm of their denominators, rows the top of the full ``hnf`` of D gens,
    and each e_j checked by substitution to lie in N."""
    if len(gens) < dim:
        raise DegenerateBasisError("need at least d generating rows")
    gens = [[Fraction(x) for x in g] for g in gens]
    denom = math.lcm(*(x.denominator for g in gens for x in g))
    top = hnf([[x.numerator * (denom // x.denominator) for x in g] for g in gens])[0][:dim]
    if any(top[i][i] == 0 for i in range(dim)):
        raise DegenerateBasisError("generators do not span Q^d")
    for j in range(dim):  # Z^d is inside N iff every e_j is
        c: list[int] = []
        for k in range(dim):
            ck, rest = divmod(denom * (j == k) - sum(c[i] * top[i][k] for i in range(k)), top[k][k])
            if rest:
                raise LatticeError("basis does not contain Z^d with finite index")
            c.append(ck)
    return denom, tuple(map(tuple, top))


def to_ambient_oracle(lat: Lattice, c: Sequence) -> Vector:
    """The point with coordinates c: (c @ rows) / D, over the full product."""
    return tuple(Fraction(x, lat.denominator) for x in vec_mat(c, lat.rows))


def primitivize_oracle(lat: Lattice, v: Sequence) -> Vector:
    """Shortest lattice point on the ray spanned by v."""
    c, e = solve_oracle(lat, v)
    if not any(c):
        raise ZeroVectorError("cannot primitivize the zero vector")
    if any(x % e for x in c):
        raise NotInLatticeError(f"{v!r} is not a lattice point")
    g = math.gcd(*c)
    return to_ambient_oracle(lat, [x // g for x in c])


def rays_primitive_oracle(x_var: ToricVariety) -> list[bool]:
    """Each ray generator compared with its primitivization."""
    return [primitivize_oracle(x_var.lattice, r) == r for r in x_var.fan.rays]


def klein_mld_2d(x_var: ToricVariety) -> tuple[Fraction, Vector]:
    """(value, witness) of ``mld`` on a 2-d variety of one cone, at any order r
    of its quotient, from the boundary of the Klein polygon conv(cone ∩ N \\ 0).

    Scaled by r, the barycentric coordinates of N are the lattice
    {(X, Y) : Y = a X mod r} of 1/r(1, a): the Hermite form of N's
    barycentric rows over r Z^2 is (1, a), (0, r), since the rays are
    primitive.  The value (X + Y) / r is linear and positive on the cone, so
    its minimum over the nonzero lattice points, and every point that ties
    with it, lie on the polygon's compact boundary (Oda, Convex Bodies and
    Algebraic Geometry, 1.6).  That boundary runs from (0, r) through (1, a)
    to (r, 0) by u_(i+1) = b_i u_i - u_(i-1), with b the Hirzebruch-Jung
    continued fraction of r/a.  From x = P/Q with Q < P <= 2Q the next
    floor(Q / (P - Q)) entries are 2 and P - Q stays fixed, so such a run
    is one arithmetic progression, on which the value and the lex order are
    both monotone: only its two ends are offered.  So the walk takes O(log r)
    steps.  Ties go to the lex-least ambient point, as in ``mld``.
    """
    g1, g2 = cone_generators(x_var.fan, x_var.fan.max_cones[0])
    det = g1[0] * g2[1] - g1[1] * g2[0]
    bary = [((b[0] * g2[1] - b[1] * g2[0]) / det, (b[1] * g1[0] - b[0] * g1[1]) / det) for b in x_var.lattice.basis]
    r = math.lcm(*(x.denominator for row in bary for x in row))
    (one, a), (_, order) = hnf([[int(x * r) for x in row] for row in bary] + [[r, 0], [0, r]])[0][:2]
    assert (one, order) == (1, r), "a ray is not primitive"
    best: Optional[tuple[Fraction, Vector]] = None

    def offer(point: tuple[int, int]) -> None:
        nonlocal best
        x, y = point
        cand = (Fraction(x + y, r), tuple((x * c1 + y * c2) / r for c1, c2 in zip(g1, g2)))
        if best is None or cand < best:
            best = cand

    prev, cur = (0, r), (1, a)
    offer(prev)
    offer(cur)
    p, q = r, a
    while q:
        b = -(-p // q)
        if b == 2:
            t = q // (p - q)
            w = (cur[0] - prev[0], cur[1] - prev[1])
            offer((cur[0] + w[0], cur[1] + w[1]))
            prev, cur = (cur[0] + (t - 1) * w[0], cur[1] + (t - 1) * w[1]), (cur[0] + t * w[0], cur[1] + t * w[1])
            p, q = q - (t - 1) * (p - q), q - t * (p - q)
        else:
            prev, cur = cur, (b * cur[0] - prev[0], b * cur[1] - prev[1])
            p, q = q, b * q - p
        offer(cur)
    assert cur == (r, 0)
    return best
