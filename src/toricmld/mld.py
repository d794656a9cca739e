"""Exact minimal log discrepancy of a simplicial toric variety.

The minimum of the log-discrepancy function over the nonzero lattice points
of the fan support is computed per maximal cone from the half-open
fundamental parallelepiped of the cone generators, capped at 1:

* every ray generator is a lattice point with value exactly 1, so the
  minimum is at most 1;
* any lattice point of the cone with value < 1 has all barycentric
  coordinates in [0, 1), hence *is* one of the parallelepiped coset
  representatives;
* any other lattice point of the cone dominates the representative with the
  same fractional barycentric part, coordinate by coordinate.

So the minimum over coset representatives of the generator sublattice,
capped at 1, is complete.  ``mld`` finds it without visiting every coset.
Every search is bounded at value 1, and a tie there goes to the least ray.
In barycentric coordinates the lattice is spanned by (H K) / (D_N q), for
the lattice's Hermite rows H over its denominator D_N and the cone's integer
inverse K over q.  Scaled by D, the denominator of that matrix in lowest
terms, it is an integer lattice L containing D Z^d, whose Hermite rows come
from ``hnf_mod``; on an identity cone, (K, q) = (I, 1), they are the
lattice's own rows and D = D_N.  The nonzero representatives are the points
x of L with 0 <= x_i < D, of value sum(x) / D.

The sweep walks the upper-triangular Hermite rows h of L in order: once
x_0 .. x_{i-1} are fixed, x_i runs over one residue class mod h_i (a row
with h_i = D is D e_i and fixes x_i) up to ``best - used``, the incumbent's
value numerator (D at the start) less the sum of the coordinates fixed.  Every coordinate is >= 0, so no
representative that could beat or tie the incumbent is cut; the bound is
inclusive so that ties reach the lexicographic tie-break.  The innermost
free level is streamed as arithmetic progressions mod D, in doubling chunks.

The width engine branches on flat directions of the dual lattice (Lenstra
1983; Aardal, Hurkens and Lenstra 2000).  ``lll`` reduces D h^-T, an
integral basis of D L*, and carries h along to the basis of L dual to the
reduced rows.  The engine fixes the integers <u_j, x> / D of the d - 1 rows
u flattest on the simplex {x >= 0, sum(x) <= s}, each over its range on the
whole simplex, and clips the remaining line base + t w of L in closed form:
the least sum is at an end, one step inward at the origin, and when
sum(w) = 0 all its points tie and the lex-smaller end wins.  s starts at the
volume estimate floor((d! det L)^(1/d)), capped at the incumbent, and
doubles after a round that finds nothing; a round sees every point of value
<= s, so the first round that finds one finds the sweep's minimum and witness.

Both searches return the same least sum and lex-least key for any bound at
or above the cone's minimum, so the choice between them moves only time and
guard trip points, never an output.  The bound is first seeded with the
least sum of a Hermite row with h_i < D, a nonzero representative.  Level j
of the sweep then visits at most count_j = prod_{i <= j} (floor(min(D - 1,
limit) / h_i) + 1) nodes, points at the last walked level, and a cone goes
to the engine when an outer count exceeds the engine's cost in nodes or the
last count its cost in points.  Each search charges a unit of the guard
before it does the work that unit counts and raises TooLargeError at the
first unit past it; no budget is read after it raises.

The engine's cost in each unit comes from random cones, each one generator
of order r, log-uniform in r up to 10^6, over random rays with entries in
[-1, 1] or [-2, 2], with a one-level volume estimate (d! det L)^(1/d)
between 4 and 2^14 points; both searches timed on each at limit D, min of 3
(Python 3.11.7, 2-vCPU Xeon).  The sweep's time is fitted as a + b P over
the cones with no outer node (P streamed points), its node time is the
median of (time - a - b P) / nodes over the cones with more nodes than
points, and the engine's cost is its median time E as (E - a) / b points
and (E - a) / node time nodes:

                                                               engine cost
    d  cones  sweep us         node us  engine us  engine nodes  points nodes
    2   600   16.0 + 0.138 P      -          43          3          195     9
    3   600    8.8 + 0.228 P    2.96        102          7          407    31
    4   600   17.8 + 0.291 P    2.47        195         22          610    72
    5   300   69.6 + 0.372 P    2.64        526         81         1227   173
    6   200   -6.9 + 0.528 P    2.92       2122        520         4029   729
    7   100   65.3 + 0.482 P    2.41      12212       3102        25224  5034

A 2-d cone over primitive rays is a cyclic quotient with h_00 = 1 and no
outer level, so d = 2 drew no node; its node cost takes d = 3's node time.
d = 7's point cost lies past the band's 2^14 points, on the fitted line.
A dimension outside the table, d = 1 (whose seed, its first point, is its
minimum, so its count is 2) or d >= 8, is priced at d = 7's row.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from operator import add, eq, mod, mul
from typing import Optional, Sequence

from .exactmath import hnf_mod, iroot_floor, lll
from .lattice import Lattice, Vector, _fractions
from .toric import ToricVariety, _locate, _require_full_dimensional

DEFAULT_GUARD = 10**7
# the work guard, set per context (thread or task) and read only by
# ``_Budget``: each ``mld`` and ``mld_bruteforce`` call, witness scan and
# fibration set-up gets the units it holds.  A unit is a point of the sweep
# (outer-level or streamed), a node of the width engine's tree, a node or
# innermost box point of the box scan, a multiple of the witness scan, and
# the cube of a set-up's dimension
GUARD: ContextVar[int] = ContextVar("toricmld_guard", default=DEFAULT_GUARD)
_CHUNK = 64  # the first innermost stream chunk; each next one is twice as long
# per dimension d: the width engine's median time on random cones in
# outer-level nodes of the sweep and in its streamed points, from the band
# table of the module docstring; a dimension outside it takes row 7
_ENGINE_COST = {
    2: (9, 195),
    3: (31, 407),
    4: (72, 610),
    5: (173, 1227),
    6: (729, 4029),
    7: (5034, 25224),
}


class EmptyFanError(ValueError):
    pass


class TooLargeError(RuntimeError):
    """A search, the witness scan or a fibration set-up would exceed its work guard."""


class InvalidWeightsError(ValueError):
    pass


@dataclass(frozen=True)
class MldResult:
    """Minimal log discrepancy with a witness certificate.

    The witness is a nonzero lattice point realizing the value inside the
    maximal cone ``cone_index``; ties break by smallest value, then
    lexicographically smallest witness, then lowest cone index.
    """

    value: Fraction
    witness: Vector
    cone_index: int
    method: str  # "parallelepiped" | "bruteforce"


class _Best:
    """Running minimum under the fixed tie-break order, held as integers: the
    value num / scale, the witness key / (scale D_N) for the lattice's
    denominator D_N, and the index of the cone that first offered it (None
    when not given).  Entries are compared by cross-multiplication, so no
    Fraction is built before ``_finalize``."""

    __slots__ = ("num", "scale", "key", "cone")

    def __init__(self):
        self.num = self.scale = self.key = self.cone = None

    def offer(self, num: int, scale: int, key: tuple[int, ...], cone: Optional[int] = None) -> None:
        if self.key is not None:
            a, b = num * self.scale, self.num * scale
            if a > b or a == b and tuple(x * self.scale for x in key) >= tuple(x * scale for x in self.key):
                return
        self.num, self.scale, self.key, self.cone = num, scale, key, cone


class _Budget:
    """Units of work the task ``what`` may still spend, ``GUARD`` at the start.
    Each search spends a unit before the work it counts; ``spend`` raises at
    the first unit past the guard, and no budget is read after it raises."""

    __slots__ = ("guard", "left", "what", "unit")

    def __init__(self, what: str, unit: str = "points"):
        self.guard = self.left = GUARD.get()
        self.what = what
        self.unit = unit

    def spend(self, n: int) -> None:
        self.left -= n
        if self.left < 0:  # "points" for tree nodes too: scripts match this text
            raise TooLargeError(f"{self.what} exceeded guard of {self.guard} {self.unit}")


def _check_cones(x_var: ToricVariety) -> None:
    if not x_var.fan.max_cones:
        raise EmptyFanError("fan has no maximal cones")
    _require_full_dimensional(x_var)


def _finalize(x_var: ToricVariety, best: _Best, method: str) -> MldResult:
    num, scale, key, cone = best.num, best.scale, best.key, best.cone
    d_n = x_var.lattice.denominator
    if key is None or num >= scale:
        # cap at 1: value 1 is achieved at every ray generator, and the
        # lex-least of the rays ints / e, which share e, is min(ints) / e;
        # e divides D_N, as the rays are lattice points
        ints, e = x_var.fan.integral
        ray = tuple(x * (d_n // e) for x in min(ints))
        if key is None or tuple(x * scale for x in ray) < key:
            num, scale, key = 1, 1, ray
    # below 1 the witness is a representative of every cone holding it, and
    # each cone's search reaches it, so the lowest-index one offered it
    # first; a capped witness (value 1) is located afresh
    if cone is None or num >= scale:
        cone = _locate(x_var, key, scale * d_n)[0]
    return MldResult(Fraction(num, scale), _fractions(key, scale * d_n), cone, method)


def mld(x_var: ToricVariety) -> MldResult:
    """Minimal log discrepancy via a bounded search of each cone's coset lattice.

    Each cone takes the Hermite-order sweep unless a bound on its work
    exceeds the width engine's cost (module docstring); both give the same
    answer.  Raises TooLargeError past ``GUARD`` units.
    """
    _check_cones(x_var)
    budget = _Budget("mld sweep")
    best = _Best()
    for ci in range(len(x_var.fan.max_cones)):
        _sweep_cone(x_var, ci, best, budget)
    return _finalize(x_var, best, "parallelepiped")


def _sweep_cone(x_var: ToricVariety, ci: int, best: _Best, budget: _Budget) -> None:
    """Offer cone ``ci``'s smallest representative of value <= the incumbent."""
    cone = _coset_lattice(x_var, ci)
    if cone is None:
        return  # trivial quotient: only the origin
    denom, h, gint = cone
    # the incumbent's value numerator over denom, the search's inclusive bound,
    # seeded with the least Hermite row in the box: each row with h_ii < D is
    # a nonzero representative, so the cone's minimum is at most its sum
    limit = denom if best.key is None else best.num * denom // best.scale
    limit = min(limit, min(sum(row) for i, row in enumerate(h) if row[i] < denom))
    found = _pick_search(h, denom, limit)(h, denom, gint, limit, budget)
    if found is not None:
        best.offer(found[0], denom, found[1], ci)


def _pick_search(h, denom: int, limit: int):
    """``_width_cone`` when the sweep's work bound at ``limit`` exceeds the
    engine's cost at some level (module docstring), else ``_hnf_sweep``."""
    nodes, points = _ENGINE_COST.get(len(h), _ENGINE_COST[7])
    top = min(denom - 1, limit)
    last = max(i for i in range(len(h)) if h[i][i] < denom)
    count = 1  # the nodes of level j, points at the last
    for j in range(last + 1):
        count *= top // h[j][j] + 1
        if count > (points if j == last else nodes):
            return _width_cone
    return _hnf_sweep


def _coset_lattice(x_var: ToricVariety, ci: int) -> Optional[tuple[int, Sequence[Sequence[int]], list[list[int]]]]:
    """(D, h, gint): the Hermite rows h of cone ``ci``'s coset lattice L, and
    gint with x @ gint = D D_N times the ambient point of x; None when D = 1.
    On an identity cone h is the lattice's own row tuples, which no search
    mutates."""
    lat = x_var.lattice
    d_n = lat.denominator
    k, q = x_var.fan.max_cones[ci].inverse
    if q == 1 and k == _identity(len(k)):
        # L is D_N N itself: D_N is least, so the rows are in lowest terms, and
        # they are already the canonical Hermite form mod D_N
        return None if d_n == 1 else (d_n, lat.rows, _scaled_generators(x_var, ci))
    # lat.rows @ K over D_N q, reduced to lowest terms below: each triangular
    # row adds the rows of K at its nonzero entries
    bary = []
    for row in lat.rows:
        acc = [0] * len(row)
        for a, k_row in zip(row, k):
            if a:
                acc = [x + a * y for x, y in zip(acc, k_row)]
        bary.append(acc)
    common = math.gcd(d_n * q, *(x for row in bary for x in row))
    denom = d_n * q // common
    if denom == 1:
        return None
    scaled = [[x // common for x in row] for row in bary]
    return denom, hnf_mod(scaled, denom), _scaled_generators(x_var, ci)


@lru_cache(maxsize=None)
def _identity(d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def _scaled_generators(x_var: ToricVariety, ci: int) -> list[list[int]]:
    """Cone ``ci``'s generator rows times D_N, off the fan's table rays =
    ints / e: e divides D_N since the rays are lattice points."""
    ints, e = x_var.fan.integral
    f = x_var.lattice.denominator // e
    return [[x * f for x in ints[i]] for i in x_var.fan.max_cones[ci].ray_indices]


def _hnf_sweep(h, denom: int, gint, limit: int, budget: _Budget) -> Optional[tuple[int, tuple[int, ...]]]:
    """(sum, lex-least key x @ gint) of the least representative of sum <= limit."""
    d = len(h)
    last = max(i for i in range(d) if h[i][i] < denom)
    found: Optional[int] = None  # smallest numerator seen in this cone
    key: Optional[tuple[int, ...]] = None  # its lex-min ambient point, scaled

    def stream(p: list[int], used: int) -> None:
        nonlocal limit, found, key
        # x[last] runs over start + t*step; every deeper row is denom*e_k, so
        # x[k] for k > last is (base_k + t*h[last][k]) mod denom
        step = h[last][last]
        start = p[last] % step
        c0 = (start - p[last]) // step
        tail = [(p[k] + c0 * h[last][k], h[last][k]) for k in range(last + 1, d)]
        t = 0
        if used == 0 and start == 0 and all(b % denom == 0 for b, _ in tail):
            t = 1  # the origin
        chunk = _CHUNK
        while True:
            lo = start + t * step
            top = min(denom - 1, limit - used)
            if lo > top:
                return
            n = min(chunk, (top - lo) // step + 1)
            budget.spend(n)
            total = range(used + lo, used + lo + n * step, step)
            for b, s in tail:
                if s:
                    col = map(mod, range(b + t * s, b + (t + n) * s, s), repeat(denom, n))
                else:
                    col = repeat(b % denom, n)
                total = map(add, total, col)
            totals = list(total)
            low = min(totals)
            if low <= limit:
                # only the lex-least key of the chunk's ties is offered: point
                # i has x[last] = start + i step and x[k] = (b + i s) mod denom;
                # x[i] = p[i] below last, as every deeper row is 0 in column i
                ties = list(compress(range(t, t + n), map(eq, totals, repeat(low, n))))
                cols = [[(b + i * s) % denom for i in ties] for b, s in [(start, step), *tail]]
                keys = []
                for j in range(d):
                    acc = repeat(sum(p[i] * gint[i][j] for i in range(last)), len(ties))
                    for col, row in zip(cols, gint[last:]):
                        if row[j]:
                            acc = map(add, acc, map(mul, col, repeat(row[j])))
                    keys.append(acc)
                k = min(zip(*keys))
                if found is None or low < found or k < key:
                    found, key, limit = low, k, low
            t += n
            chunk *= 2

    def sweep(i: int, p: list[int], used: int) -> None:
        if i == last:
            stream(p, used)
            return
        step = h[i][i]
        xi = p[i] % step
        while xi <= min(denom - 1, limit - used):
            budget.spend(1)
            c = (xi - p[i]) // step
            sweep(i + 1, [p[k] + c * h[i][k] for k in range(d)], used + xi)
            xi += step

    sweep(0, [0] * d, 0)
    return None if found is None else (found, key)


def _flat_directions(h, denom: int) -> tuple[list[list[int]], list[list[int]]]:
    """(dual, basis): the rows of ``lll``-reduced D h^-T, flattest on the
    simplex first, and the lattice basis dual to them, <basis_i, dual_j> =
    D [i == j], which is h carried through LLL's steps and the same sort."""
    dual, basis = lll(_scaled_dual(h, denom), h)
    pairs = sorted(zip(dual, basis), key=lambda pair: max(0, *pair[0]) - min(0, *pair[0]))
    return [u for u, _ in pairs], [v for _, v in pairs]


def _scaled_dual(h, denom: int) -> list[list[int]]:
    """D h^-T for upper triangular Hermite rows h of a lattice containing
    D Z^d, by back substitution: D h^-1 is integral, so every division is exact."""
    d = len(h)
    dual = [[0] * d for _ in range(d)]  # row j: column j of D h^-1
    for j, col in enumerate(dual):
        for i in range(j, -1, -1):
            col[i] = (denom * (i == j) - sum(h[i][k] * col[k] for k in range(i + 1, j + 1))) // h[i][i]
    return dual


def _width_cone(h, denom: int, gint, limit: int, budget: _Budget) -> Optional[tuple[int, tuple[int, ...]]]:
    """``_hnf_sweep``'s answer by the width engine of the module docstring."""
    d = len(h)
    dual, basis = _flat_directions(h, denom)
    neg, pos = [min(0, *u) for u in dual], [max(0, *u) for u in dual]
    w = basis[-1]  # the line direction, along the widest dual row
    w_sum = sum(w)
    w_key = tuple(sum(w[i] * gint[i][j] for i in range(d)) for j in range(d))
    found = key = None

    def line(base: list[int]) -> None:
        # the points base + t w, clipped to 0 <= x_i <= D-1 and 0 <= sum(x) <= s
        nonlocal found, key, s
        used = sum(base)
        lows, highs = [], []  # one entry per w_i != 0, so never empty
        for a, c, top in [*zip(base, w, repeat(denom - 1)), (used, w_sum, s)]:
            if c < 0:  # 0 <= a + t c <= top iff 0 <= (top - a) + t (-c) <= top
                a, c = top - a, -c
            if c:
                lows.append(-(a // c))
                highs.append((top - a) // c)
            elif not 0 <= a <= top:
                return
        lo, hi = max(lows), min(highs)
        if lo > hi:
            return
        t = lo if w_sum > 0 or (w_sum == 0 and w_key > (0,) * d) else hi
        total = used + t * w_sum
        if total == 0:  # the origin, alone on its line if w_sum = 0; step inward
            t += (w_sum > 0) - (w_sum < 0)
            total += abs(w_sum)
            if w_sum == 0 or not lo <= t <= hi:
                return
        point = [a + t * c for a, c in zip(base, w)]
        point_key = tuple(sum(point[i] * gint[i][j] for i in range(d)) for j in range(d))
        if found is None or total < found or point_key < key:
            found, key, s = total, point_key, total

    def level(j: int, base: list[int]) -> None:
        budget.spend(1)
        if j == d - 1:
            line(base)
            return
        y = -(-s * neg[j] // denom)
        while y <= s * pos[j] // denom:
            level(j + 1, [a + y * c for a, c in zip(base, basis[j])])
            y += 1

    s = min(limit, iroot_floor(math.factorial(d) * math.prod(h[i][i] for i in range(d)), d))
    while True:
        level(0, [0] * d)
        if found is not None or s == limit:
            return None if found is None else (found, key)
        s = min(2 * s, limit)


def mld_bruteforce(x_var: ToricVariety) -> MldResult:
    """Independent oracle: scan the lattice points with barycentric coordinates
    in [0, 1] for every maximal cone, in rounds of growing value.

    A round with value bound s <= 1 walks the lattice points of the ambient
    box of s conv(0, g_1 .. g_d), which holds every point of value <= s, one
    triangular lattice row per level, carrying the barycentric numerators
    (point @ K) down the levels.  On an innermost row the numerators are
    linear in the row index, so the row is clipped to the cone in closed
    form and its least value, the origin skipped and ties to the
    lex-smallest point, is at an end.  Each new best value t cuts the box to
    that of t conv(0, g_1 .. g_d), so the first round that finds a point
    holds the cone's minimum and its lex-least witness.  s starts at
    2^-floor(bitlen(D q) / d); after a round that finds nothing the next is
    at min(2 s, v, 1), v the least value of a row end turned away only for
    exceeding s, a cone point that bounds the minimum.  Each node (a round's
    root included) and each box point of an innermost row is a unit of
    ``GUARD``, over all rounds; past it TooLargeError is raised.  The
    witness's cone is located afresh, apart from the search.
    """
    _check_cones(x_var)
    budget = _Budget("enumeration")
    d = x_var.dim
    last = d - 1
    # lattice points are (c @ h_rows) / denom for integer c
    denom, h_rows = x_var.lattice.denominator, x_var.lattice.rows
    zero = [0] * d
    best = _Best()

    for ci in range(len(x_var.fan.max_cones)):
        k, q = x_var.fan.max_cones[ci].inverse
        scale = denom * q  # barycentric numerators live over this, in [0, scale]
        # the simplex's extreme coordinates, and each row's numerators
        g = _scaled_generators(x_var, ci)
        g_lo = [min(0, *col) for col in zip(*g)]
        g_hi = [max(0, *col) for col in zip(*g)]
        row_nums = [[sum(h[a] * k[a][b] for a in range(d)) for b in range(d)] for h in h_rows]
        slope = sum(row_nums[last])
        lo, hi = [0] * d, [0] * d

        cone_best: Optional[int] = None
        cone_witness: Optional[list[int]] = None

        def cut(num: int, den: int) -> None:
            # the box of (num/den) conv(0, g_1 .. g_d)
            lo[:] = [-(-num * b // den) for b in g_lo]
            hi[:] = [num * b // den for b in g_hi]

        def walk(i: int, partial: list[int], nums: list[int], c: int) -> None:
            # Step level i (-1: the root, the origin alone) from node c until its
            # coordinate passes hi[i].  partial: the point so far, scaled by
            # denom; nums: partial @ k.  Each node's row on level j is tested
            # against the box before it is built; the innermost one is clipped
            # here, in closed form.
            nonlocal cone_best, cone_witness, limit, over
            j = i + 1
            step_j = h_rows[j][j]
            if i < 0:
                x, step, bound, h, n = 0, 1, [0], zero, zero
            else:
                step, bound, h, n = h_rows[i][i], hi, h_rows[i], row_nums[i]
                x = partial[i] + c * step
            y = partial[j] + c * h[j]  # level j's coordinate where the node's row starts, at index 0
            while x <= bound[i]:
                budget.spend(1)
                c_lo, c_hi = -((y - lo[j]) // step_j), (hi[j] - y) // step_j
                if c_lo <= c_hi:
                    nums_c = [a + c * b for a, b in zip(nums, n)]
                    if j < last:
                        walk(j, [a + c * b for a, b in zip(partial, h)], nums_c, c_lo)
                    else:
                        budget.spend(c_hi - c_lo + 1)
                        # 0 <= base + c rise <= scale for each numerator
                        for base, rise in zip(nums_c, row_nums[last]):
                            if rise > 0:
                                lo_b, hi_b = -(base // rise), (scale - base) // rise
                            elif rise < 0:
                                lo_b, hi_b = -((scale - base) // -rise), base // -rise
                            elif 0 <= base <= scale:
                                continue
                            else:
                                break
                            if lo_b > c_lo:
                                c_lo = lo_b
                            if hi_b < c_hi:
                                c_hi = hi_b
                            if c_lo > c_hi:
                                break
                        else:
                            # the row's least value is at an end; ties go to the lex-least point
                            c_pt = c_lo if slope >= 0 else c_hi
                            total = sum(nums_c) + c_pt * slope
                            if total == 0:  # the origin; its neighbour inward is the next best
                                c_pt += 1 if slope >= 0 else -1
                                total += abs(slope)
                            if c_lo <= c_pt <= c_hi:
                                if total > limit:  # a cone point, turned away by the bound alone
                                    over = total if over is None else min(over, total)
                                else:
                                    point = [a + c * b for a, b in zip(partial[:last], h)] + [y + c_pt * step_j]
                                    if cone_best is None or total < cone_best or point < cone_witness:
                                        cone_best, cone_witness, limit = total, point, total
                                        cut(total, scale)  # every point of value <= total stays in the box
                x += step
                y += h[j]
                c += 1

        # the round's value bound s_num / s_den, which ends at 1
        s_num, s_den = 1, 1 << (scale.bit_length() // d)
        while True:
            if s_num >= s_den:
                s_num, s_den = 1, 1
            cut(s_num, s_den)
            limit = s_num * scale // s_den  # the round's bound on the value numerator
            over = None  # the least value numerator above limit at a row's end
            walk(-1, zero, zero, 0)
            if cone_best is not None or s_num == s_den:
                break
            # nothing of value <= s, and the cone point of value over / scale
            # bounds the minimum: the next round is at min(2 s, that value)
            s_num *= 2
            if over is not None and over * s_den < s_num * scale:
                s_num, s_den = over, scale
        if cone_best is not None:
            best.offer(cone_best, scale, tuple(x * scale for x in cone_witness))
    return _finalize(x_var, best, "bruteforce")


def cyclic_quotient(r: int, weights: Sequence[int]) -> ToricVariety:
    """Affine toric model of the cyclic quotient 1/r (a_1, ..., a_n).

    Lattice Z^n extended by (a_1/r, ..., a_n/r) over the nonnegative orthant
    cone, with ray generators primitivized in the extended lattice.
    """
    if r < 1:
        raise InvalidWeightsError(f"group order must be positive, got {r}")
    n = len(weights)
    if n < 1:
        raise InvalidWeightsError("need at least one weight")
    return ToricVariety._orthant(Lattice._from_scaled(n, r, [weights]))


def mld_cyclic(r: int, weights: Sequence[int]) -> Fraction:
    """Minimal log discrepancy of the cyclic quotient 1/r (a_1, ..., a_n).

    When every orthant ray stays primitive in the extended lattice this
    agrees with min(1, min_{k=1..r-1} sum_i frac(k a_i / r)); in general the
    ray generators are first primitivized, which keeps the value geometric
    even for weights sharing factors with r.
    """
    return mld(cyclic_quotient(r, weights)).value
