"""Constructive witness search: from a small discrepancy on the base to a
small-discrepancy lattice point on the total space.

Sketch of the construction, with delta the base discrepancy and m the fiber
dimension: lift the base witness A to P in the total lattice with fiber
coordinates b in [0,1)^m, and look at the multiples k*b mod Z^m for
k = 0..T with T = floor(delta^(-m/(m+1))).  The box principle guarantees two
of them within delta^(1/(m+1)) of each other in every coordinate on the
torus, because (T+1) * delta^(m/(m+1)) >= 1.  Since k -> k*b mod Z^m is
additive, the first such pair is always (0, k*) with k* the smallest k >= 1
whose multiple k*b is that close to the origin, so the search is a scan over
k.  Over a common denominator d of b, k qualifies iff every residue
x = k*b_l*d mod d has min(x, d - x) <= g for one integer root g of the
threshold, that is (x + g) mod d <= 2g.  The scan streams one coordinate's
residues as an arithmetic progression mod d, lazily and at C level, and tests
the other coordinates only at its survivors.  It examines at most
``mld.GUARD`` multiples and raises TooLargeError past that.

The multiple k*P, with the fiber part re-centered to the nearest-integer
representative, is a nonzero lattice point Q with nonnegative base part; its
log discrepancy is at most (C+1) * delta^(1/(m+1)) where C is the largest
coefficient 1-norm among the linear pieces of the fiber's discrepancy
function.  When X's base rays v_l = (s_l, t_l e_l) have fiber parts s_l,
the point A_X = sum_l (a_l / t_l) v_l over A has ld(A_X) <= delta (t_l is
a multiple c_l >= 1 of Y's ray), and x = Q - k*A_X lies in the fiber, so
ld(Q) <= C*|x|_inf + k*delta in Q's cone, with k*delta <= delta^(1/(m+1)).
So the scan runs on b' = b - s, s the fiber part of A_X (0 when no base ray
is sheared), and Q's fiber part is the re-centered k*b' plus k*s.  C is read
from the fiber cones' inverses, which X's cones already hold, and depends
on the basis the fiber is given in: for family l = 5 it is 6 in the
family's own basis and 7 to 44 in five transformed bases.  Q's fiber part
comes from the integer residues x = k*b'_l*d mod d of the scan,
and Q is located in the fan of X once: that one cone-location pass gives
both its cone and ld(Q), the sum of its barycentrics there.

Every threshold comparison against the irrational delta^(1/(m+1)) is done as
an exact integer-power comparison of rationals: x <= delta^(1/(m+1)) iff
x^(m+1) <= delta for x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import le, mod
from typing import Iterable, Optional, Sequence

from .exactmath import _integral, as_fractions, hnf, iroot_floor
from .lattice import NotInLatticeError, Vector, ZeroVectorError, _fractions
from .mfs import FiberData, ToricMfs
from .mld import MldResult, _Budget, mld
from .toric import _locate


class NotInBaseLatticeError(ValueError):
    pass


class NoPairFoundError(RuntimeError):
    """No qualifying pair exists; the pigeonhole hypothesis was violated."""


class PreconditionFailedError(ValueError):
    """The supplied threshold is below the actual base discrepancy."""


@dataclass(frozen=True)
class EffectiveDelta:
    """Per-fiber constant for the threshold map eps -> (eps / (C+1))^(m+1)."""

    c_z: Fraction
    m: int

    def delta_of(self, eps: Fraction) -> Fraction:
        return (Fraction(eps) / (self.c_z + 1)) ** (self.m + 1)


@dataclass(frozen=True)
class WitnessReport:
    """Certificate of the witness construction.

    ``bound_coefficient`` is C+1; the claimed bound on ld_q is
    bound_coefficient * delta^(1/(m+1)), checked exactly via
    ld_q^(m+1) <= bound_coefficient^(m+1) * delta and recorded in
    ``bound_satisfied``.  ``t`` is the number of the largest multiple used
    (multiples run over k = 0..t).
    """

    base_point: Vector
    lift: Vector
    t: Fraction
    pair: tuple[int, int]
    q: Vector
    q_fiber: Vector
    cone_index: int
    ld_q: Fraction
    delta: Fraction
    bound_coefficient: Fraction
    bound_satisfied: bool

    @property
    def bound_power(self) -> Fraction:
        """Exact value of bound^(m+1) = bound_coefficient^(m+1) * delta."""
        m = len(self.q_fiber)
        return self.bound_coefficient ** (m + 1) * self.delta

    @property
    def bound_approx(self) -> float:
        m = len(self.q_fiber)
        return float(self.bound_coefficient) * float(self.delta) ** (1.0 / (m + 1))


def lift_to_X(mfs: ToricMfs, a: Sequence) -> Vector:
    """Preimage of base lattice point A with fiber coordinates in [0,1).

    Solves y @ H = D A against the Hermite form H = U B of the base blocks B
    of the integer rows of D N, whose fiber blocks F the same row operations
    carry to U F, so the preimage's fiber part is y @ U F with no U built.
    That part is reduced modulo the standard fiber lattice Z^m (always
    inside the kernel lattice): (y @ U F mod D) / D.
    """
    m, n = mfs.m, mfs.n
    av = as_fractions(a)
    if len(av) != n:
        raise ValueError(f"base point has dimension {len(av)}, expected {n}")
    if all(c == 0 for c in av):
        raise ZeroVectorError("cannot lift the zero point: witnesses must be nonzero")
    lat = mfs.x.lattice
    denom = lat.denominator
    # the image of D N is D times the base lattice, so D A must be integral
    if any(denom % c.denominator for c in av):
        raise NotInBaseLatticeError(f"{a!r} is not in the base lattice")
    target = [c.numerator * (denom // c.denominator) for c in av]
    h, carried = hnf([row[m:] for row in lat.rows], [row[:m] for row in lat.rows])
    # D N contains D Z^d, so H's top n rows are upper triangular with their
    # pivots on the diagonal: forward-substitute y @ H = target over them
    y: list[int] = []
    for j in range(n):
        q, rest = divmod(target[j] - sum(y[i] * h[i][j] for i in range(j)), h[j][j])
        if rest:
            raise NotInBaseLatticeError(f"{a!r} is not in the base lattice")
        y.append(q)
    # the fiber part of (y @ U F) / D, reduced mod Z^m
    fiber = (sum(c * row[j] for c, row in zip(y, carried)) % denom for j in range(m))
    return _fractions(fiber, denom) + av


def _first_multiple(step: Sequence[int], d: int, g: int, last: int) -> Optional[int]:
    """Smallest k in 1..last with min(x, d - x) <= g for every x = k * s mod d,
    s in ``step``, or None.

    For 0 <= x < d that test is (x + g) mod d <= 2g, also when 2g + 1 >= d,
    where it always holds.  A zero step always passes.  The first nonzero
    step's residues are streamed lazily, so the scan stops at k*; only its
    survivors (about a 2g/d share) test the other steps.
    """
    step = [s for s in step if s]
    if not step:
        return 1 if last >= 1 else None
    s0, rest, band = step[0], step[1:], 2 * g
    first = map(mod, range(s0 + g, s0 * (last + 1) + g, s0), repeat(d))
    for k in compress(range(1, last + 1), map(le, first, repeat(band))):
        if all((k * s + g) % d <= band for s in rest):
            return k
    return None


def _largest_norm(inverses: Iterable[tuple]) -> Fraction:
    """Largest coefficient 1-norm among the discrepancy functionals of the
    cones whose inverses (K, q) are given."""
    top, top_q = 0, 1  # the largest norm / q so far, compared by cross-multiplying
    for k, q in inverses:
        # L with sum_j L_j P_i[j] = 1 for every generator P_i: K (1, ..., 1) / q
        norm = sum(abs(sum(row)) for row in k)
        if norm * top_q > top * q:
            top, top_q = norm, q
    return Fraction(top, top_q)


def effective_delta(fiber: FiberData) -> EffectiveDelta:
    """Largest coefficient 1-norm C among the fiber's per-cone discrepancy
    functionals; drives the effective threshold map.

    C depends on the basis the fiber is given in: for family l = 5 it is 6
    in the family's own basis and 7 to 44 in five transformed bases.
    """
    c_z = _largest_norm(cone.inverse for cone in fiber.z.fan.max_cones)
    return EffectiveDelta(c_z=c_z, m=fiber.z.dim)


def _fiber_c(mfs: ToricMfs) -> Fraction:
    """``effective_delta(generic_fiber(mfs)).c_z`` off X's cones, on a valid
    fibration: each omits one fiber ray, so its first m rows of K are the
    fiber cone's inverse at the fiber rays' columns and 0 at the base rays'."""
    mfs._require_valid()
    m = mfs.m
    return _largest_norm((k[:m], q) for k, q in (cone.inverse for cone in mfs.x.fan.max_cones))


def find_witness(mfs: ToricMfs, delta: Optional[Fraction] = None) -> WitnessReport:
    """Run the box-principle construction at threshold delta.

    delta defaults to the exact base discrepancy; an explicit delta below it
    raises PreconditionFailedError.  The pair is (0, k*) for the smallest
    k* <= T whose multiple of the lifted fiber part lies within
    delta^(1/(m+1)) of the origin on the torus, found by an exact integer
    scan over k; NoPairFoundError is raised if no k <= T qualifies.  The
    lifted fiber part is shifted on sheared base rays (see the module
    sketch), so ld_q meets the bound on every fibration that validates, and
    InvalidMfsError is raised on one that does not.  The scan
    examines at most ``GUARD`` multiples: when T exceeds the guard and no k
    up to it qualifies, TooLargeError is raised instead.  The report is
    self-verifying: Q is a nonzero lattice point of the total space, its
    base image is componentwise nonnegative, and Q is located once in the
    fan of X, which gives its cone and ld_q from scratch.  The bound's C is
    ``effective_delta``'s, read off X's cones with no fiber built, so it
    depends on the fiber basis as that C does.
    """
    base = mld(mfs.y)
    if delta is None:
        delta = base.value
    else:
        delta = Fraction(delta)
        if base.value > delta:
            raise PreconditionFailedError(
                f"base discrepancy {base.value} exceeds requested delta {delta}"
            )
    coeff = _fiber_c(mfs) + 1  # raises on a fibration that fails validation
    m, n = mfs.m, mfs.n
    a = base.witness
    p = lift_to_X(mfs, a)
    # s, the fiber part of A_X = sum_l (a_l / t_l) (s_l, t_l e_l): 0 but for sheared base rays
    rays = mfs.x.fan.integral[0]
    sheared = [(w, next(l for l in range(n) if w[m + l])) for w in rays if any(w[m:]) and any(w[:m])]
    shift = [sum(a[l] * w[j] / w[m + l] for w, l in sheared) for j in range(m)]
    b = [x - y for x, y in zip(p[:m], shift)]

    # number of multiples: k = 0..T with T = floor(delta^(-m/(m+1))), at least 1,
    # so that (T+1) boxes of side delta^(1/(m+1)) overfill the fiber torus
    num, den = delta.numerator, delta.denominator
    t_count = iroot_floor((den**m) // (num**m), m + 1)
    t_count = max(t_count, 1)

    # The gap between multiples i < j is the distance of (j-i)*b from the
    # origin on the torus, so a pair (i, j) qualifies iff (0, j-i) does, and
    # the first qualifying pair (smallest j, then smallest i) is (0, k*) for
    # the first qualifying k*.  Over a common denominator d, with x = k*b_l*d
    # mod d, k qualifies iff every min(x, d-x)^(m+1) * den <= num * d^(m+1),
    # that is min(x, d-x) <= g for the integer root g below.
    (steps,), d = _integral([b])
    g = iroot_floor(num * d ** (m + 1) // den, m + 1)
    budget = _Budget("witness scan", "multiples")
    k = _first_multiple(steps, d, g, min(t_count, budget.left))
    if k is None:
        budget.spend(t_count)  # raises when T exceeds the guard
        raise NoPairFoundError("box principle failed; threshold inconsistent")
    pair = (0, k)

    # the nearest-integer representative of k b: x / d or x / d - 1, x = k s mod d
    residues = [k * s % d for s in steps]
    # Q - k A_X is that centred fiber point; Q = k P less an integer vector
    centred = (Fraction(x, d) if 2 * x <= d else Fraction(x - d, d) for x in residues)
    q_fiber = tuple(x + k * y for x, y in zip(centred, shift))
    q = q_fiber + tuple(k * c for c in a)
    if not mfs.x.lattice.contains(q):
        raise NotInLatticeError("constructed witness left the lattice")  # unreachable

    # located once: the containing cone and ld(Q), the sum of Q's barycentrics
    # there; a validated fan covers the preimage of the base cone, so Q is in it
    (w,), e = _integral([q])
    cone_index, nums, scale = _locate(mfs.x, w, e)
    ld_q = Fraction(sum(nums), scale)
    satisfied = ld_q ** (m + 1) <= coeff ** (m + 1) * delta
    return WitnessReport(
        base_point=a,
        lift=p,
        t=Fraction(t_count),
        pair=pair,
        q=q,
        q_fiber=q_fiber,
        cone_index=cone_index,
        ld_q=ld_q,
        delta=delta,
        bound_coefficient=coeff,
        bound_satisfied=satisfied,
    )


@dataclass(frozen=True)
class EpsDeltaCertificate:
    """Exact two-sided record of the inequality mld(X)^(m+1) <= (C+1)^(m+1) * mld(Y)."""

    holds: bool
    mld_x: MldResult
    mld_y: MldResult
    c_z: Fraction
    lhs: Fraction
    rhs: Fraction


def check_eps_delta(mfs: ToricMfs) -> EpsDeltaCertificate:
    """Exact comparison mld(X)^(m+1) vs (C+1)^(m+1) * mld(Y).

    For a standard-simplex fiber C+1 equals twice the fiber dimension, so
    this is the power form of the threshold inequality at its sharp constant.
    C is ``effective_delta``'s, read off X's cones with no fiber built, so
    it depends on the fiber basis as that C does; a fibration that fails
    validation raises InvalidMfsError.
    """
    c_z = _fiber_c(mfs)
    rx = mld(mfs.x)
    ry = mld(mfs.y)
    m = mfs.m
    lhs = rx.value ** (m + 1)
    rhs = (c_z + 1) ** (m + 1) * ry.value
    return EpsDeltaCertificate(
        holds=lhs <= rhs, mld_x=rx, mld_y=ry, c_z=c_z, lhs=lhs, rhs=rhs
    )
