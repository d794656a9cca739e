"""Constructive witness search: from a small discrepancy on the base to a
small-discrepancy lattice point on the total space.

With delta the base discrepancy and m the fiber dimension, lift the base
witness A to P in the total lattice with fiber part b in [0,1)^m, and look at
the multiples k*b mod Z^m for k = 0..T, T = floor(delta^(-m/(m+1))).  As
(T+1) * delta^(m/(m+1)) >= 1, the box principle puts two of them within
delta^(1/(m+1)) of each other in every coordinate on the torus, and as
k -> k*b mod Z^m is additive, the first such pair is (0, k*), k* the least
k >= 1 whose multiple is that close to the origin.

Q = k*P with its fiber part re-centred to the nearest integers is a nonzero
lattice point with nonnegative base part.  On X's base rays
v_l = (s_l, t_l e_l) the point A_X = sum_l (a_l / t_l) v_l over A has
ld(A_X) <= delta, and x = Q - k*A_X lies in the fiber, so in Q's cone
ld(Q) <= C*|x|_inf + k*delta <= (C+1) * delta^(1/(m+1)), C the largest
coefficient 1-norm of the fiber cones' discrepancy functionals.  So the scan
runs on b' = b - s, s the fiber part of A_X, which is 0 unless a base ray
is sheared (s_l != 0).  C is read off X's cones.

Everything from the lift to the bound check is an integer over one common
denominator L = D*M, D the lattice's denominator and M the lcm of the
sheared base rays' t_l (L = D when none is sheared): L*b', L*s, L*A and L*Q
are integer vectors.  With delta = num / den, k qualifies iff every residue
x = k*L*b'_l mod L has y = min(x, L - x) with y^(m+1) * den <= num * L^(m+1),
that is y <= g = iroot(floor(num * L^(m+1) / den), m+1).  Another common
denominator c*L scales every y by c and the right side by c^(m+1), so k*
does not depend on L.  The scan is lazy: one C-level filter per nonzero
coordinate of L*b' (a zero one always passes), each testing only the
survivors of the one before; it stops at k* and examines at most
``mld.GUARD`` multiples (TooLargeError past that).  Q is checked to be a
lattice point by one integer substitution and located once in the fan of X,
which gives its cone and ld(Q), the sum of its barycentrics; the bound
ld(Q)^(m+1) <= (C+1)^(m+1) * delta is tested by cross-multiplying integers.
The report's Fractions are built once, at the end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat, tee
from operator import add, le, mod, mul
from typing import Iterable, Optional, Sequence

from .exactmath import as_fractions, hnf, iroot_floor
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
        """The bound as a float.  Where delta is below the normal floats, or
        delta or C+1 is past the float range, it is read off the logs of
        their exact integers, and a bound past the float range reads inf."""
        m = len(self.q_fiber)
        c, d = self.bound_coefficient, self.delta
        if d >= sys.float_info.min and max(c, d) <= sys.float_info.max:
            return float(c) * float(d) ** (1.0 / (m + 1))
        log = math.log(c.numerator) - math.log(c.denominator)
        try:
            return math.exp(log + (math.log(d.numerator) - math.log(d.denominator)) / (m + 1))
        except OverflowError:
            return math.inf


def _lift_numerators(mfs: ToricMfs, a: Sequence, av: Vector) -> tuple[list[int], list[int]]:
    """(F, T) for the base point A = av (named a in errors): T = D*A and F
    the numerators over D of the fiber part of A's lift, reduced mod D.

    Solves y @ H = T against the Hermite form H = U B of the base blocks B of
    the integer rows of D N, whose fiber blocks F the same row operations
    carry to U F, so the preimage's fiber part is y @ U F with no U built.
    """
    m, n = mfs.m, mfs.n
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
    return [sum(c * row[j] for c, row in zip(y, carried)) % denom for j in range(m)], target


def lift_to_X(mfs: ToricMfs, a: Sequence) -> Vector:
    """Preimage of base lattice point A with fiber coordinates in [0,1):
    ``_lift_numerators``' F / D, the fiber part reduced modulo the standard
    fiber lattice Z^m (always inside the kernel lattice), then A."""
    av = as_fractions(a)
    if len(av) != mfs.n:
        raise ValueError(f"base point has dimension {len(av)}, expected {mfs.n}")
    if all(c == 0 for c in av):
        raise ZeroVectorError("cannot lift the zero point: witnesses must be nonzero")
    fiber, _ = _lift_numerators(mfs, a, av)
    return _fractions(fiber, mfs.x.lattice.denominator) + av


def _first_multiple(step: Sequence[int], d: int, g: int, last: int) -> Optional[int]:
    """Smallest k in 1..last with min(x, d - x) <= g for every x = k * s mod d,
    s in ``step``, or None.

    For 0 <= x < d that test is (x + g) mod d <= 2g, also when 2g + 1 >= d,
    where it always holds.  A zero step always passes and is dropped.  The
    scan is lazy and stops at k*: one ``compress`` stage per nonzero step,
    each filtering the survivors of the stage before through a ``tee``.
    """
    step = [s for s in step if s]
    if not step:
        return 1 if last >= 1 else None
    s0, band = step[0], 2 * g
    first = map(mod, range(s0 + g, s0 * (last + 1) + g, s0), repeat(d))
    ks = compress(range(1, last + 1), map(le, first, repeat(band)))
    for s in step[1:]:
        ks, probe = tee(ks)  # ks is a compress object here, so the buffer holds one k
        shifted = map(mod, map(add, map(mul, probe, repeat(s)), repeat(g)), repeat(d))  # (k*s + g) mod d
        ks = compress(ks, map(le, shifted, repeat(band)))
    return next(ks, None)


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
    raises PreconditionFailedError, and a fibration that fails validation
    raises InvalidMfsError.  The pair is (0, k*) for the least k* <= T whose
    multiple of b' = b - s lies within delta^(1/(m+1)) of the origin on the
    torus, found by an integer scan over k on the numerators of b' over the
    common denominator L of the module docstring, on which k* does not
    depend; NoPairFoundError is raised if no k <= T qualifies.  The scan
    examines at most ``GUARD`` multiples: when T exceeds the guard and no k
    up to it qualifies, TooLargeError is raised instead.  Q = k*P less an
    integer vector is built over L, checked to be a lattice point of the
    total space, and located once in the fan of X, which gives its cone and
    ld_q; ld_q meets the bound (C+1) * delta^(1/(m+1)) on every fibration
    that validates, sheared base rays included, with C ``effective_delta``'s
    read off X's cones.
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
    fiber, target = _lift_numerators(mfs, a, a)  # D*b and D*A
    # s = sum_l (a_l / t_l) s_l over the sheared base rays (s_l, t_l e_l): over
    # L = D*M, M = lcm_t the lcm of their t_l, shift = L*s and steps = L*b' mod L
    rays = mfs.x.fan.integral[0]
    sheared = [(w, next(l for l in range(n) if w[m + l])) for w in rays if any(w[m:]) and any(w[:m])]
    lcm_t = math.lcm(*(w[m + l] for w, l in sheared))
    common = mfs.x.lattice.denominator * lcm_t
    shift = [sum(target[l] * w[j] * (lcm_t // w[m + l]) for w, l in sheared) for j in range(m)]
    steps = [(x * lcm_t - y) % common for x, y in zip(fiber, shift)]

    # number of multiples: k = 0..T with T = floor(delta^(-m/(m+1))), at least 1,
    # so that (T+1) boxes of side delta^(1/(m+1)) overfill the fiber torus
    num, den = delta.numerator, delta.denominator
    t_count = max(iroot_floor(den**m // num**m, m + 1), 1)
    g = iroot_floor(num * common ** (m + 1) // den, m + 1)
    budget = _Budget("witness scan", "multiples")
    k = _first_multiple(steps, common, g, min(t_count, budget.left))
    if k is None:
        budget.spend(t_count)  # raises when T exceeds the guard
        raise NoPairFoundError("box principle failed; threshold inconsistent")

    # L*Q: the nearest-integer representative of k*L*b' mod L, plus k*L*s, then k*L*A
    w = [x if 2 * x <= common else x - common for x in (k * s % common for s in steps)]
    w = [x + k * y for x, y in zip(w, shift)] + [k * lcm_t * c for c in target]
    if any(c % common for c in mfs.x.lattice._substitute(w)):
        raise NotInLatticeError("constructed witness left the lattice")  # unreachable
    # a validated fan covers the preimage of the base cone, so Q is in a cone;
    # ld(Q) = ld / scale, and ld^(m+1) <= coeff^(m+1) * delta is cross-multiplied
    cone_index, nums, scale = _locate(mfs.x, w, common)
    ld = sum(nums)
    satisfied = (ld * coeff.denominator) ** (m + 1) * den <= (coeff.numerator * scale) ** (m + 1) * num
    q = _fractions(w, common)
    return WitnessReport(
        base_point=a,
        lift=_fractions(fiber, mfs.x.lattice.denominator) + a,
        t=Fraction(t_count),
        pair=(0, k),
        q=q,
        q_fiber=q[:m],
        cone_index=cone_index,
        ld_q=Fraction(ld, scale),
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
