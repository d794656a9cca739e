"""Toric Mori fiber spaces in fan normal form.

Normal form: X has dimension m+n and Y dimension n, so a fibration is just
the pair (X, Y).  The lattice map F to the base is the projection onto the
last n = dim Y coordinates, the base Y is the nonnegative orthant cone over
the image lattice, and the fan of X has exactly m+n+1 rays: m+1 "fiber" rays
spanning ker F with the origin strictly inside their simplex, one ray over
each base axis, and the maximal cones are exactly the full index sets
omitting one fiber ray.

``validate`` re-checks every piece of that structure independently and
reports per-check results instead of raising, so deliberately broken inputs
can be diagnosed.  ``ToricMfs.report`` runs the checks once per fibration and
keeps the result; ``validate`` returns it.  The checks read F(N) off the
base blocks of X's Hermite rows, and the origin's barycentrics off the
stored inverse of X's cone omitting the first fiber ray.
``generic_fiber`` takes its kernel lattice from a base-first Hermite form
and checks its simplex fan as ``Fan.build`` does; the witness layer reads
the fiber cones' inverses straight off X's cones, so only its callers
build the fiber.  Both refuse a fibration that fails validation.
``assemble_mfs`` is the one place that builds
a fibration from its normal-form parameters; it checks their shapes but not
the geometry, so ``validate`` can report every failed check.  With no ray
or cone override it builds X's fan in ``_product_fan`` from the fiber
blocks of its block-diagonal cones, with no elimination in dimension m + n.
``make_mfs`` is the safe constructor that gates the assembly.
``example_family`` builds the weighted-quotient family (parameters in
``family_spec``) whose base discrepancy shrinks like the fourth power of
the total-space discrepancy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Iterable, Optional, Sequence

from .exactmath import (
    SingularMatrixError,
    _integral,
    _least_terms,
    _scaled_inverse,
    as_fractions,
    hnf_mod,
    invariant_factors,
)
from .lattice import Lattice, Vector, _fractions
from .mld import _Budget, mld
from .toric import Fan, NonSimplicialError, SimplicialCone, ToricVariety, origin_barycentrics


# fibrations up to this dimension m + n set up under any work guard; the
# family's (m = n = 2) is one of them
_SETUP_FREE_DIM = 4


class InvalidMfsError(ValueError):
    pass


class DegenerateSimplexError(InvalidMfsError):
    """Fiber rays do not form a simplex with the origin strictly inside."""


class NonSurjectiveError(InvalidMfsError):
    """The projection does not map the total lattice onto the base lattice."""


class BaseMultipleMismatchError(InvalidMfsError):
    """Requested base-ray multiples disagree with the constructed lattices."""


class BadParameterError(ValueError):
    pass


@dataclass(frozen=True)
class ToricMfs:
    """A fibration X -> Y in normal form, F being the projection onto the
    last dim Y coordinates; ``report`` is its one validation, and every
    fact it reads is derived from the two varieties."""

    x: ToricVariety
    y: ToricVariety

    @property
    def m(self) -> int:
        """Fiber dimension."""
        return self.x.dim - self.y.dim

    @property
    def n(self) -> int:
        """Base dimension."""
        return self.y.dim

    @cached_property
    def report(self) -> ValidationReport:
        """The normal-form checks of ``validate``, run on first use and kept."""
        return _run_checks(self)

    @cached_property
    def _kernel_ray_indices(self) -> list[int]:
        """Indices of the rays of X in ker F, the fiber rays, in table order:
        found once for the report's checks, the barycentrics and ``generic_fiber``."""
        return [i for i, w in enumerate(self.x.fan.integral[0]) if not any(w[self.m:])]

    @cached_property
    def _origin_barycentrics(self) -> Optional[tuple[Fraction, ...]]:
        """The origin's barycentrics in the fiber simplex, in kernel order,
        None when it is degenerate, for ``fiber_simplex`` and
        ``generic_fiber``.  The cone on every ray but the first fiber ray
        v_0 = w_0 / e has n generators independent on the base, so
        -v_0 = (u / e q) . (the other fiber rays) for u = -w_0 K at their
        columns, and ys is (e q, u) over its sum, which is 0 iff the simplex
        is degenerate.  A fan without that cone gets one solve on the table,
        as scaling vertices keeps ys."""
        m, kernel, (ints, e) = self.m, self._kernel_ray_indices, self.x.fan.integral
        w0 = ints[kernel[0]][:m]
        for cone in self.x.fan.max_cones:
            idx = cone.ray_indices
            if len(idx) == len(ints) - 1 and kernel[0] not in idx and cone.inverse is not None:
                k, q = cone.inverse
                u = [-sum(a * row[idx.index(i)] for a, row in zip(w0, k)) for i in kernel[1:]]
                s = e * q + sum(u)
                return tuple(Fraction(x, s) for x in [e * q] + u) if s else None
        return origin_barycentrics([ints[i][:m] for i in kernel])

    def _require_valid(self) -> None:
        """Raise InvalidMfsError naming the failed checks unless ``report``
        passes: the gate of ``generic_fiber`` and of the witness layer."""
        if not self.report.overall:
            failed = [c.name for c in self.report.checks if not c.passed]
            raise InvalidMfsError(f"normal-form validation failed: {failed}")

    def project(self, v: Sequence) -> Vector:
        """Apply F: drop the first m (fiber) coordinates."""
        return as_fractions(v[self.m:])


@dataclass(frozen=True)
class FiberData:
    """Generic fiber: its toric variety, simplex vertices, and where 0 sits."""

    z: ToricVariety
    simplex_vertices: tuple[Vector, ...]
    origin_barycentrics: tuple[Fraction, ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    overall: bool

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate(mfs: ToricMfs) -> ValidationReport:
    """Every normal-form check, each run independently, failures as report
    rows: ``mfs.report``, so the checks run once per fibration."""
    return mfs.report


def _run_checks(mfs: ToricMfs) -> ValidationReport:
    """The checks behind ``ToricMfs.report``."""
    checks: list[CheckResult] = []
    m, n = mfs.m, mfs.n
    x_ints, x_e = mfs.x.fan.integral

    # the fiber/base split of the rays, shared by the checks that need it
    kernel = mfs._kernel_ray_indices
    bad_kernel = None if len(kernel) == m + 1 else f"{len(kernel)} rays in ker F, expected {m + 1}"

    def run(name: str, fn, needs_kernel: bool = False) -> bool:
        try:
            passed, detail = (False, bad_kernel) if needs_kernel and bad_kernel else fn()
        except Exception as exc:  # a failed check must never abort the report
            passed, detail = False, f"check crashed: {exc}"
        checks.append(CheckResult(name, passed, detail))
        return passed

    def ray_count():
        want = n + m + 1
        return len(x_ints) == want, f"{len(x_ints)} rays, expected {want}"

    def ray_roles():
        axis_of: dict[int, int] = {}
        for i, w in enumerate(x_ints):
            if i in kernel:
                continue
            image = w[m:]
            support = [l for l in range(n) if image[l] != 0]
            if len(support) != 1 or image[support[0]] <= 0:
                return False, f"ray {i} does not map onto a base axis ray"
            l = support[0]
            if l in axis_of:
                return False, f"base axis {l + 1} is hit by two rays"
            axis_of[l] = i
        if sorted(axis_of) != list(range(n)):
            return False, f"base axes covered: {sorted(axis_of)}"
        y_ints, y_cones = mfs.y.fan.integral[0], mfs.y.fan.max_cones
        y_axes = {l for w in y_ints for l in range(n) if w[l] > 0 and not any(w[:l] + w[l + 1 :])}
        if len(y_ints) != n or len(y_axes) != n or len(y_cones) != 1 or y_cones[0].dim != n:
            return False, "base fan is not the orthant on the base axes"
        multiples = []  # image = (g / e) primitive, for its coordinates C / e and g = gcd(C)
        for l in range(n):
            i = axis_of[l]
            _, g = mfs.y.lattice._scaled_content(x_ints[i][m:], x_e)
            multiples.append(Fraction(g, x_e))
        return True, "base-ray multiples " + ", ".join(str(c) for c in multiples)

    def rays_primitive():
        bad = [i for i, ok in enumerate(mfs.x.rays_primitive()) if not ok]
        bad_y = [i for i, ok in enumerate(mfs.y.rays_primitive()) if not ok]
        if bad or bad_y:
            return False, f"non-primitive rays: X {bad}, Y {bad_y}"
        return True, "all ray generators primitive"

    def fiber_simplex():
        ys = mfs._origin_barycentrics
        if ys is None:
            return False, "fiber vertices are affinely degenerate"
        if any(y <= 0 for y in ys):
            return False, f"origin not strictly inside: barycentrics {tuple(map(str, ys))}"
        return True, f"origin barycentrics {tuple(map(str, ys))}"

    def cone_shape():
        everything = set(range(len(x_ints)))
        expected = {frozenset(everything - {j}) for j in kernel}
        actual = {frozenset(c.ray_indices) for c in mfs.x.fan.max_cones}
        if actual != expected:
            return False, "maximal cones are not the full sets omitting one fiber ray"
        return True, f"{len(actual)} maximal cones of the product shape"

    def lattice_surjectivity():
        lat = mfs.x.lattice  # D N's Hermite rows span D F(N) by their base blocks
        image = [row[m:] for row in lat.rows]
        if m >= 0 and Lattice._from_scaled(n, lat.denominator, image) == mfs.y.lattice:
            return True, "projection maps the total lattice onto the base lattice"
        rows = []  # the failure's detail: where the image leaves, or its cokernel
        for b in mfs.x.lattice.basis:
            c = mfs.y.lattice.coords(mfs.project(b))
            if any(x.denominator != 1 for x in c):
                return False, "image of the total lattice is not inside the base lattice"
            rows.append([int(x) for x in c])
        return False, f"cokernel invariant factors {invariant_factors(rows)}"

    def picard_rank():
        rank = len(x_ints) - len(mfs.y.fan.integral[0]) - m
        return rank == 1, f"relative Picard rank {rank}"

    def properness():  # the base rays must lie on the base cone's axes too
        if not (by_name["fiber_simplex"] and by_name["cone_shape"]):
            return False, "support condition fails (see fiber_simplex / cone_shape)"
        if not by_name["ray_roles"]:
            return False, "support condition fails (see ray_roles)"
        return True, "support of the fan equals the preimage of the base cone"

    run("ray_count", ray_count)
    run("ray_roles", ray_roles, needs_kernel=True)
    run("rays_primitive", rays_primitive)
    run("fiber_simplex", fiber_simplex, needs_kernel=True)
    run("cone_shape", cone_shape, needs_kernel=True)
    run("lattice_surjectivity", lattice_surjectivity)
    run("relative_picard_rank", picard_rank)
    by_name = {c.name: c.passed for c in checks}
    run("properness_support", properness)

    return ValidationReport(checks=tuple(checks), overall=all(c.passed for c in checks))


def generic_fiber(mfs: ToricMfs) -> FiberData:
    """The fiber over the dense base point (kernel lattice, simplex fan,
    the origin's barycentrics), read off X on a fibration that passes
    validation: the fan is ``Fan._checked``'s on the fiber blocks of the
    kernel rays, the barycentrics the report's ``fiber_simplex`` ones, and
    the lattice comes from a base-first Hermite form."""
    mfs._require_valid()
    m, n, lat = mfs.m, mfs.n, mfs.x.lattice
    # D N's rows mod D, base first: the last m, zero on the base, span D (N cap ker F)
    base_first = hnf_mod([row[m:] + row[:m] for row in lat.rows], lat.denominator)
    z_lattice = Lattice._from_scaled(m, lat.denominator, [row[n:] for row in base_first[n:]])
    kernel, (ints, e) = mfs._kernel_ray_indices, mfs.x.fan.integral
    fan = Fan._checked(*_least_terms([ints[i][:m] for i in kernel], e), combinations(range(m + 1), m))
    z = ToricVariety._on_lattice_points(z_lattice, fan)
    return FiberData(z=z, simplex_vertices=fan.rays, origin_barycentrics=mfs._origin_barycentrics)


def _check_parameters(m, n, fiber_rays, base_multiples, extra_generators) -> list[Vector]:
    """Shape checks on normal-form parameters; returns the extra generators."""
    if m < 1 or n < 1:
        raise BadParameterError("fiber and base dimensions must be positive")
    if len(fiber_rays) != m + 1:
        raise BadParameterError(f"need {m + 1} fiber rays, got {len(fiber_rays)}")
    if any(len(v) != m for v in fiber_rays):
        raise BadParameterError("fiber rays must have the fiber dimension")
    if any(int(c) != c for v in fiber_rays for c in v):
        raise BadParameterError("fiber rays must be integer vectors")
    if len(base_multiples) != n or any(int(c) != c or c < 1 for c in base_multiples):
        raise BadParameterError("base multiples must be n positive integers")
    extras = [as_fractions(g) for g in extra_generators]
    if any(len(g) != m + n for g in extras):
        raise BadParameterError("extra generators must have dimension m+n")
    return extras


def _normal_form_rays(m: int, n: int, fiber_rays: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The fiber rays in the first m coordinates, then the n base axes."""
    return [tuple(int(c) for c in v) + (0,) * n for v in fiber_rays] + [
        tuple(int(j == m + l) for j in range(m + n)) for l in range(n)
    ]


def _product_fan(ints: tuple, e: int, m: int) -> Fan:
    """X's fan on the normal-form table rays = ints / e, each maximal cone
    omitting one fiber ray.

    The cone omitting fiber ray j has a block-diagonal generator matrix: the
    other m fiber blocks over e beside diag(b) / e, b the base axis entries.
    So its inverse is the fiber block's ``_scaled_inverse`` (K, q) beside
    diag(e / b), over q.  N contains Z^(m+n), so each base ray is
    e_(m+l) / g_l and e / b_l = g_l is an integer, as in
    ``ToricVariety._orthant``; K / q is least, so the whole is.  It raises
    what ``Fan._checked`` raises, in the same order: duplicate rays, then the
    first cone whose fiber blocks are dependent; every other check holds by
    construction.
    """
    if len(set(ints)) != len(ints):
        raise ValueError("duplicate rays in fan")
    n = len(ints[0]) - m
    fiber = [w[:m] for w in ints[: m + 1]]
    g = [e // ints[m + 1 + l][m + l] for l in range(n)]
    cones = []
    for j in range(m + 1):
        idx = tuple(i for i in range(m + n + 1) if i != j)
        try:
            k, q = _scaled_inverse([fiber[i] for i in idx[:m]], e)
        except SingularMatrixError:
            raise NonSimplicialError(f"cone {idx} generators are dependent") from None
        rows = [row + (0,) * n for row in k]
        rows += [(0,) * (m + l) + (q * g[l],) + (0,) * (n - 1 - l) for l in range(n)]
        cones.append(SimplicialCone(idx, (tuple(rows), q)))
    return Fan((ints, e), tuple(cones), m + n)


def assemble_mfs(
    m: int,
    n: int,
    fiber_rays: Sequence[Sequence[int]],
    base_multiples: Sequence[int],
    extra_generators: Sequence[Sequence] = (),
    rays: Optional[Sequence[Sequence]] = None,
    max_cones: Optional[Sequence[Sequence[int]]] = None,
) -> ToricMfs:
    """Build X -> Y from normal-form parameters without geometric gating.

    Only the parameter shapes are checked (BadParameterError), so that
    ``validate`` can report every structural check on the result.  The rays
    of X are the primitive generators on the fiber rays and the base axes,
    and each maximal cone omits one fiber ray, unless ``rays`` and
    ``max_cones`` override them.  With neither override the fan is
    ``_product_fan``'s, degenerate simplices included; overrides get every
    check; the report reads X's barycentrics off its cones either way.  Y is
    the orthant over its primitive axis rays in Z^n + (1/c_l) e_l + the
    base parts of the extra generators, built in closed form by
    ``ToricVariety._orthant``, with no elimination.

    The Hermite forms of the set-up take time cubic in m + n, and the cone
    inverses (m + 1) m^3 from the fiber blocks, or (m + 1)(m + n)^3 on the
    checked path; nothing of it is counted as it runs.  So the set-up
    is charged by size instead: before any lattice is built, a dimension
    m + n above ``_SETUP_FREE_DIM`` spends (m + n)^3 units of a ``_Budget``,
    so one whose cube exceeds ``GUARD`` raises TooLargeError.  Set-ups up
    to that dimension pass any guard, so a small guard still reaches the
    mld searches that follow them.
    """
    extras = _check_parameters(m, n, fiber_rays, base_multiples, extra_generators)
    if m + n > _SETUP_FREE_DIM:
        _Budget(f"fibration set-up of dimension {m + n}").spend((m + n) ** 3)
    gens, d = _integral(extras)  # extras = gens / d; Y adds (1 / c_l) e_l
    x_lattice = Lattice._from_scaled(m + n, d, gens)
    c = [int(x) for x in base_multiples]
    d_y = math.lcm(d, *c)
    y_lattice = Lattice._from_scaled(
        n,
        d_y,
        [[d_y // c[l] * (j == l) for j in range(n)] for l in range(n)]
        + [[d_y // d * x for x in row[m:]] for row in gens],
    )
    if rays is None:
        rows = [x_lattice._primitive_scaled(v, 1) for v in _normal_form_rays(m, n, fiber_rays)]
        table = _least_terms(rows, x_lattice.denominator)
        if max_cones is None:
            x_fan = _product_fan(*table, m)
        else:  # given cones get every check
            x_fan = Fan._checked(*table, max_cones)
        x_var = ToricVariety._on_lattice_points(x_lattice, x_fan)
    else:  # given rays must be checked to be lattice points
        cones = max_cones
        if cones is None:
            cones = [[i for i in range(len(rays)) if i != j] for j in range(m + 1)]
        x_var = ToricVariety(x_lattice, Fan.build(rays, cones))
    return ToricMfs(x=x_var, y=ToricVariety._orthant(y_lattice))


def warn_replaced_rays(mfs: ToricMfs, fiber_rays: Sequence[Sequence[int]]) -> None:
    """Warn for each normal-form ray that assembly replaced by its primitive
    generator, a positive multiple of it: a fiber ray whose fiber block
    changed, or a base axis whose coordinate is no longer 1."""
    m, (ints, e) = mfs.m, mfs.x.fan.integral  # ray i is ints[i] / e
    for i, v in enumerate(fiber_rays):
        if ints[i][:m] != tuple(e * c for c in v):
            warnings.warn(f"fiber ray {tuple(v)} replaced by primitive generator {_fractions(ints[i], e)}")
    for l in range(mfs.n):
        if ints[m + 1 + l][m + l] != e:
            warnings.warn(f"base ray {l + 1} replaced by primitive generator {_fractions(ints[m + 1 + l], e)}")


def make_mfs(
    m: int,
    n: int,
    fiber_rays: Sequence[Sequence[int]],
    base_multiples: Sequence[int],
    extra_generators: Sequence[Sequence] = (),
) -> ToricMfs:
    """Build and validate a fibration in normal form.

    ``fiber_rays``: m+1 integer vectors in the fiber coordinates whose simplex
    must contain the origin strictly inside.  ``base_multiples``: the required
    multiple c_l between the image of the l-th base ray and the primitive
    base-lattice generator on that axis; realizing c_l > 1 takes extra
    generators mixing fiber and base coordinates.  ``extra_generators``:
    rational vectors adjoined to Z^(m+n).

    Rays that fail to be primitive in the extended lattice are replaced by
    their primitive generators (with a warning).

    The gates run in the order simplex, surjectivity, base multiples, and
    then the whole report.  The simplex gate is validation's ``fiber_simplex``
    check: the primitive generators are positive multiples of the fiber rays,
    so the origin is strictly inside the one simplex iff inside the other.
    Every ValueError of the assembly past its parameter checks, a zero fiber
    ray, two fiber rays on one primitive ray or a cone whose fiber rays are
    dependent, puts the origin outside the open simplex, so it fails that
    gate too.
    """
    try:
        mfs = assemble_mfs(m, n, fiber_rays, base_multiples, extra_generators)
    except BadParameterError:
        raise
    except ValueError:
        mfs = None
    if mfs is None or not mfs.report["fiber_simplex"].passed:
        raise DegenerateSimplexError(
            "fiber rays must form a simplex with the origin strictly inside"
        )

    report = mfs.report
    if not report["lattice_surjectivity"].passed:
        raise NonSurjectiveError(
            "projection image of the total lattice is smaller than the base lattice"
        )
    warn_replaced_rays(mfs, fiber_rays)
    (x_ints, x_e), (y_ints, y_e) = mfs.x.fan.integral, mfs.y.fan.integral
    for l in range(n):  # the ratio of the two axis entries, num / den
        num, den = x_ints[m + 1 + l][m + l] * y_e, x_e * y_ints[l][l]
        if num != int(base_multiples[l]) * den:
            raise BaseMultipleMismatchError(
                f"base axis {l + 1}: requested multiple {base_multiples[l]}, "
                f"lattice gives {Fraction(num, den)}"
            )

    if not report.overall:
        failed = [c.name for c in report.checks if not c.passed]
        raise InvalidMfsError(f"construction failed validation: {failed}")
    return mfs


def family_spec(l: int) -> dict:
    """``make_mfs`` arguments of the family member l (see ``example_family``)."""
    if l < 2:
        raise BadParameterError(f"family parameter must be at least 2, got {l}")
    r = l**4 + 1
    return dict(
        m=2,
        n=2,
        fiber_rays=[(1, 0), (-(l - 1), 1), (-(l - 1), -1)],
        base_multiples=(1, 1),
        extra_generators=[(Fraction(l, r), Fraction(l * l, r), Fraction(1, r), Fraction(1, r))],
    )


def example_family(l: int) -> ToricMfs:
    """The weighted-quotient family with m = n = 2 and group order l^4 + 1.

    Fiber triangle (1,0), (-(l-1),1), (-(l-1),-1) times an affine plane,
    quotiented by the cyclic group of order r = l^4+1 acting with weights
    (l, l^2; 1, 1)/r.  The base is the cyclic quotient surface 1/r (1,1).
    """
    return make_mfs(**family_spec(l))


@dataclass(frozen=True)
class FamilySweepRow:
    """One row of the family sweep; ratio_approx is the only inexact field."""

    l: int
    r: int
    mld_x: Fraction
    mld_y: Fraction
    ratio_approx: float

    @classmethod
    def compute(cls, l: int) -> "FamilySweepRow":
        fam = example_family(l)
        mx = mld(fam.x).value
        my = mld(fam.y).value
        return cls(
            l=l,
            r=fam.y.lattice.index_over_standard,
            mld_x=mx,
            mld_y=my,
            ratio_approx=float(my / mx**4),
        )


def sweep_family(l_min: int, l_max: int) -> list[FamilySweepRow]:
    """Exact discrepancies of the family for l in [l_min, l_max].  Rows are
    independent; output is ordered by l."""
    if l_min < 2 or l_max < l_min:
        raise BadParameterError("need 2 <= l_min <= l_max")
    return [FamilySweepRow.compute(l) for l in range(l_min, l_max + 1)]


def loglog_slope(points: Sequence[tuple[Fraction, Fraction]]) -> Optional[float]:
    """Least-squares slope of log y against log x; None when the points have
    fewer than 2 distinct values of log x, through which no line is fitted."""
    xs = [math.log(x) for x, _ in points]
    if len(set(xs)) < 2:
        return None
    ys = [math.log(y) for _, y in points]
    k = len(points)
    mean_x = _add_up(xs) / k
    mean_y = _add_up(ys) / k
    sxx = _add_up((x - mean_x) ** 2 for x in xs)
    sxy = _add_up((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def _add_up(values: Iterable[float]) -> float:
    # left to right: the built-in sum compensates from Python 3.12 on
    return reduce(add, values, 0.0)
