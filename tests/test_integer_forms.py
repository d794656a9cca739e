"""Property tests for the integer forms behind lattices and cones.

A ``Lattice`` stores its denominator D and the integer Hermite rows of D N;
each ``SimplicialCone`` stores its ``inverse`` as integers K over q.  Every
reader of those forms relies on the invariants checked here, on random
lattices and cones of dimension at most 4, against the rational
Gauss-Jordan inverse of ``exactmath``, and ``Lattice.from_generators``
(Hermite form modulo D) against the checked constructor it replaced
(``oracles.checked_lattice_oracle``: ``hnf`` of Z^d and the generators).
The substitution behind coordinates, primitivization and
``ToricVariety.rays_primitive`` is checked against the kernels it replaced
(``oracles``), results and errors alike, and coordinates invert
``oracles.to_ambient_oracle``.  Every fan the library builds must carry
its rays' integer table, equal to ``_integral`` of its rays: rays =
ints / e with e least, and no search or check of the library may build
the rays' Fraction view from it.  The orthant that
``cyclic_quotient`` and ``assemble_mfs`` build in closed form must be the
checked fan on the primitive axis rays, X's fan that ``assemble_mfs``
builds from the fiber blocks of its block-diagonal cones must be the
checked fan on the normal-form rays, errors included, and each cone's
coset lattice, read off the lattice's rows on an identity cone, must be the
one the product H K and ``hnf_mod`` give (``oracles.coset_lattice_oracle``).
The report's barycentrics, read off a cone inverse of X on override fans
too, must be the exact solve, and the image F(N) it reads off N's rows the
one a base-first Hermite form gives (``oracles.surjectivity_image_oracle``).
"""

from __future__ import annotations

import math
import re
import warnings
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import checked_lattice_oracle, cone_generators, coset_lattice_oracle, det_bareiss, mat_mul, primitivize_oracle, rays_primitive_oracle, solve_oracle, surjectivity_image_oracle, to_ambient_oracle, vec_mat
from test_fiber import fibrations
from toricmld import (
    Fan,
    Lattice,
    NotInLatticeError,
    ToricMfs,
    ToricVariety,
    check_eps_delta,
    cyclic_quotient,
    example_family,
    find_witness,
    generic_fiber,
    make_mfs,
    mld,
    mld_bruteforce,
    validate,
)
from toricmld import mfs as mfs_module
from toricmld.cli import load_instance
from toricmld.exactmath import _integral, _least_terms, det, inverse
from toricmld.lattice import DegenerateBasisError, LatticeError
from toricmld.mfs import _normal_form_rays, assemble_mfs, family_spec
from toricmld.mld import _coset_lattice
from toricmld.toric import origin_barycentrics

F = Fraction
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def rationals(max_den=12, bound=3):
    return st.builds(F, st.integers(-bound * max_den, bound * max_den), st.integers(1, max_den))


@st.composite
def lattices(draw, max_dim=4):
    """Z^d plus up to three random rational generators."""
    d = draw(st.integers(1, max_dim))
    vectors = st.lists(rationals(), min_size=d, max_size=d)
    gens = draw(st.lists(vectors, max_size=3))
    return Lattice.from_generators(d, gens)


@st.composite
def varieties(draw, max_dim=4):
    """A random lattice with one full-dimensional cone of lattice-point rays."""
    lat = draw(lattices(max_dim))
    d = lat.dim
    entries = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    coords = draw(st.lists(entries, min_size=d, max_size=d))
    assume(det_bareiss(coords) != 0)
    rays = [to_ambient_oracle(lat, c) for c in coords]
    return ToricVariety(lat, Fan.build(rays, [list(range(d))]))


@PROPERTY
@given(lattices())
def test_rows_are_a_hermite_form(lat):
    h = lat.rows
    assert len(h) == lat.dim
    for i, row in enumerate(h):
        assert all(isinstance(x, int) for x in row)
        assert all(x == 0 for x in row[:i])
        assert row[i] > 0
        assert all(0 <= h[k][i] < row[i] for k in range(i))


@PROPERTY
@given(lattices())
def test_basis_is_rows_over_the_denominator(lat):
    d = lat.denominator
    assert lat.basis == tuple(tuple(F(x, d) for x in row) for row in lat.rows)
    assert d == math.lcm(*(x.denominator for row in lat.basis for x in row))
    assert F(lat.index_over_standard) == 1 / abs(det(lat.basis))


@PROPERTY
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.lists(st.one_of(rationals(), rationals(max_den=10**6, bound=1)), min_size=d, max_size=d),
            max_size=3,
        ),
    )
))
def test_from_generators_matches_the_direct_constructor(case):
    d, gens = case
    lat = Lattice.from_generators(d, gens)
    eye = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    assert (lat.denominator, lat.rows) == checked_lattice_oracle(d, eye + gens)


@pytest.mark.parametrize("gens, error, message", [
    ([(1, 0)], DegenerateBasisError, "need at least d generating rows"),
    ([(1, 0), (2, 0)], DegenerateBasisError, "generators do not span Q^d"),
    # D^d / prod(diag rows) is 1 here, yet (0, 1) is not in the group
    ([(F(1, 2), 0), (0, 2)], LatticeError, "basis does not contain Z^d with finite index"),
], ids=["too-few-rows", "rows-span-a-line", "group-without-z-d"])
def test_checked_lattice_oracle_raises_its_error(gens, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        checked_lattice_oracle(2, gens)


@PROPERTY
@given(lattices(), st.data())
def test_coords_and_contains_agree_with_the_inverse(lat, data):
    binv = inverse(lat.basis)
    for _ in range(4):
        v = data.draw(st.lists(rationals(), min_size=lat.dim, max_size=lat.dim))
        want = tuple(vec_mat(v, binv))
        assert lat.coords(v) == want
        assert lat.contains(v) == all(x.denominator == 1 for x in want)
        assert to_ambient_oracle(lat, want) == tuple(F(x) for x in v)


@PROPERTY
@given(varieties())
def test_cone_inverse_is_integral_and_reduced(x_var):
    k, q = x_var.fan.max_cones[0].inverse
    g = cone_generators(x_var.fan, x_var.fan.max_cones[0])
    d = x_var.dim
    assert q > 0 and all(isinstance(x, int) for row in k for x in row)
    assert mat_mul(g, k) == [[q * (i == j) for j in range(d)] for i in range(d)]
    assert math.gcd(q, *(x for row in k for x in row)) == 1
    assert [[F(x, q) for x in row] for row in k] == inverse(g)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def ray_candidates(draw, lat):
    """Lattice points, often non-primitive multiples, the zero vector, and
    rational vectors that may lie outside the lattice."""
    d = lat.dim
    kind = draw(st.sampled_from(["point", "multiple", "zero", "rational"]))
    if kind == "zero":
        return tuple(F(0) for _ in range(d))
    if kind == "rational":
        return tuple(draw(st.lists(rationals(), min_size=d, max_size=d)))
    c = draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d))
    k = draw(st.integers(2, 4)) if kind == "multiple" else 1
    return to_ambient_oracle(lat, [k * x for x in c])


@PROPERTY
@given(lattices(), st.data())
def test_solve_and_to_ambient_match_the_old_kernels(lat, data):
    d = lat.dim
    for _ in range(4):
        v = data.draw(st.lists(st.one_of(rationals(), st.integers(-9, 9)), min_size=d, max_size=d))
        assert _outcome(lat._solve, v) == _outcome(solve_oracle, lat, v)
        c = data.draw(st.lists(st.one_of(st.integers(-9, 9), rationals()), min_size=d, max_size=d))
        assert lat.coords(to_ambient_oracle(lat, c)) == tuple(F(x) for x in c)


@PROPERTY
@given(lattices(), st.data())
def test_primitivity_matches_primitivize_and_compare(lat, data):
    rays = [data.draw(ray_candidates(lat)) for _ in range(3)]
    for v in rays:
        assert _outcome(lat.primitivize, v) == _outcome(primitivize_oracle, lat, v)
        if lat.contains(v) and any(v):  # the ray_roles multiple: v = (g / e) primitive
            w, e = lat._read(v)
            _, g = lat._scaled_content(w, e)
            assert tuple(F(g, e) * x for x in primitivize_oracle(lat, v)) == v
    x_var = ToricVariety._on_lattice_points(lat, Fan(table_of(rays), (), lat.dim))
    assert _outcome(x_var.rays_primitive) == _outcome(rays_primitive_oracle, x_var)


@PROPERTY
@given(lattices(), st.data())
def test_integer_primitivization_is_d_times_primitivize(lat, data):
    denom = lat.denominator
    for _ in range(3):
        v = data.draw(ray_candidates(lat))
        w, e = lat._read(v)
        got = _outcome(lat._primitive_scaled, w, e, v)
        assert got == _outcome(lambda: tuple(denom * x for x in lat.primitivize(v)))
        assert got == _outcome(lambda: tuple(denom * x for x in primitivize_oracle(lat, v)))


@PROPERTY
@given(lattices(), st.data())
def test_rays_primitive_on_a_built_fan_matches_the_oracle(lat, data):
    # hand-built fans, each ray its own cone, over non-primitive and
    # non-lattice rays alike: the table's reading keeps results and errors
    rays = data.draw(st.lists(ray_candidates(lat), min_size=1, max_size=3, unique=True))
    rays = [v for v in rays if any(v)]  # the zero vector spans no cone
    assume(rays)
    x_var = ToricVariety._on_lattice_points(lat, Fan.build(rays, [[i] for i in range(len(rays))]))
    assert _outcome(x_var.rays_primitive) == _outcome(rays_primitive_oracle, x_var)


def test_rays_primitive_names_the_first_ray_off_the_lattice():
    lat = Lattice.from_generators(2, [(F(1, 2), F(1, 2))])
    fan = Fan.build([(1, 1), (F(1, 2), F(-1, 2)), (0, 1)], [[0, 1], [1, 2]])
    assert ToricVariety(lat, fan).rays_primitive() == [False, True, True]
    off = ToricVariety._on_lattice_points(lat, Fan.build([(1, 1), (F(1, 3), 0)], [[0, 1]]))
    want = (NotInLatticeError, "(Fraction(1, 3), Fraction(0, 1)) is not a lattice point")
    assert _outcome(off.rays_primitive) == _outcome(rays_primitive_oracle, off) == want


def table_of(rays):
    """``_integral`` of the rays, as the tuples a fan keeps."""
    ints, e = _integral(rays)
    return tuple(map(tuple, ints)), e


@PROPERTY
@given(varieties())
def test_fan_build_keeps_the_integer_table(x_var):
    assert x_var.fan.integral == table_of(x_var.fan.rays)


@PROPERTY
@given(st.integers(1, 10**5), st.lists(st.integers(0, 10**5), min_size=1, max_size=4))
def test_cyclic_quotient_keeps_the_integer_table(r, weights):
    fan = cyclic_quotient(r, weights).fan
    assert fan.integral == table_of(fan.rays)


@PROPERTY
@given(fibrations())
def test_fibrations_and_their_fibers_keep_the_integer_table(mfs):
    for fan in (mfs.x.fan, mfs.y.fan, generic_fiber(mfs).z.fan):
        assert fan.integral == table_of(fan.rays)


def test_ray_overrides_keep_the_integer_table():
    # assemble_mfs takes given rays through Fan.build: twice the family's
    # (not primitive, so no fiber), and the hand-built instance file's
    rays = [tuple(2 * x for x in r) for r in example_family(5).x.fan.rays]
    doubled = assemble_mfs(**family_spec(5), rays=rays)
    assert doubled.x.fan.rays == tuple(map(tuple, rays))
    shuffled = load_instance(str(Path(__file__).parent / "golden" / "mfs_shuffled_fiber.json"))
    for fan in (doubled.x.fan, doubled.y.fan, shuffled.x.fan, shuffled.y.fan, generic_fiber(shuffled).z.fan):
        assert fan.integral == table_of(fan.rays)


@st.composite
def standard_simplex_fibrations(draw):
    """``make_mfs`` on the standard fiber simplex over 1/r(w), m, n <= 2, with
    the base multiples read off the lattices, as the benchmark draws them."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    r = draw(st.integers(2, 60))
    w = draw(st.lists(st.integers(0, r - 1), min_size=m + n, max_size=m + n))
    w[m] = 1
    gen = tuple(F(a, r) for a in w)
    x_lat, y_lat = Lattice.from_generators(m + n, [gen]), Lattice.from_generators(n, [gen[m:]])
    multiples = [
        int(x_lat.primitivize([int(j == m + l) for j in range(m + n)])[m + l] / y_lat.primitivize([int(j == l) for j in range(n)])[l])
        for l in range(n)
    ]
    fiber_rays = [tuple(int(i == j) for j in range(m)) for i in range(m)] + [(-1,) * m]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a replaced base ray warns
        return make_mfs(m, n, fiber_rays, multiples, [gen])


def assert_no_ray_fractions(mfs):
    # every search and check reads the fans' integer tables, so none of them
    # builds the Fraction view of the rays
    for x_var in (mfs.x, mfs.y):
        mld(x_var)
        mld_bruteforce(x_var)
    validate(mfs)
    check_eps_delta(mfs)
    find_witness(mfs)
    for fan in (mfs.x.fan, mfs.y.fan):
        assert "rays" not in fan.__dict__


def test_family_path_builds_no_ray_fractions():
    assert_no_ray_fractions(example_family(3))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(standard_simplex_fibrations())
def test_fibration_path_builds_no_ray_fractions(mfs):
    assert_no_ray_fractions(mfs)


@st.composite
def quotient_lattices(draw):
    """Z^d, d = 1..4, plus one or two vectors in (1/r)Z^d; r = 1 gives Z^d."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, 60))
    coords = st.lists(st.integers(0, r - 1), min_size=d, max_size=d)
    gens = [tuple(F(a, r) for a in draw(coords)) for _ in range(draw(st.integers(1, 2)))]
    return Lattice.from_generators(d, gens)


def _cones(fan):
    return [(c.ray_indices, c.inverse) for c in fan.max_cones]


@PROPERTY
@given(quotient_lattices())
@example(Lattice.standard(3))
@example(Lattice.from_generators(2, [(F(1, 50), F(24, 50))]))  # 1/50(1, 24): e_1 / 2 is primitive
def test_orthant_is_the_checked_fan_on_the_primitive_axes(lat):
    d = lat.dim
    rows = [lat._primitive_scaled([int(i == j) for j in range(d)], 1) for i in range(d)]
    want = Fan._checked(*_least_terms(rows, lat.denominator), [list(range(d))])
    got = ToricVariety._orthant(lat)
    assert got.lattice is lat
    assert (got.fan.integral, got.fan.dim) == (want.integral, want.dim)
    assert _cones(got.fan) == _cones(want)


def test_cyclic_quotients_and_bases_are_orthants():
    assert _cones(cyclic_quotient(50, (1, 24)).fan) == [((0, 1), (((2, 0), (0, 1)), 1))]
    assert _cones(cyclic_quotient(617, (1, 1)).fan) == [((0, 1), (((1, 0), (0, 1)), 1))]
    fam = example_family(4)
    assert fam.y.fan.integral == ToricVariety._orthant(fam.y.lattice).fan.integral
    assert _cones(fam.y.fan) == _cones(ToricVariety._orthant(fam.y.lattice).fan)


def assert_product_fan_is_the_checked_fan(m, n, fiber_rays, extras=()):
    """``assemble_mfs``'s X fan, in closed form, against ``Fan._checked`` on
    the same rows in lowest terms: the table, each cone's indices and (K, q),
    or the same error; and the report's barycentrics, read off X's first
    cone, against ``origin_barycentrics`` on the table."""
    lat = Lattice.from_generators(m + n, extras)
    rows = [lat._primitive_scaled(v, 1) for v in _normal_form_rays(m, n, fiber_rays)]
    cones = [[i for i in range(m + n + 1) if i != j] for j in range(m + 1)]
    want = _outcome(Fan._checked, *_least_terms(rows, lat.denominator), cones)
    got = _outcome(assemble_mfs, m, n, fiber_rays, [1] * n, extras)
    if isinstance(want, tuple):  # (type, message) of the error
        assert got == want
        return
    assert (got.x.fan.integral, got.x.fan.dim) == (want.integral, want.dim)
    assert _cones(got.x.fan) == _cones(want)
    ys = origin_barycentrics([w[:m] for w in want.integral[0][: m + 1]])
    assert got._origin_barycentrics == ys  # None iff degenerate


@st.composite
def normal_form_parameters(draw):
    """m = 1..4, n = 1..3, nonzero fiber rays with entries in [-3, 3], and
    zero or one extra generator."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    ray = st.lists(st.integers(-3, 3), min_size=m, max_size=m).filter(any)
    fiber_rays = draw(st.lists(ray, min_size=m + 1, max_size=m + 1))
    extras = draw(st.lists(st.lists(rationals(), min_size=m + n, max_size=m + n), max_size=1))
    return m, n, fiber_rays, extras


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(normal_form_parameters())
@example((2, 1, [[1, 0], [0, 1], [2, -1]], []))  # collinear: the fan exists, ys is None
@example((2, 1, [[1, 0], [-1, 0], [0, 1]], []))  # cone (0, 1, 3) is dependent
@example((2, 1, [[1, 0], [2, 0], [0, 1]], []))  # duplicate primitive rays
def test_product_fan_is_the_checked_fan(params):
    assert_product_fan_is_the_checked_fan(*params)


@pytest.mark.parametrize("l", range(2, 15))
def test_family_product_fan_is_the_checked_fan(l):
    spec = family_spec(l)
    assert_product_fan_is_the_checked_fan(spec["m"], spec["n"], spec["fiber_rays"], spec["extra_generators"])


@st.composite
def override_fibrations(draw, spec=None):
    """``assemble_mfs`` arguments of a family member l = 2..7, or of the
    ``make_mfs`` arguments ``spec`` with base multiples 1, given by its rays
    and cones, moved by the lattice automorphism (f, b) -> (f A + b S, b)
    for A in GL_m(Z), a product of elementary shears and a swap, and an
    integer shear S of the base rays; the rays, the cones and each cone's
    indices are shuffled, and for m > 1 sometimes one cone is dropped."""
    if spec is None:
        spec = family_spec(draw(st.integers(2, 7)))
    m, n = spec["m"], spec["n"]
    a = [[int(i == j) for j in range(m)] for i in range(m)]
    index, entry = st.integers(0, m - 1), st.integers(-3, 3)
    for i, j, c in draw(st.lists(st.tuples(index, index, entry), max_size=4)):
        if i != j:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    if draw(st.booleans()):
        a.reverse()
    shear = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))

    def move(v):
        fiber = zip(vec_mat(v[:m], a), vec_mat(v[m:], shear))
        return tuple(x + y for x, y in fiber) + tuple(v[m:])

    rays = [move(v) for v in _normal_form_rays(m, n, spec["fiber_rays"])]
    order = draw(st.permutations(range(len(rays))))  # ray order[k] goes to position k
    cones = [[order.index(i) for i in range(len(rays)) if i != j] for j in range(m + 1)]
    cones = [draw(st.permutations(cone)) for cone in draw(st.permutations(cones))]
    if m > 1 and draw(st.booleans()):  # at m = 1 each cone holds a ray no other does
        cones.pop()
    fiber_rays = [move(v + (0,) * n)[:m] for v in spec["fiber_rays"]]
    extras = [move(g) for g in spec["extra_generators"]]
    return m, n, fiber_rays, [1] * n, extras, [rays[k] for k in order], cones


FAMILY_2_EXTRAS = [(F(2, 17), F(4, 17), F(1, 17), F(1, 17))]
FAMILY_2_RAYS = [(1, 0, 0, 0), (-1, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(override_fibrations())
@example((2, 2, [(1, 0), (-1, 1), (-1, -1)], [1, 1], FAMILY_2_EXTRAS, FAMILY_2_RAYS, [[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4]]))
@example((2, 2, [(1, 0), (-1, 1), (-1, -1)], [1, 1], FAMILY_2_EXTRAS, FAMILY_2_RAYS, [[0, 2, 3, 4], [0, 1, 3, 4]]))
@example((2, 2, [(1, 0), (-1, 1), (-1, -1)], [1, 1], FAMILY_2_EXTRAS, FAMILY_2_RAYS + [(0, 1, 1, 0)], [[1, 3, 4, 5], [0, 2, 3, 4], [0, 1, 3, 4]]))
def test_origin_barycentrics_read_off_an_override_fan(params):
    """The report's barycentrics equal ``origin_barycentrics`` on the kernel
    rows of the table, and they are solved iff no cone of X omits just the
    first fiber ray; otherwise they are read off that cone's inverse.  The
    examples: the read-off, the solve on a dropped cone, and the solve where
    the full cone omitting the first fiber ray omits a second one too."""
    mfs = assemble_mfs(*params)
    m, kernel, (ints, _) = mfs.m, mfs._kernel_ray_indices, mfs.x.fan.integral
    want = origin_barycentrics([ints[i][:m] for i in kernel])
    solves = []

    def counted(vertices):
        solves.append(vertices)
        return origin_barycentrics(vertices)

    with patch.object(mfs_module, "origin_barycentrics", counted):
        assert mfs._origin_barycentrics == want
    others = set(range(len(ints))) - {kernel[0]}
    has_cone = any(set(c.ray_indices) == others for c in mfs.x.fan.max_cones)
    assert len(solves) == (not has_cone)


@st.composite
def split_lattices(draw):
    """(m, N): a random lattice of dimension m + n, m and n in 1..3."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vectors = st.lists(rationals(), min_size=m + n, max_size=m + n)
    return m, Lattice.from_generators(m + n, draw(st.lists(vectors, max_size=3)))


@PROPERTY
@given(split_lattices())
def test_surjectivity_reads_the_image_off_the_hermite_rows(case):
    """``lattice_surjectivity`` passes on a base lattice iff it is F(N) of
    the base-first Hermite form."""
    m, lat = case
    want = surjectivity_image_oracle(lat, m)
    x = ToricVariety._orthant(lat)
    for base in {want, Lattice.standard(lat.dim - m)}:
        report = validate(ToricMfs(x=x, y=ToricVariety._orthant(base)))
        assert report["lattice_surjectivity"].passed == (base == want)


def assert_coset_lattices_match(x_var):
    for ci, cone in enumerate(x_var.fan.max_cones):
        got, want = _coset_lattice(x_var, ci), coset_lattice_oracle(x_var, ci)
        if want is None:
            assert got is None
            continue
        denom, h, gint = got
        assert (denom, [list(row) for row in h], gint) == want
        k, q = cone.inverse
        if q == 1 and k == tuple(tuple(int(i == j) for j in range(x_var.dim)) for i in range(x_var.dim)):
            assert h is x_var.lattice.rows  # the identity cone's shortcut


@st.composite
def standard_cones(draw):
    """One cone over Z^d, d = 1..4, on primitive rays, most not unimodular."""
    d = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    rows = draw(st.lists(entries, min_size=d, max_size=d))
    assume(det_bareiss(rows) != 0)
    lat = Lattice.standard(d)
    rays = [lat.primitivize(row) for row in rows]
    return ToricVariety(lat, Fan.build(rays, [list(range(d))]))


@PROPERTY
@given(st.one_of(quotient_lattices().map(ToricVariety._orthant), standard_cones(), varieties()))
@example(cyclic_quotient(617, (1, 1)))
@example(cyclic_quotient(50, (1, 24)))
def test_coset_lattice_matches_the_product_and_hermite_form(x_var):
    assert_coset_lattices_match(x_var)


@pytest.mark.parametrize("l", range(2, 8))
def test_family_coset_lattices_match_the_product_and_hermite_form(l):
    fam = example_family(l)
    assert_coset_lattices_match(fam.x)
    assert_coset_lattices_match(fam.y)
