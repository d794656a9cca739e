import random
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rand_standard_simplex_mfs, standard_fiber_rays
from oracles import (
    dirichlet_pair,
    effective_delta_oracle,
    fiber_oracle,
    first_multiple_loop,
    lift_oracle,
    scan_oracle_pair,
    vec_mat,
    witness_report_oracle,
    with_guard,
)
from test_fiber import SHUFFLED, fibrations, relisted
from test_integer_forms import override_fibrations
from toricmld import (
    Fan,
    InvalidMfsError,
    Lattice,
    NoPairFoundError,
    NotInBaseLatticeError,
    PreconditionFailedError,
    TooLargeError,
    ToricMfs,
    ToricVariety,
    ZeroVectorError,
    check_eps_delta,
    effective_delta,
    example_family,
    find_containing_cone,
    find_witness,
    generic_fiber,
    lift_to_X,
    log_discrepancy,
    make_mfs,
    mld,
)
from toricmld.cli import load_instance
from toricmld.exactmath import iroot_floor
from toricmld.mfs import assemble_mfs
from toricmld.witness import _first_multiple

F = Fraction
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
FIBRATIONS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def all_pairs_oracle(points, t):
    """Reference search in the same (smallest j, then smallest i) order."""
    m = len(points[0])

    def gap(a, b):
        f = (a - b) % 1
        return min(f, 1 - f)

    for j in range(1, len(points)):
        for i in range(j):
            worst = max(gap(points[i][l], points[j][l]) for l in range(m))
            if worst**m * t <= 1:
                return (i, j)
    return None


def test_lift_trivial_product():
    mfs = make_mfs(1, 2, [(1,), (-1,)], (1, 1), [])
    assert lift_to_X(mfs, (1, 1)) == (F(0), F(1), F(1))


def test_lift_family():
    mfs = example_family(2)
    p = lift_to_X(mfs, (F(1, 17), F(1, 17)))
    assert p == (F(2, 17), F(4, 17), F(1, 17), F(1, 17))


def test_lift_fiber_coordinates_reduced():
    rng = random.Random(71)
    for _ in range(20):
        mfs = rand_standard_simplex_mfs(rng, rng.choice([1, 2]), rng.choice([1, 2]), 80)
        base = mld(mfs.y).witness
        p = lift_to_X(mfs, base)
        assert all(0 <= c < 1 for c in p[: mfs.m])
        assert mfs.project(p) == base
        assert mfs.x.lattice.contains(p)


def index_three_line():
    """m = 1 over a smooth base, kernel lattice Z + 1/3 Z."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_mfs(1, 1, [(1,), (-1,)], (1,), [(F(1, 3), 0)])


def base_points(mfs, coeffs):
    """Base lattice points: the base witness, the basis and one combination."""
    basis = mfs.y.lattice.basis
    return [mld(mfs.y).witness, *basis, tuple(vec_mat(coeffs, basis))]


def coefficients(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n)


def assert_lift_matches_the_oracle(mfs, coeffs):
    for a in base_points(mfs, coeffs):
        if any(a):
            assert lift_to_X(mfs, a) == lift_oracle(mfs, a)
    halved = tuple(c / 2 for c in mfs.y.lattice.basis[0])  # off the base lattice
    with pytest.raises(NotInBaseLatticeError):
        lift_to_X(mfs, halved)


@FIBRATIONS
@given(fibrations(), st.data())
def test_lift_matches_the_transform_oracle(mfs, data):
    assert_lift_matches_the_oracle(mfs, data.draw(coefficients(mfs.n)))


@FIBRATIONS
@given(fibrations(base_multiples=True), st.data())
def test_lift_matches_the_transform_oracle_over_base_multiples(mfs, data):
    n = mfs.n
    assert any(mfs.x.fan.rays[mfs.m + 1 + l][mfs.m + l] != mfs.y.fan.rays[l][l] for l in range(n))
    assert_lift_matches_the_oracle(mfs, data.draw(coefficients(n)))


def test_lift_matches_the_transform_oracle_after_a_reduction_above_a_pivot():
    # the Hermite form of the base blocks reduces an entry above its second
    # pivot, and a lift whose fiber rows skipped that step would differ here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gen = (F(9, 26), F(10, 13), F(12, 13), F(15, 26))
        mfs = make_mfs(2, 2, [(3, 3), (-3, -1), (6, 0)], (1, 2), [gen])
    a = (F(1, 13), F(11, 26))
    assert lift_to_X(mfs, a) == lift_oracle(mfs, a) == (F(17, 26), F(3, 13), F(1, 13), F(11, 26))


def test_lift_matches_the_transform_oracle_where_the_kernel_lattice_is_larger():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shuffled = load_instance(str(SHUFFLED))
    for mfs in (shuffled, index_three_line()):
        assert generic_fiber(mfs).z.lattice.index_over_standard == 3
        for c in range(-3, 4):
            assert_lift_matches_the_oracle(mfs, [c] + [1 - c] * (mfs.n - 1))


def test_lift_rejects_zero_and_foreign_points():
    mfs = example_family(2)
    with pytest.raises(ZeroVectorError):
        lift_to_X(mfs, (0, 0))
    with pytest.raises(NotInBaseLatticeError):
        lift_to_X(mfs, (F(1, 5), F(1, 5)))
    with pytest.raises(ValueError, match=r"^base point has dimension 3, expected 2$"):
        lift_to_X(mfs, (1, 1, 1))


def test_lift_rejects_a_point_that_fails_only_the_triangular_solve():
    # 17 (1/17, 0) is integral, so the denominator check passes, but the
    # base lattice of family l = 2 is Z^2 + Z (1, 1) / 17
    with pytest.raises(NotInBaseLatticeError):
        lift_to_X(example_family(2), (F(1, 17), 0))


def test_dirichlet_pair_two_points():
    assert dirichlet_pair([(F(0),), (F(1, 2),)], F(2)) == (0, 1)


def test_dirichlet_pair_duplicates():
    assert dirichlet_pair([(F(1, 3),), (F(1, 3),)], F(1)) == (0, 1)


def test_dirichlet_pair_golden_rotation():
    # rational stand-in for the golden rotation; pigeonhole at t = 10
    phi = F(618034, 1000000)
    pts = [((k * phi) % 1,) for k in range(11)]
    pair = dirichlet_pair(pts, F(10))
    assert pair == all_pairs_oracle([(p[0],) for p in pts], F(10))
    i, j = pair
    gap = (pts[j][0] - pts[i][0]) % 1
    assert min(gap, 1 - gap) <= F(1, 10)


def test_dirichlet_pair_matches_oracle_2d():
    rng = random.Random(72)
    for _ in range(30):
        count = rng.randint(5, 18)
        pts = [
            (F(rng.randrange(60), 60), F(rng.randrange(60), 60)) for _ in range(count)
        ]
        t = F(count - 1)
        expected = all_pairs_oracle_2d(pts, t)
        assert dirichlet_pair(pts, t) == expected


def all_pairs_oracle_2d(points, t):
    def gap(a, b):
        f = (a - b) % 1
        return min(f, 1 - f)

    for j in range(1, len(points)):
        for i in range(j):
            worst = max(gap(points[i][l], points[j][l]) for l in range(2))
            if worst**2 * t <= 1:
                return (i, j)
    return None


def test_dirichlet_pair_none_when_hypothesis_violated():
    with pytest.raises(NoPairFoundError):
        dirichlet_pair([(F(0),), (F(1, 2),)], F(100))


def test_effective_delta_standard_simplex():
    std = make_mfs(2, 2, standard_fiber_rays(2), (1, 1), [])
    ed = effective_delta(generic_fiber(std))
    assert ed.c_z == 3
    assert ed.c_z + 1 == 4  # twice the fiber dimension


def test_effective_delta_line():
    line = make_mfs(1, 1, [(1,), (-1,)], (1,), [])
    ed = effective_delta(generic_fiber(line))
    assert ed.c_z == 1
    assert ed.delta_of(F(1, 2)) == F(1, 16)
    assert ed.delta_of(F(1, 3)) == F(1, 36)


def test_effective_delta_family_grows():
    values = []
    for l in (2, 3, 4, 6):
        ed = effective_delta(generic_fiber(example_family(l)))
        assert ed.c_z == l + 1
        values.append(ed.c_z)
    assert values == sorted(values)


def test_effective_delta_at_least_fiber_dimension():
    rng = random.Random(75)
    instances = [
        make_mfs(1, 1, [(1,), (-1,)], (1,), []),
        make_mfs(2, 2, standard_fiber_rays(2), (1, 1), []),
        example_family(2),
        example_family(5),
    ]
    for _ in range(10):
        instances.append(rand_standard_simplex_mfs(rng, rng.choice([1, 2]), 1, 60))
    for mfs in instances:
        ed = effective_delta(generic_fiber(mfs))
        assert ed.c_z >= mfs.m


def assert_c_read_from_the_fiber_cones(mfs):
    """find_witness and check_eps_delta build no fiber, and their C is
    effective_delta's on the fiber that generic_fiber builds, and on the
    fiber that the oracle builds from scratch."""
    cert = check_eps_delta(mfs)
    report = find_witness(mfs)
    assert "fiber" not in vars(mfs)
    assert cert.c_z == report.bound_coefficient - 1 == effective_delta(generic_fiber(mfs)).c_z
    assert cert.c_z == effective_delta_oracle(fiber_oracle(mfs)).c_z


@FIBRATIONS
@given(fibrations())
def test_witness_c_is_the_fibers(mfs):
    assert_c_read_from_the_fiber_cones(mfs)


@FIBRATIONS
@given(fibrations(), st.data())
def test_witness_c_is_the_fibers_in_any_ray_and_cone_order(mfs, data):
    assert_c_read_from_the_fiber_cones(relisted(mfs, data))


def test_witness_c_is_the_fibers_on_the_family_and_hand_built_instances():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shuffled = load_instance(str(SHUFFLED))
    for mfs in [example_family(l) for l in range(2, 13)] + [shuffled, index_three_line()]:
        assert_c_read_from_the_fiber_cones(mfs)


def test_witness_and_certificate_reject_an_invalid_fibration():
    fam = example_family(2)
    y = ToricVariety(Lattice.standard(2), Fan.build([(1, 0), (0, 1)], [[0, 1]]))
    broken = ToricMfs(x=fam.x, y=y)  # the fibration of test_generic_fiber_of_invalid_mfs
    message = r"^normal-form validation failed: \['lattice_surjectivity'\]$"
    for call in (find_witness, check_eps_delta):
        with pytest.raises(InvalidMfsError, match=message):
            call(broken)


def test_effective_delta_monotone_in_eps():
    ed = effective_delta(generic_fiber(example_family(2)))
    values = [ed.delta_of(F(k, 10)) for k in range(1, 8)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def check_witness_report(mfs, report):
    assert mfs.x.lattice.contains(report.q)
    assert any(c != 0 for c in report.q)
    assert all(c >= 0 for c in mfs.project(report.q))
    assert report.cone_index is not None
    assert log_discrepancy(mfs.x, report.q) == report.ld_q
    i, j = report.pair
    assert 0 <= i < j
    m = mfs.m
    assert report.ld_q ** (m + 1) <= report.bound_power
    assert report.bound_satisfied


@st.composite
def deep_fibrations(draw, sheared=None):
    """Standard-simplex fibrations over 1/r(1, 1) with random fiber weights,
    r up to 5,000, where k* is mostly well above 1; their base rays are
    sheared by ``relisted`` if ``sheared``, and in half of them if it is
    None."""
    m, r = draw(st.integers(2, 3)), draw(st.integers(200, 5000))
    weights = draw(st.lists(st.integers(0, r - 1), min_size=m, max_size=m))
    gen = tuple(F(w, r) for w in weights) + (F(1, r), F(1, r))
    mfs = make_mfs(m, 2, standard_fiber_rays(m), (1, 1), [gen])
    if sheared is None:
        sheared = draw(st.booleans())
    return relisted(mfs, SimpleNamespace(draw=draw)) if sheared else mfs


@st.composite
def sheared_fibrations(draw):
    """Fibrations whose base rays may have fiber parts: a family member moved
    by a fiber basis change and a base shear, as ``override_fibrations``
    draws it, a fibration with a base multiple > 1 whose base rays
    ``relisted`` moves by kernel lattice points, or a sheared deep
    fibration, where k* is mostly above 1."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        mfs = assemble_mfs(*draw(override_fibrations()))
        assume(mfs.report.overall)
        return mfs
    if kind == 1:
        return relisted(draw(fibrations(base_multiples=True)), SimpleNamespace(draw=draw))
    return draw(deep_fibrations(sheared=True))


@FIBRATIONS
@given(sheared_fibrations())
@example(load_instance(str(Path(__file__).parent / "golden" / "mfs_sheared_bound.json")))
def test_witness_meets_its_bound_on_sheared_base_rays(mfs):
    """Q - k A_X lies in the fiber, A_X the point over A on X's base rays,
    so the scan on b minus A_X's fiber part bounds ld(Q) on every validated
    fibration.  The example is the sheared golden, whose bound fails when
    the scan runs on b itself."""
    check_witness_report(mfs, find_witness(mfs))
    assert_c_read_from_the_fiber_cones(mfs)


SHEARED_GOLDEN = Path(__file__).parent / "golden" / "mfs_sheared_bound.json"


@PROPERTY
@given(
    st.one_of(
        fibrations(),
        fibrations(base_multiples=True),
        sheared_fibrations(),
        st.integers(2, 7).map(example_family),
        deep_fibrations(),
    ),
    st.fractions(0, 3, max_denominator=100),
)
@example(load_instance(str(SHEARED_GOLDEN)), F(1, 3))
@example(make_mfs(1, 2, standard_fiber_rays(1), (1, 1), [(F(13, 77), F(1, 77), F(1, 77))]), F(0))
def test_find_witness_matches_the_fraction_construction(mfs, extra):
    """Every report field, its type included, is the Fraction construction's,
    at delta = mld(Y) and at a delta up to four times it.  In the second
    example ld(Q)^2 is 11/14 of the bound's power (k* = 5), so a bound check
    that is off by a factor of 14/11 or more fails it."""
    base = mld(mfs.y).value
    for delta in (None, base * (1 + extra)):
        report = find_witness(mfs, delta)
        oracle = witness_report_oracle(mfs, delta)
        assert report == oracle
        assert repr(report) == repr(oracle)


def located_instances():
    """Random standard-simplex fibrations, the family, and the hand-built
    instance whose kernel lattice is larger than Z^m."""
    rng = random.Random(77)
    instances = [example_family(l) for l in (2, 5)]
    for _ in range(25):
        instances.append(rand_standard_simplex_mfs(rng, rng.choice([1, 2, 3]), rng.choice([1, 2]), 300))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        instances.append(load_instance(str(Path(__file__).parent / "golden" / "mfs_shuffled_fiber.json")))
    return instances


def test_find_witness_locates_q_as_the_toric_queries_do():
    # find_witness locates Q once; its cone and ld(Q) are what the public
    # queries return for the same point
    for mfs in located_instances():
        report = find_witness(mfs)
        assert report.cone_index == find_containing_cone(mfs.x, report.q)
        assert report.ld_q == log_discrepancy(mfs.x, report.q)


def test_effective_delta_matches_the_fraction_maximum():
    for mfs in located_instances():
        fiber = generic_fiber(mfs)
        assert effective_delta(fiber) == effective_delta_oracle(fiber)


def test_find_witness_family():
    mfs = example_family(4)
    report = find_witness(mfs, F(2, 257))
    check_witness_report(mfs, report)
    assert report.delta == F(2, 257)
    assert report.t == 25  # floor((257/2)^(2/3))


def test_find_witness_standard_simplex_sharp_constant():
    rng = random.Random(73)
    for _ in range(15):
        m = rng.choice([1, 2])
        mfs = rand_standard_simplex_mfs(rng, m, rng.choice([1, 2]), 200)
        report = find_witness(mfs)
        check_witness_report(mfs, report)
        # standard simplex: the coefficient is exactly twice the fiber dim
        assert report.bound_coefficient == 2 * m
        assert report.ld_q ** (m + 1) <= (2 * m) ** (m + 1) * report.delta


def test_find_witness_smooth_base():
    mfs = make_mfs(1, 1, [(1,), (-1,)], (1,), [])
    report = find_witness(mfs, F(1))
    check_witness_report(mfs, report)


def test_find_witness_precondition():
    mfs = make_mfs(1, 1, [(1,), (-1,)], (1,), [])
    with pytest.raises(PreconditionFailedError):
        find_witness(mfs, F(1, 1000000))


def test_find_witness_pair_matches_grid_search_oracle():
    rng = random.Random(76)
    instances = [example_family(l) for l in range(2, 9)]
    for _ in range(30):
        m = rng.choice([1, 2, 3])
        instances.append(rand_standard_simplex_mfs(rng, m, rng.choice([1, 2]), 300))
    # over 1/r(1, 1) with random fiber weights k* is mostly well above 1
    for _ in range(12):
        m = rng.choice([2, 3])
        r = rng.randint(200, 2000)
        gen = tuple(F(rng.randrange(r), r) for _ in range(m)) + (F(1, r), F(1, r))
        instances.append(make_mfs(m, 2, standard_fiber_rays(m), (1, 1), [gen]))
    # the gap at k = 1 meets the threshold with equality: 4^2 = 2*8, 10^2 = 2*50
    for r, w in ((8, 4), (50, 10)):
        gen = (F(w, r), F(1, r), F(1, r))
        instances.append(make_mfs(1, 2, standard_fiber_rays(1), (1, 1), [gen]))
    for mfs in instances:
        base = mld(mfs.y).value
        for delta in (base, min(8 * base, F(1))):
            report = find_witness(mfs, delta)
            assert report.pair == scan_oracle_pair(mfs, delta)
            assert report.pair[0] == 0
            check_witness_report(mfs, report)


def test_dirichlet_pair_huge_threshold_raises():
    with pytest.raises(NoPairFoundError):
        dirichlet_pair([(F(0),), (F(1, 2),)], F(10**300))


def test_check_eps_delta_family():
    for l in range(2, 9):
        cert = check_eps_delta(example_family(l))
        assert cert.holds
        assert cert.lhs == cert.mld_x.value**3
        assert cert.rhs == (cert.c_z + 1) ** 3 * cert.mld_y.value


def test_check_eps_delta_random_standard_simplex():
    rng = random.Random(74)
    for _ in range(25):
        m = rng.choice([1, 2])
        mfs = rand_standard_simplex_mfs(rng, m, rng.choice([1, 2]), 300)
        cert = check_eps_delta(mfs)
        assert cert.holds
        assert cert.c_z == 2 * m - 1


def test_check_eps_delta_trivial_product():
    cert = check_eps_delta(make_mfs(1, 1, [(1,), (-1,)], (1,), []))
    assert cert.holds
    assert cert.mld_x.value == 1
    assert cert.mld_y.value == 1


def streamed(step, d, num, den, last):
    m = len(step)
    return _first_multiple(step, d, iroot_floor(num * d ** (m + 1) // den, m + 1), last)


@st.composite
def scans(draw):
    """(step, d, num, den, last): m steps mod d, a threshold num/den <= 1 of
    any of several scales and a scan length, with zero steps, d = 1 and
    thresholds that every multiple meets all likely."""
    d = draw(st.one_of(st.just(1), st.integers(2, 50), st.integers(51, 10**6), st.integers(10**4, 10**6)))
    m = draw(st.integers(1, 4))
    step = draw(st.lists(st.integers(0, d - 1), min_size=m, max_size=m))
    if draw(st.booleans()):
        step[draw(st.integers(0, m - 1))] = 0
    num = draw(st.integers(1, 20))
    scale = draw(st.sampled_from([1, 10**2, 10**4, 10**6, 10**9]))
    den = num * scale + draw(st.integers(0, scale))
    return step, d, num, den, draw(st.integers(0, 3000))


@PROPERTY
@given(scans())
def test_streamed_scan_matches_the_per_multiple_loop(case):
    assert streamed(*case) == first_multiple_loop(*case)


@pytest.mark.parametrize(
    "case, expected",
    [
        (((0, 0), 7, 1, 10**6, 5), 1),  # zero steps always pass
        (((0, 3), 7, 1, 10**6, 20), 7),  # only the nonzero step decides
        (((0,), 1, 1, 10**6, 3), 1),  # d = 1
        (((3, 5), 8, 1, 2, 9), 1),  # 2g + 1 >= d: every multiple passes
        (((3, 5), 8, 1, 10**6, 0), None),  # nothing scanned
        (((1, 3), 1000, 1, 1000, 5), 1),  # hit at k = 1: g = 100
        (((1, 3), 10, 1, 10**6, 10), 10),  # g = 0, first hit at k = T
        (((1, 3), 10, 1, 10**6, 9), None),  # no hit within T
        (((2, 3), 7, 1, 7**3, 6), None),  # g = 0: only k = 0 mod 7
        # g = 0 below, so k passes step s iff d / gcd(s, d) divides k
        (((3, 2), 6, 1, 10**6, 12), 6),  # survivors 2, 4, 6: a probe that shares the data skips k = 6
        (((2, 3), 6, 1, 10**6, 6), 6),  # the last step alone passes k = 2
        (((15, 10, 6), 30, 1, 10**6, 30), 30),  # k = 10 passes steps 1 and 3, fails step 2
    ],
)
def test_streamed_scan_edges(case, expected):
    assert streamed(*case) == first_multiple_loop(*case) == expected


def deep_m3():
    """1/r(w, 1, 1) with m = 3 and r near 10^8, drawn as the benchmark's
    witness_deep cases are, at the median of k*/T."""
    r = 100519501
    gen = (F(70155119, r), F(5665522, r), F(95147481, r), F(1, r), F(1, r))
    return r, make_mfs(3, 2, standard_fiber_rays(3), (1, 1), [gen])


def test_find_witness_deep_instance_is_pinned():
    r, mfs = deep_m3()
    report = find_witness(mfs)
    assert report.delta == F(2, r)
    assert report.t == 596918
    assert report.pair == (0, 51719)
    assert report.q == (F(691465, r), F(786903, r), F(398384, r), F(51719, r), F(51719, r))
    assert report.ld_q == F(1980190, r)
    check_witness_report(mfs, report)


def test_find_witness_scan_is_guarded():
    _, mfs = deep_m3()
    with pytest.raises(TooLargeError, match="^witness scan exceeded guard of 51718 multiples$"):
        with_guard(51718, find_witness, mfs)
    assert with_guard(51719, find_witness, mfs).pair == (0, 51719)
