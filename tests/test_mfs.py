import functools
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import rand_standard_simplex_mfs, standard_fiber_rays
from test_integer_forms import override_fibrations
from toricmld import (
    BadParameterError,
    BaseMultipleMismatchError,
    DegenerateSimplexError,
    Fan,
    InvalidMfsError,
    Lattice,
    NonSurjectiveError,
    ToricMfs,
    ToricVariety,
    check_eps_delta,
    example_family,
    find_witness,
    generic_fiber,
    loglog_slope,
    make_mfs,
    mld,
    sweep_family,
    validate,
)
from toricmld import mfs as mfs_module
from toricmld.exactmath import iroot_floor
from toricmld.mfs import assemble_mfs

F = Fraction


def trivial_product(m=1, n=1):
    return make_mfs(m, n, standard_fiber_rays(m), [1] * n, [])


def test_family_structure():
    fam = example_family(2)
    assert fam.m == fam.n == 2
    assert len(fam.x.fan.rays) == 5
    assert len(fam.x.fan.max_cones) == 3
    assert fam.x.lattice.index_over_standard == 17
    assert example_family(3).x.lattice.index_over_standard == 82
    assert fam.y.lattice == Lattice.from_generators(2, [(F(1, 17), F(1, 17))])


def test_family_base_mld():
    for l in (2, 3, 4):
        fam = example_family(l)
        assert mld(fam.y).value == F(2, l**4 + 1)


def test_family_bad_parameter():
    with pytest.raises(BadParameterError):
        example_family(1)


@functools.cache
def family_mlds(l):
    fam = example_family(l)
    return mld(fam.x).value, mld(fam.y).value


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(override_fibrations())
def test_fibration_invariants_survive_a_change_of_basis(params):
    """A family member moved by a fiber-block GL_m(Z) change and an integer
    base shear, its rays and cones shuffled, keeps mld(Y); with all m + 1
    cones it still validates and keeps mld(X) and the certificate, and with
    a cone dropped it fails validation."""
    mfs = assemble_mfs(*params)
    r = mfs.y.lattice.index_over_standard
    l = iroot_floor(r - 1, 4)
    assert l**4 + 1 == r
    mld_x, mld_y = family_mlds(l)
    assert mld(mfs.y).value == mld_y
    kept = len(params[-1]) == mfs.m + 1
    assert mfs.report.overall == kept
    if kept:
        assert mld(mfs.x).value == mld_x
        assert check_eps_delta(mfs).holds


@st.composite
def standard_simplex_specs(draw):
    """``make_mfs`` arguments of a standard-simplex fibration, m = 1..3, over
    1/r(1, ..., 1) with n = 2 or 3 (so every base multiple is 1), r up to
    5,000 and random fiber weights."""
    m, n, r = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(2, 5000))
    weights = draw(st.lists(st.integers(0, r - 1), min_size=m, max_size=m))
    gen = tuple(F(w, r) for w in weights) + (F(1, r),) * n
    return dict(m=m, n=n, fiber_rays=standard_fiber_rays(m), base_multiples=(1,) * n, extra_generators=[gen])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(standard_simplex_specs(), st.data())
def test_standard_simplex_invariants_survive_a_change_of_basis(spec, data):
    """The same moves on standard-simplex fibrations: mld(Y) is kept, and
    with all m + 1 cones validation, mld(X) and the certificate's verdict
    are those of the unmoved fibration; with a cone dropped it fails
    validation."""
    params = data.draw(override_fibrations(spec))
    mfs, unmoved = assemble_mfs(*params), make_mfs(**spec)
    assert mld(mfs.y).value == mld(unmoved.y).value
    kept = len(params[-1]) == mfs.m + 1
    assert mfs.report.overall == kept
    event(f"m = {mfs.m}, {'all cones' if kept else 'a cone dropped'}")  # counted in --hypothesis-show-statistics
    if kept:
        assert mld(mfs.x).value == mld(unmoved.x).value
        assert check_eps_delta(mfs).holds == check_eps_delta(unmoved).holds


def test_validate_family_all_pass():
    for l in (2, 3, 5):
        report = validate(example_family(l))
        assert report.overall
        assert all(c.passed for c in report.checks)


def test_validate_trivial_product():
    report = validate(trivial_product())
    assert report.overall


def test_validate_reports_nonprimitive_rays():
    # hand-build a fibration whose listed fiber ray (-2, 0...) is not primitive
    lat = Lattice.standard(2)
    rays = [(1, 0), (-2, 0), (0, 1)]
    fan = Fan.build(rays, [[1, 2], [0, 2]])
    x = ToricVariety(lat, fan)
    y = ToricVariety(Lattice.standard(1), Fan.build([(1,)], [[0]]))
    mfs = ToricMfs(x=x, y=y)
    report = validate(mfs)
    assert not report.overall
    assert not report["rays_primitive"].passed
    assert report["ray_count"].passed


def test_generic_fiber_standard_simplex():
    for m in (1, 2, 3):
        mfs = trivial_product(m=m, n=1)
        fiber = generic_fiber(mfs)
        assert fiber.origin_barycentrics == tuple([F(1, m + 1)] * (m + 1))
        assert fiber.z.lattice == Lattice.standard(m)


def test_generic_fiber_family():
    for l in (2, 3, 4):
        fiber = generic_fiber(example_family(l))
        # solved exactly: y0 (1,0) + y1 (-(l-1),1) + y2 (-(l-1),-1) = 0
        assert fiber.origin_barycentrics == (
            F(l - 1, l),
            F(1, 2 * l),
            F(1, 2 * l),
        )
        assert fiber.z.lattice == Lattice.standard(2)


def test_generic_fiber_of_invalid_mfs():
    fam = example_family(2)
    broken = ToricMfs(
        x=fam.x,
        y=ToricVariety(
            Lattice.standard(2), Fan.build([(1, 0), (0, 1)], [[0, 1]])
        ),
    )
    with pytest.raises(InvalidMfsError):
        generic_fiber(broken)


def test_fibration_is_validated_once(monkeypatch):
    calls = []
    run_checks = mfs_module._run_checks

    def counting_checks(mfs):
        calls.append(mfs)
        return run_checks(mfs)

    monkeypatch.setattr(mfs_module, "_run_checks", counting_checks)
    fam = make_mfs(**mfs_module.family_spec(3))
    check_eps_delta(fam)
    find_witness(fam)
    generic_fiber(fam)
    assert validate(fam) is validate(fam) is fam.report
    assert len(calls) == 1


def test_make_mfs_matches_family():
    l = 3
    r = l**4 + 1
    built = make_mfs(
        2,
        2,
        [(1, 0), (-(l - 1), 1), (-(l - 1), -1)],
        (1, 1),
        [(F(l, r), F(l * l, r), F(1, r), F(1, r))],
    )
    fam = example_family(l)
    assert built.x.lattice == fam.x.lattice
    assert built.y.lattice == fam.y.lattice
    assert built.x.fan.rays == fam.x.fan.rays
    assert [c.ray_indices for c in built.x.fan.max_cones] == [
        c.ray_indices for c in fam.x.fan.max_cones
    ]


@pytest.mark.parametrize(
    "fiber_rays",
    [
        [(1, 0), (0, 1), (1, 1)],  # the origin is outside
        [(0, 0), (1, 0), (0, 1)],  # a zero fiber ray
        [(1, 0), (2, 0), (0, 1)],  # a repeated primitive ray
        [(1, 0), (-1, 0), (0, 1)],  # opposite rays: a dependent cone
        [(1, 0), (0, 1), (2, -1)],  # collinear rays
    ],
    ids=["outside", "zero_ray", "repeated_ray", "opposite_rays", "collinear"],
)
def test_make_mfs_degenerate_simplex(fiber_rays):
    with pytest.raises(DegenerateSimplexError, match="^fiber rays must form a simplex with the origin strictly inside$"):
        make_mfs(2, 2, fiber_rays, (1, 1), [])


def test_make_mfs_nonsurjective():
    with pytest.raises(NonSurjectiveError):
        make_mfs(1, 1, [(1,), (-1,)], (2,), [])


def test_make_mfs_multiple_mismatch():
    with pytest.raises(BaseMultipleMismatchError):
        make_mfs(1, 1, [(1,), (-1,)], (1,), [(F(1, 2), F(1, 2))])


def test_make_mfs_base_multiple_two():
    # mixing fiber and base halves realizes a genuine multiple of 2
    mfs = make_mfs(1, 1, [(1,), (-1,)], (2,), [(F(1, 2), F(1, 2))])
    report = validate(mfs)
    assert report.overall
    assert "2" in report["ray_roles"].detail
    assert mfs.y.lattice.index_over_standard == 2


def test_make_mfs_reprimitivizes_with_warning():
    with pytest.warns(UserWarning):
        mfs = make_mfs(2, 1, [(2, 0), (-1, 1), (-1, -1)], (1,), [])
    assert mfs.x.fan.rays[0] == (F(1), F(0), F(0))
    assert validate(mfs).overall


def test_make_mfs_bad_parameters():
    with pytest.raises(BadParameterError):
        make_mfs(0, 1, [(1,)], (1,), [])
    with pytest.raises(BadParameterError):
        make_mfs(1, 1, [(1,)], (1,), [])  # needs m+1 fiber rays
    with pytest.raises(BadParameterError):
        make_mfs(1, 1, [(1,), (-1,)], (0,), [])


def test_make_mfs_rejects_fractional_parameters():
    # a fractional base multiple used to be truncated to an integer, and a
    # fractional fiber ray used to fail in assembly as a NotInLatticeError
    with pytest.raises(BadParameterError, match="base multiples must be n positive integers"):
        make_mfs(1, 1, [(1,), (-1,)], (1.5,))
    with pytest.raises(BadParameterError, match="base multiples must be n positive integers"):
        make_mfs(1, 1, [(1,), (-1,)], (F(3, 2),))
    with pytest.raises(BadParameterError, match="fiber rays must be integer vectors"):
        make_mfs(1, 1, [(F(1, 2),), (-1,)], (1,))
    with pytest.raises(BadParameterError, match="fiber rays must be integer vectors"):
        make_mfs(2, 1, [(1, 0), (-1, 0.5), (-1, -1)], (1,))
    # integral values of other numeric types are still integers
    assert make_mfs(1, 1, [(F(1),), (-1.0,)], (F(2),), [(F(1, 2), F(1, 2))]).report.overall


def test_validate_reports_rays_outside_the_lattice():
    # a library-built ToricMfs whose rays skip the lattice-point check: the
    # checks that meet such a ray report it as crashed, the others still run
    x = ToricVariety._on_lattice_points(
        Lattice.standard(2), Fan.build([(F(1, 2), 0), (-1, 0), (0, F(1, 2))], [[1, 2], [0, 2]])
    )
    y = ToricVariety(Lattice.standard(1), Fan.build([(1,)], [[0]]))
    report = validate(ToricMfs(x=x, y=y))
    assert not report.overall
    assert report["ray_roles"].detail == "check crashed: (Fraction(1, 2),) is not a lattice point"
    assert report["rays_primitive"].detail == (
        "check crashed: (Fraction(1, 2), Fraction(0, 1)) is not a lattice point"
    )
    assert not report["ray_roles"].passed and not report["rays_primitive"].passed
    assert report["fiber_simplex"].detail == "origin barycentrics ('2/3', '1/3')"
    assert report["cone_shape"].passed


def test_mutation_drop_ray():
    fam = example_family(2)
    rays = list(fam.x.fan.rays)[:4]  # drop the last base ray
    cones = [[i for i in range(4) if i != j] for j in range(3)]
    x = ToricVariety(fam.x.lattice, Fan.build(rays, cones))
    mutated = ToricMfs(x=x, y=fam.y)
    report = validate(mutated)
    assert not report.overall
    assert not report["ray_count"].passed
    assert report["rays_primitive"].passed
    assert report["lattice_surjectivity"].passed
    assert report["fiber_simplex"].passed


def test_mutation_break_surjectivity():
    fam = example_family(2)
    coarse = ToricVariety(
        Lattice.standard(2), Fan.build([(1, 0), (0, 1)], [[0, 1]])
    )
    mutated = ToricMfs(x=fam.x, y=coarse)
    report = validate(mutated)
    assert not report.overall
    assert not report["lattice_surjectivity"].passed
    # every other check still passes: the mutation is surgical
    for name in (
        "ray_count",
        "ray_roles",
        "rays_primitive",
        "fiber_simplex",
        "cone_shape",
        "relative_picard_rank",
        "properness_support",
    ):
        assert report[name].passed, name


def test_mutation_base_fan_off_the_axes():
    # Y on the family's own base lattice, with one ray over (1, 2) instead of
    # the second axis: mld(Y) = 1/17, where the orthant gives 2/17
    fam = example_family(2)
    lat = fam.y.lattice

    def base(rays):
        return ToricVariety(lat, Fan.build([lat.primitivize(r) for r in rays], [[0, 1]]))

    sheared = ToricMfs(x=fam.x, y=base([(1, 0), (1, 2)]))
    assert mld(sheared.y).value == F(1, 17)
    report = validate(sheared)
    assert not report.overall
    assert report["ray_roles"].detail == "base fan is not the orthant on the base axes"
    assert [c.name for c in report.checks if not c.passed] == ["ray_roles", "properness_support"]
    assert report["properness_support"].detail == "support condition fails (see ray_roles)"
    failed = r"normal-form validation failed: \['ray_roles', 'properness_support'\]"
    with pytest.raises(InvalidMfsError, match=failed):
        find_witness(sheared)
    # the orthant with its axes listed in another order still passes
    assert validate(ToricMfs(x=fam.x, y=base([(0, 1), (1, 0)]))).overall


def test_mutation_shift_fiber_simplex():
    lat = Lattice.standard(4)
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    cones = [[i for i in range(5) if i != j] for j in range(3)]
    x = ToricVariety(lat, Fan.build(rays, cones))
    y = ToricVariety(Lattice.standard(2), Fan.build([(1, 0), (0, 1)], [[0, 1]]))
    mutated = ToricMfs(x=x, y=y)
    report = validate(mutated)
    assert not report.overall
    assert not report["fiber_simplex"].passed
    for name in ("ray_count", "ray_roles", "rays_primitive", "lattice_surjectivity",
                 "relative_picard_rank", "cone_shape"):
        assert report[name].passed, name


def test_mutation_six_rays():
    fam = example_family(2)
    rays = list(fam.x.fan.rays) + [(F(1), F(1), F(0), F(0))]
    cones = [list(c.ray_indices) for c in fam.x.fan.max_cones] + [[5, 0, 3, 4]]
    x = ToricVariety(fam.x.lattice, Fan.build(rays, cones))
    mutated = ToricMfs(x=x, y=fam.y)
    report = validate(mutated)
    assert not report.overall
    assert not report["ray_count"].passed


def test_relative_picard_rank_formula():
    rng = random.Random(61)
    for _ in range(10):
        mfs = rand_standard_simplex_mfs(rng, rng.choice([1, 2]), rng.choice([1, 2]), 60)
        report = validate(mfs)
        assert report.overall
        assert report["relative_picard_rank"].detail == "relative Picard rank 1"


def test_fiber_not_harder_than_total_space():
    # the fiber variety keeps every discrepancy of the total space or raises it
    rng = random.Random(62)
    instances = [example_family(2), example_family(3), trivial_product(2, 1)]
    for _ in range(6):
        instances.append(rand_standard_simplex_mfs(rng, rng.choice([1, 2]), 1, 40))
    for mfs in instances:
        fiber = generic_fiber(mfs)
        assert mld(fiber.z).value >= mld(mfs.x).value


def test_sweep_rows():
    rows = sweep_family(2, 4)
    assert [r.l for r in rows] == [2, 3, 4]
    assert rows[0].mld_y == F(2, 17)
    assert rows[0].r == 17
    assert rows[0].ratio_approx == pytest.approx(float(F(2, 17) / F(12, 17) ** 4))


def test_sweep_bad_range():
    with pytest.raises(BadParameterError):
        sweep_family(1, 3)
    with pytest.raises(BadParameterError):
        sweep_family(4, 2)


def test_loglog_slope():
    assert loglog_slope([(F(1, 2), F(1, 4))]) is None
    # every x equal: no slope, where the least-squares quotient would divide by 0
    assert loglog_slope([(F(1, 2), F(1, 3)), (F(1, 2), F(1, 5))]) is None
    # distinct x whose logs round to one float fit no line either
    tiny = F(1, 10**20)
    assert loglog_slope([(tiny, F(1)), (tiny + F(1, 10**60), F(2))]) is None
    # exact power law y = x^3 gives slope 3
    pts = [(F(1, k), F(1, k**3)) for k in (2, 3, 5, 7)]
    assert loglog_slope(pts) == pytest.approx(3.0)
