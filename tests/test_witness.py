import random
from fractions import Fraction

import pytest

from conftest import rand_standard_simplex_mfs, standard_fiber_rays
from toricmld import (
    NoPairFoundError,
    NotInBaseLatticeError,
    PreconditionFailedError,
    ZeroVectorError,
    check_eps_delta,
    dirichlet_pair,
    effective_delta,
    example_family,
    find_witness,
    generic_fiber,
    lift_to_X,
    log_discrepancy,
    make_mfs,
    mld,
)

F = Fraction


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


def test_lift_rejects_zero_and_foreign_points():
    mfs = example_family(2)
    with pytest.raises(ZeroVectorError):
        lift_to_X(mfs, (0, 0))
    with pytest.raises(NotInBaseLatticeError):
        lift_to_X(mfs, (F(1, 5), F(1, 5)))


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


def scan_oracle_pair(mfs, delta):
    """The pair that the grid search of ``dirichlet_pair`` picks among the
    explicit multiples k*b mod Z^m, k = 0..T.  A zero coordinate pads the
    points to dimension m+1 so its test gap^(m+1) * (1/delta) <= 1 is the
    witness threshold."""
    m = mfs.m
    b = lift_to_X(mfs, mld(mfs.y).witness)[:m]
    t = int(find_witness(mfs, delta).t)
    points = [tuple((k * c) % 1 for c in b) + (F(0),) for k in range(t + 1)]
    return dirichlet_pair(points, 1 / F(delta))


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
