import random
from fractions import Fraction

import pytest

from conftest import apply_unimodular, rand_affine_variety, rand_unimodular
from toricmld import (
    DimensionMismatchError,
    Fan,
    Lattice,
    NonSimplicialError,
    NotInLatticeError,
    ToricVariety,
    ZeroVectorError,
    find_containing_cone,
    log_discrepancy,
    mld,
)
from toricmld.exactmath import _integral, _least_terms

F = Fraction


def smooth_plane():
    return ToricVariety(Lattice.standard(2), Fan.build([(1, 0), (0, 1)], [[0, 1]]))


def quotient_17():
    lat = Lattice.from_generators(2, [(F(1, 17), F(1, 17))])
    return ToricVariety(lat, Fan.build([(1, 0), (0, 1)], [[0, 1]]))


def fiber_triangle(l=2):
    # complete fan on the vertices (1,0), (-(l-1),1), (-(l-1),-1)
    rays = [(1, 0), (-(l - 1), 1), (-(l - 1), -1)]
    return ToricVariety(
        Lattice.standard(2), Fan.build(rays, [[0, 1], [0, 2], [1, 2]])
    )


def test_log_discrepancy_smooth():
    v = smooth_plane()
    assert log_discrepancy(v, (1, 0)) == 1
    assert log_discrepancy(v, (2, 3)) == 5
    assert log_discrepancy(v, (-1, 0)) is None


def test_log_discrepancy_quotient_point():
    v = quotient_17()
    assert log_discrepancy(v, (F(1, 17), F(1, 17))) == F(2, 17)


def test_log_discrepancy_errors():
    v = smooth_plane()
    with pytest.raises(ZeroVectorError):
        log_discrepancy(v, (0, 0))
    with pytest.raises(NotInLatticeError):
        log_discrepancy(v, (F(1, 2), F(1, 2)))


def test_ray_generators_have_value_one():
    rng = random.Random(42)
    for _ in range(30):
        v = rand_affine_variety(rng, rng.randint(1, 3), 40)
        for r in v.fan.rays:
            assert log_discrepancy(v, r) == 1


def test_homogeneity():
    rng = random.Random(43)
    for _ in range(30):
        v = rand_affine_variety(rng, rng.randint(1, 3), 30)
        coeffs = [rng.randint(0, 4) for _ in v.fan.rays]
        if all(c == 0 for c in coeffs):
            continue
        point = tuple(
            sum(c * r[j] for c, r in zip(coeffs, v.fan.rays)) for j in range(v.dim)
        )
        k = rng.randint(1, 5)
        scaled = tuple(k * c for c in point)
        assert log_discrepancy(v, scaled) == k * log_discrepancy(v, point)


def test_value_agrees_across_shared_cones():
    # a point on a shared ray of the triangle fan evaluates equally through
    # every cone containing it
    v = fiber_triangle(3)
    shared = v.fan.rays[0]
    values = []
    for cone in v.fan.max_cones:
        if 0 in cone.ray_indices:
            k, q = cone.inverse  # barycentrics of v in the cone: v @ K / q
            x = [sum(shared[i] * k[i][j] for i in range(v.dim)) / q for j in range(v.dim)]
            if all(c >= 0 for c in x):
                values.append(sum(x))
    assert len(values) >= 2
    assert len(set(values)) == 1


def test_unimodular_invariance_of_values():
    rng = random.Random(44)
    for _ in range(25):
        v = rand_affine_variety(rng, rng.randint(2, 3), 30)
        u = rand_unimodular(rng, v.dim)
        v2 = apply_unimodular(v, u)
        coeffs = [rng.randint(0, 3) for _ in v.fan.rays]
        if all(c == 0 for c in coeffs):
            continue
        point = tuple(
            sum(c * r[j] for c, r in zip(coeffs, v.fan.rays)) for j in range(v.dim)
        )
        point2 = tuple(
            sum(point[i] * u[i][j] for i in range(v.dim)) for j in range(v.dim)
        )
        assert log_discrepancy(v, point) == log_discrepancy(v2, point2)


def test_find_containing_cone_line():
    lat = Lattice.standard(1)
    v = ToricVariety(lat, Fan.build([(1,), (-1,)], [[0], [1]]))
    assert find_containing_cone(v, (-3,)) == 1
    assert find_containing_cone(v, (2,)) == 0


def test_find_containing_cone_dimension_mismatch():
    from toricmld import DimensionMismatchError

    for point in ((-1,), (1, 2, 3)):
        with pytest.raises(DimensionMismatchError):
            find_containing_cone(fiber_triangle(2), point)


def test_find_containing_cone_triangle():
    v = fiber_triangle(2)
    # (-1,-1) is the third vertex: cones {0,2} and {1,2} both contain it,
    # the lowest index wins
    assert find_containing_cone(v, (-1, -1)) == 1
    assert find_containing_cone(v, (0, 0)) == 0
    assert find_containing_cone(v, (5, 1)) == 0


def test_queries_reject_a_lower_dimensional_maximal_cone():
    # (-1, -1) generates the maximal cone (2,), of value 1 there; mld rejects
    # the fan, and so do both queries, at any point
    x = ToricVariety(Lattice.standard(2), Fan.build([(1, 0), (0, 1), (-1, -1)], [[0, 1], [2]]))
    for query in (log_discrepancy, find_containing_cone):
        for v in [(-1, -1), (1, 1)]:
            with pytest.raises(NonSimplicialError, match=r"^maximal cone \(2,\) is not full-dimensional$"):
                query(x, v)
    with pytest.raises(NonSimplicialError, match=r"^maximal cone \(2,\) is not full-dimensional$"):
        mld(x)


def test_fan_rejects_bad_input():
    with pytest.raises(NonSimplicialError):
        Fan.build([(1, 0), (2, 0)], [[0, 1]])
    with pytest.raises(ValueError):
        Fan.build([(1, 0), (1, 0)], [[0], [1]])  # duplicate rays
    with pytest.raises(ValueError):
        Fan.build([(1, 0), (0, 1)], [[0]])  # ray 1 uncovered
    with pytest.raises(ValueError):
        Fan.build([(1, 0)], [[0, 3]])  # index out of range
    with pytest.raises(ValueError, match=r"^ray index out of range in cone \(0,\)$"):
        Fan.build([], [[0]])  # no rays: a cone's index is out of range, not dropped
    assert Fan.build([], []) == Fan(((), 1), (), 0)
    with pytest.raises(ValueError):
        Fan.build([(1, 0), (0, 1)], [[0, 1], [1, 0]])  # one cone listed twice


# malformed fans, each with the type and text that ``build`` and ``_checked``
# on unreduced rows raise
MALFORMED_FANS = [
    ([(1, 0), (1, 0), (0, 1)], [[0, 2], [1, 2]], ValueError, "duplicate rays in fan"),
    ([(1, 0), (0, 1)], [[0, 0]], ValueError, "repeated ray index in cone (0, 0)"),
    ([(1, 0), (0, 1)], [[0, 3]], ValueError, "ray index out of range in cone (0, 3)"),
    ([(1, 0), (0, 1)], [[-1, 0]], ValueError, "ray index out of range in cone (-1, 0)"),
    ([(1, 0), (2, 0)], [[0, 1]], NonSimplicialError, "cone (0, 1) generators are dependent"),
    ([(1, 0, 0), (-2, 0, 0)], [[0, 1]], NonSimplicialError, "cone (0, 1) generators are dependent"),
    (
        [(1, 0), (0, 1), (-1, -1)],
        [[0, 1, 2]],
        NonSimplicialError,
        "cone (0, 1, 2) has more generators than the dimension",
    ),
    ([(1, 0), (0, 1)], [[0, 1], [1, 0]], ValueError, "duplicate maximal cones in fan"),
    ([(1, 0), (0, 1), (-1, 0)], [[0, 1]], ValueError, "every ray must appear in at least one cone"),
    ([], [[0, 1]], ValueError, "ray index out of range in cone (0, 1)"),
]


@pytest.mark.parametrize("rays, cones, exc, message", MALFORMED_FANS)
def test_build_and_from_scaled_raise_the_same_fan_errors(rays, cones, exc, message):
    rays = [tuple(F(x, 2) for x in r) for r in rays]  # a table over e = 2
    ints, e = _integral(rays)
    scaled = [[3 * x for x in row] for row in ints]  # not in lowest terms
    for make in (lambda: Fan.build(rays, cones), lambda: Fan._checked(*_least_terms(scaled, 3 * e), cones)):
        with pytest.raises(ValueError) as info:
            make()
        assert (type(info.value), str(info.value)) == (exc, message)


def test_build_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError, match="^rays have mixed dimensions$"):
        Fan.build([(1, 0), (1,)], [[0, 1]])


def test_variety_rejects_nonlattice_ray():
    lat = Lattice.standard(2)
    with pytest.raises(NotInLatticeError):
        ToricVariety(lat, Fan.build([(F(1, 2), F(0)), (0, 1)], [[0, 1]]))
