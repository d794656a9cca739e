import random
from fractions import Fraction

import pytest

from conftest import rand_overlattice, rand_unimodular
from oracles import det_bareiss, to_ambient_oracle, vec_mat
from toricmld import (
    DegenerateBasisError,
    Lattice,
    NotInLatticeError,
    NotSublatticeError,
    QuotientGroup,
    ZeroVectorError,
)

F = Fraction

L2_GEN = (F(2, 17), F(4, 17), F(1, 17), F(1, 17))


def test_integer_constructor_matches_from_generators():
    rng = random.Random(78)
    for _ in range(300):
        d, k = rng.randint(1, 4), rng.randint(0, 3)
        denom = rng.choice([1, 2, 6, 12, 30, 97, 360])
        rows = [[rng.randint(-2 * denom, 2 * denom) for _ in range(d)] for _ in range(k)]
        want = Lattice.from_generators(d, [[F(x, denom) for x in row] for row in rows])
        got = Lattice._from_scaled(d, denom, rows)
        assert (got.dim, got.denominator, got.rows) == (want.dim, want.denominator, want.rows)


def test_standard_lattice():
    lat = Lattice.from_generators(2, [])
    assert lat == Lattice.standard(2)
    assert lat.index_over_standard == 1
    assert lat.basis == ((F(1), F(0)), (F(0), F(1)))


def test_half_diagonal_index_two():
    lat = Lattice.from_generators(2, [(F(1, 2), F(1, 2))])
    assert lat.index_over_standard == 2
    assert lat.contains((F(1, 2), F(1, 2)))
    assert not lat.contains((F(1, 2), F(0)))


def test_family_lattice_indices():
    lat = Lattice.from_generators(4, [L2_GEN])
    assert lat.index_over_standard == 17
    assert lat.contains(L2_GEN)
    gen3 = tuple(F(a, 82) for a in (3, 9, 1, 1))
    assert Lattice.from_generators(4, [gen3]).index_over_standard == 82


def test_contains_basics():
    z2 = Lattice.standard(2)
    assert z2.contains((1, 3))
    assert not z2.contains((F(1, 2), 0))


def test_from_generators_idempotent():
    rng = random.Random(31)
    for _ in range(40):
        lat = rand_overlattice(rng, rng.randint(1, 4), 60)
        again = Lattice.from_generators(lat.dim, list(lat.basis))
        assert again == lat
        assert hash(again) == hash(lat)


def test_contains_every_generator():
    rng = random.Random(32)
    for _ in range(40):
        d = rng.randint(1, 4)
        r = rng.randint(2, 50)
        gens = [tuple(F(rng.randrange(r), r) for _ in range(d)) for _ in range(2)]
        lat = Lattice.from_generators(d, gens)
        for g in gens:
            assert lat.contains(g)


def ambient(qg, b, num):
    """The coset representative (num / denominator) @ b, for num from
    ``qg.reps_scaled()`` and b the sublattice basis of ``qg``."""
    return tuple(vec_mat([F(x, qg.denominator) for x in num], b))


def test_quotient_reps_trivial():
    qg = Lattice.standard(2).quotient_group([(1, 0), (0, 1)])
    assert list(qg.reps_scaled()) == [(0, 0)]


def test_quotient_reps_index_two():
    eye = [(1, 0), (0, 1)]
    qg = Lattice.from_generators(2, [(F(1, 2), F(1, 2))]).quotient_group(eye)
    reps = {ambient(qg, eye, num) for num in qg.reps_scaled()}
    assert reps == {(F(0), F(0)), (F(1, 2), F(1, 2))}


def test_quotient_reps_family_17():
    # oracle: generate the 17 multiples of the adjoined point mod Z^4 directly
    lat = Lattice.from_generators(4, [L2_GEN])
    eye = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    qg = lat.quotient_group(eye)
    reps = [ambient(qg, eye, num) for num in qg.reps_scaled()]
    assert len(reps) == 17
    expected = {tuple((k * c) % 1 for c in L2_GEN) for k in range(17)}
    assert set(reps) == expected
    assert (F(0), F(0), F(0), F(0)) in set(reps)


def test_quotient_reps_differences_not_in_sublattice():
    # two reps with sublattice coordinates num / denominator differ by a
    # sublattice point iff their nums agree mod denominator
    rng = random.Random(33)
    for _ in range(20):
        d = rng.randint(1, 3)
        lat = rand_overlattice(rng, d, 8)
        while True:
            b = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            if det_bareiss(b) != 0:
                break
        qg = lat.quotient_group(b)
        reps = list(qg.reps_scaled())
        assert len(reps) == qg.order
        classes = {tuple(x % qg.denominator for x in num) for num in reps}
        assert len(classes) == qg.order, "reps collide mod the sublattice"


def test_quotient_reps_cube_normalization():
    rng = random.Random(34)
    for _ in range(20):
        d = rng.randint(1, 3)
        lat = rand_overlattice(rng, d, 25)
        while True:
            b = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if det_bareiss(b) != 0:
                break
        qg = lat.quotient_group(b)
        for num in qg.reps_scaled():
            assert all(0 <= x < qg.denominator for x in num)
            assert lat.contains(ambient(qg, b, num))


def test_quotient_order_formula():
    # order = |det B| * [N : Z^d] for an integer sublattice basis B
    rng = random.Random(35)
    for _ in range(25):
        d = rng.randint(1, 3)
        lat = rand_overlattice(rng, d, 30)
        while True:
            b = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if det_bareiss(b) != 0:
                break
        qg = lat.quotient_group(b)
        assert qg.order == abs(det_bareiss(b)) * lat.index_over_standard
        import math

        assert math.prod(qg.invariant_factors) == qg.order


def test_quotient_reps_is_a_stream():
    # representatives arrive lazily; large groups never materialize
    lat = Lattice.from_generators(2, [(F(1, 1000), F(7, 1000))])
    stream = lat.quotient_group([(1, 0), (0, 1)]).reps_scaled()
    assert iter(stream) is stream
    assert next(stream) == (0, 0)


def reference_reps_scaled(qg):
    """Mixed-radix count over the nontrivial invariant factors, last digit
    least significant, each coset the digit combination of the generator
    rows reduced mod the denominator."""
    active = [i for i, f in enumerate(qg.invariant_factors) if f > 1]
    dim = len(qg.generator_rows)
    out = []
    for n in range(qg.order):
        digits = {}
        for i in reversed(active):
            n, digits[i] = divmod(n, qg.invariant_factors[i])
        out.append(
            tuple(
                sum(digits[i] * qg.generator_rows[i][j] for i in active) % qg.denominator
                for j in range(dim)
            )
        )
    return out


def test_reps_scaled_matches_mixed_radix_reference():
    rng = random.Random(36)
    multi = 0
    groups = [Lattice.standard(2).quotient_group([(1, 0), (0, 1)])]
    # diagonal sublattices: several factors, and zero columns in the rows
    groups.append(Lattice.standard(3).quotient_group([(1, 0, 0), (0, 2, 0), (0, 0, 4)]))
    groups.append(Lattice.standard(3).quotient_group([(2, 0, 0), (0, 6, 0), (0, 0, 6)]))
    for _ in range(60):
        d = rng.randint(1, 4)
        lat = rand_overlattice(rng, d, 12)
        while True:
            b = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if det_bareiss(b) != 0:
                break
        groups.append(lat.quotient_group(b))
    for qg in groups:
        if sum(f > 1 for f in qg.invariant_factors) > 1:
            multi += 1
        assert list(qg.reps_scaled()) == reference_reps_scaled(qg)
    assert multi >= 10


def test_reps_scaled_zero_columns_and_trivial_group():
    trivial = QuotientGroup(
        order=1,
        invariant_factors=(1, 1, 1),
        denominator=1,
        generator_rows=((0, 0, 0),) * 3,
    )
    assert list(trivial.reps_scaled()) == [(0, 0, 0)]
    qg = QuotientGroup(
        order=2 * 6,
        invariant_factors=(1, 2, 6),
        denominator=6,
        generator_rows=((0, 0, 0), (3, 0, 0), (1, 0, 5)),
    )
    reps = list(qg.reps_scaled())
    assert reps == reference_reps_scaled(qg)
    assert reps[0] == (0, 0, 0)
    assert all(r[1] == 0 for r in reps)
    assert len(set(reps)) == 12


def test_quotient_errors():
    lat = Lattice.standard(2)
    with pytest.raises(NotSublatticeError):
        lat.quotient_group([(F(1, 2), 0), (0, 1)])
    with pytest.raises(DegenerateBasisError):
        lat.quotient_group([(1, 2), (2, 4)])


def test_primitivize_examples():
    z2 = Lattice.standard(2)
    assert z2.primitivize((2, 4)) == (F(1), F(2))
    assert z2.primitivize((0, -3)) == (F(0), F(-1))
    half = Lattice.from_generators(2, [(F(1, 2), F(1, 2))])
    assert half.primitivize((1, 1)) == (F(1, 2), F(1, 2))


def test_primitivize_idempotent():
    rng = random.Random(36)
    for _ in range(50):
        d = rng.randint(1, 4)
        lat = rand_overlattice(rng, d, 40)
        v = to_ambient_oracle(lat, [rng.randint(-5, 5) for _ in range(d)])
        if all(x == 0 for x in v):
            continue
        p = lat.primitivize(v)
        assert lat.primitivize(p) == p
        assert lat.contains(p)


def test_primitivize_errors():
    lat = Lattice.standard(2)
    with pytest.raises(ZeroVectorError):
        lat.primitivize((0, 0))
    with pytest.raises(NotInLatticeError):
        lat.primitivize((F(1, 3), F(1, 3)))


def test_unimodular_equivariance():
    # index and invariant-factor structure survive any automorphism of Z^d
    rng = random.Random(37)
    for _ in range(30):
        d = rng.randint(2, 4)
        lat = rand_overlattice(rng, d, 40)
        u = rand_unimodular(rng, d)

        def tr(v):
            return tuple(sum(v[i] * u[i][j] for i in range(d)) for j in range(d))

        lat2 = Lattice.from_generators(d, [tr(row) for row in lat.basis])
        assert lat2.index_over_standard == lat.index_over_standard
        eye = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        q1 = lat.quotient_group(eye)
        q2 = lat2.quotient_group(eye)
        assert q1.invariant_factors == q2.invariant_factors
