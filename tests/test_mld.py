import math
import random
from fractions import Fraction

import pytest

from conftest import apply_unimodular, rand_affine_variety, rand_unimodular
from oracles import with_guard
from toricmld import (
    EmptyFanError,
    Fan,
    InvalidWeightsError,
    Lattice,
    NonSimplicialError,
    TooLargeError,
    ToricVariety,
    cyclic_quotient,
    log_discrepancy,
    mld,
    mld_bruteforce,
    mld_cyclic,
)

F = Fraction


def cyclic_formula(r, weights):
    """Naive closed form, valid when the orthant rays stay primitive."""
    best = F(1)
    for k in range(1, r):
        val = sum(F(k * a, r) % 1 for a in weights)
        best = min(best, val)
    return best


def test_smooth_affine_space():
    # all ray generators achieve the capped value 1; the tie-break picks the
    # lexicographically smallest, i.e. the last standard vector
    for n in (1, 2, 3):
        v = cyclic_quotient(1, [1] * n)
        res = mld(v)
        assert res.value == 1
        assert res.witness == tuple(F(int(j == n - 1)) for j in range(n))


def test_quotient_17():
    res = mld(cyclic_quotient(17, (1, 1)))
    assert res.value == F(2, 17)
    assert res.witness == (F(1, 17), F(1, 17))
    assert res.cone_index == 0


def test_cyclic_wrapper_values():
    assert mld_cyclic(1, (1, 1, 1)) == 1
    assert mld_cyclic(17, (1, 1)) == F(2, 17)
    # enumerated by hand: k=1..4 gives 3/5, 6/5, 4/5, 7/5
    assert mld_cyclic(5, (1, 2)) == F(3, 5)


def test_cyclic_invalid():
    with pytest.raises(InvalidWeightsError):
        mld_cyclic(0, (1, 1))
    with pytest.raises(InvalidWeightsError):
        mld_cyclic(-3, (1, 1))


def test_cyclic_agrees_with_formula_on_coprime_weights():
    # n >= 2: in dimension one every quotient is smooth and the naive formula
    # does not apply
    rng = random.Random(51)
    for _ in range(40):
        r = rng.randint(2, 60)
        n = rng.randint(2, 3)
        weights = []
        while len(weights) < n:
            a = rng.randint(1, r - 1)
            if math.gcd(a, r) == 1:
                weights.append(a)
        assert mld_cyclic(r, weights) == cyclic_formula(r, weights)


def test_cyclic_non_well_formed_weights_stay_geometric():
    # 1/2 (1,0) is smooth: the naive formula would say 1/2, the variety says 1
    assert mld_cyclic(2, (1, 0)) == 1


def test_bruteforce_smooth_and_half():
    assert mld_bruteforce(cyclic_quotient(1, (1, 1))).value == 1
    res = mld_bruteforce(cyclic_quotient(2, (1, 1)))
    assert res.value == 1  # the point (1/2,1/2) has value exactly 1
    assert res.method == "bruteforce"


def test_witness_certificate():
    rng = random.Random(52)
    for _ in range(25):
        v = rand_affine_variety(rng, rng.randint(1, 3), 50)
        res = mld(v)
        assert 0 < res.value <= 1
        assert v.lattice.contains(res.witness)
        assert any(c != 0 for c in res.witness)
        assert res.cone_index is not None
        assert log_discrepancy(v, res.witness) == res.value


def test_oracle_equivalence_random():
    rng = random.Random(53)
    for _ in range(60):
        v = rand_affine_variety(rng, rng.choice([1, 2, 2, 3]), 50)
        a = mld(v)
        b = mld_bruteforce(v)
        assert a.value == b.value
        assert a.witness == b.witness
        assert a.cone_index == b.cone_index


def test_oracle_equivalence_multi_cone():
    # complete triangle fans over random overlattices
    rng = random.Random(54)
    from conftest import rand_overlattice

    done = 0
    while done < 15:
        lat = rand_overlattice(rng, 2, 40)
        rays = [(1, 0), (-rng.randint(0, 2), 1), (-rng.randint(0, 2), -1)]
        prims = [lat.primitivize(tuple(F(c) for c in r)) for r in rays]
        if len(set(prims)) < 3:
            continue
        v = ToricVariety(lat, Fan.build(prims, [[0, 1], [0, 2], [1, 2]]))
        a, b = mld(v), mld_bruteforce(v)
        assert (a.value, a.witness, a.cone_index) == (b.value, b.witness, b.cone_index)
        done += 1


def test_monotone_under_lattice_extension():
    # adjoining more generators while keeping the same ray generators can
    # only lower the minimum (the function stays, the point set grows)
    rng = random.Random(55)
    for _ in range(25):
        d = rng.randint(1, 3)
        r = rng.randint(2, 40)
        w = [rng.randrange(r) for _ in range(d)]
        w[rng.randrange(d)] = 1
        v1 = cyclic_quotient(r, w)
        lat2 = Lattice.from_generators(
            d,
            list(v1.lattice.basis) + [tuple(F(rng.randrange(r), r) for _ in range(d))],
        )
        fan2 = Fan.build(list(v1.fan.rays), [list(range(d))])
        v2 = ToricVariety(lat2, fan2)
        assert mld(v2).value <= mld(v1).value


def test_unimodular_invariance():
    rng = random.Random(56)
    for _ in range(20):
        v = rand_affine_variety(rng, rng.randint(2, 3), 40)
        base = mld(v)
        u = rand_unimodular(rng, v.dim)
        res = mld(apply_unimodular(v, u))
        assert res.value == base.value


def test_empty_fan():
    v = ToricVariety(Lattice.standard(2), Fan.build([], []))
    with pytest.raises(EmptyFanError):
        mld(v)
    with pytest.raises(EmptyFanError):
        mld_bruteforce(v)


def test_lower_dimensional_cone_rejected():
    v = ToricVariety(Lattice.standard(2), Fan.build([(1, 0)], [[0]]))
    with pytest.raises(NonSimplicialError):
        mld(v)


def test_bruteforce_guard():
    # mld 13/25 takes four rounds and 59 units in all: s = 1/8, 1/4 and 1/2
    # find nothing, but the round at 1/2 meets a row ending at value 13/25,
    # so the last round is at 13/25 (6 + 9 + 21 + 23 units) and not at 1
    v = cyclic_quotient(50, (1, 24))
    assert with_guard(59, mld_bruteforce, v).value == F(13, 25)
    with pytest.raises(TooLargeError, match="enumeration exceeded guard of 58 points"):
        with_guard(58, mld_bruteforce, v)


def test_bruteforce_box_follows_the_incumbent_on_a_thin_simplex():
    # the first round's box has about 31,250 columns on level 0; the
    # witness (1, 1, 1, 1)/r is the second of them, and its value cuts the
    # box to coordinates <= 4
    v = cyclic_quotient(10**6 + 3, (1, 1, 1, 1))
    got, want = with_guard(10**5, mld_bruteforce, v), mld(v)
    assert got.value == F(4, 10**6 + 3)
    assert (got.value, got.witness, got.cone_index) == (want.value, want.witness, want.cone_index)


def test_family_total_space_golden():
    # frozen from an independent brute enumeration over k*(l,l^2,1,1)/r + Z^2
    from toricmld import example_family

    golden = {2: F(12, 17), 3: F(16, 41), 4: F(70, 257), 5: F(66, 313)}
    for l, expect in golden.items():
        assert mld(example_family(l).x).value == expect


def test_family_against_bruteforce():
    from toricmld import example_family

    for l in (2, 3):
        fam = example_family(l)
        a, b = mld(fam.x), mld_bruteforce(fam.x)
        assert (a.value, a.witness, a.cone_index) == (b.value, b.witness, b.cone_index)
        ay, by = mld(fam.y), mld_bruteforce(fam.y)
        assert (ay.value, ay.witness) == (by.value, by.witness)
