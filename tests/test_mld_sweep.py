"""The coset-lattice sweep in ``mld`` against two independent oracles.

``scan_mld`` below is the fundamental-parallelepiped scan: it visits every
coset of every maximal cone through ``Lattice.quotient_group(...)
.reps_scaled()``.  ``mld_bruteforce`` walks an ambient box.  The sweep must
return the same value, the same tie-broken witness and the same cone as
both, on generated inputs chosen to stress its bound and its tie-break.
``mld_bruteforce`` searches in rounds of growing value; ``box_scan_oracle``,
its earlier single walk of the whole box, must agree with it, and with both
searches on fans of several cones, whose cones offer their values over
different denominators.
"""

from __future__ import annotations

import math
import random
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import apply_unimodular, rand_standard_simplex_mfs
from oracles import box_scan_oracle, cone_generators, det_bareiss, with_guard
from test_fiber import fibrations, relisted
from toricmld import (
    DEFAULT_GUARD,
    GUARD,
    Fan,
    Lattice,
    TooLargeError,
    ToricVariety,
    cyclic_quotient,
    example_family,
    find_containing_cone,
    log_discrepancy,
    mld,
    mld_bruteforce,
)
from toricmld.cli import load_instance

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def scan_mld(x_var):
    """(value, witness, cone) from every coset representative of every cone."""
    candidates = [(F(1), ray) for ray in x_var.fan.rays]
    d = x_var.dim
    for cone in x_var.fan.max_cones:
        g = cone_generators(x_var.fan, cone)
        qg = x_var.lattice.quotient_group(g)
        denom = qg.denominator
        # the generators over their common denominator e: a coset's ambient
        # point is key / (denom e) with key = sum_i num_i G_i, so keys order
        # the ties as their points do
        e = math.lcm(*(x.denominator for row in g for x in row))
        gint = [[x.numerator * (e // x.denominator) for x in row] for row in g]
        low, key = None, None
        for num in qg.reps_scaled():
            s = sum(num)
            if s == 0 or (low is not None and s > low):
                continue
            k = tuple(sum(num[i] * gint[i][j] for i in range(d)) for j in range(d))
            if low is None or s < low or k < key:
                low, key = s, k
        if low is not None and low <= denom:
            candidates.append((F(low, denom), tuple(F(x, denom * e) for x in key)))
    value, witness = min(candidates)
    return value, witness, find_containing_cone(x_var, witness)


def assert_agrees(x_var):
    got = mld(x_var)
    assert got.method == "parallelepiped"
    want = (got.value, got.witness, got.cone_index)
    assert scan_mld(x_var) == want
    brute = mld_bruteforce(x_var)
    assert (brute.value, brute.witness, brute.cone_index) == want
    assert x_var.lattice.contains(got.witness)
    assert log_discrepancy(x_var, got.witness) == got.value
    return got


@st.composite
def affine_varieties(draw, max_dim=4, max_index=60, generators=1, dims=None):
    """One full-dimensional cone over Z^d plus ``generators`` vectors in (1/r)Z^d."""
    d = draw(st.sampled_from(dims) if dims else st.integers(1, max_dim))
    r = draw(st.integers(2, max_index))
    coords = st.lists(st.integers(0, r - 1), min_size=d, max_size=d)
    gens = [tuple(F(a, r) for a in draw(coords)) for _ in range(generators)]
    lattice = Lattice.from_generators(d, gens)
    entries = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    rows = draw(st.lists(entries, min_size=d, max_size=d))
    assume(det_bareiss(rows) != 0)
    rays = [lattice.primitivize(tuple(F(c) for c in row)) for row in rows]
    return ToricVariety(lattice, Fan.build(rays, [list(range(d))]))


@st.composite
def unimodular_matrices(draw, d):
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        else:
            u[i] = [-a for a in u[i]]
    return u


@pytest.mark.parametrize("l", range(2, 13))
def test_family_matches_scan_and_bruteforce(l):
    fam = example_family(l)
    assert_agrees(fam.x)
    assert assert_agrees(fam.y).value == F(2, l**4 + 1)


def test_family_l20_total_space():
    res = mld(example_family(20).x)
    r = 20**4 + 1
    assert res.value == F(8022, r)
    assert res.witness == (F(20, r), F(400, r), F(1, r), F(1, r))


@PROPERTY
@given(st.integers(2, 400))
def test_every_coset_ties_with_the_rays(r):
    # every nonzero coset of 1/r(1, r-1) has value exactly 1
    res = assert_agrees(cyclic_quotient(r, (1, r - 1)))
    assert res.value == 1


@PROPERTY
@given(
    st.integers(2, 12),
    st.integers(2, 12),
    st.lists(st.integers(0, 143), min_size=1, max_size=2),
    st.integers(1, 143),
)
def test_weights_sharing_factors_with_r(p, q, others, a):
    r = p * q
    weights = [p * a % r] + [w % r for w in others]
    assume(any(weights))
    assert_agrees(cyclic_quotient(r, weights))


@PROPERTY
@given(affine_varieties(max_index=12, generators=2, dims=(2, 3, 4)))
def test_non_cyclic_groups(x_var):
    cone = x_var.fan.max_cones[0]
    factors = x_var.lattice.quotient_group(cone_generators(x_var.fan, cone)).invariant_factors
    assume(sum(f > 1 for f in factors) >= 2)
    assert_agrees(x_var)


@PROPERTY
@given(affine_varieties())
def test_random_affine_varieties(x_var):
    assert_agrees(x_var)


@PROPERTY
@given(st.data())
def test_unimodular_invariance(data):
    x_var = data.draw(affine_varieties(max_index=40))
    u = data.draw(unimodular_matrices(x_var.dim))
    assert abs(det_bareiss(u)) == 1
    moved = apply_unimodular(x_var, u)
    got = mld(moved)
    assert got.value == mld(x_var).value
    assert scan_mld(moved) == (got.value, got.witness, got.cone_index)


@pytest.mark.parametrize(
    "gens, rows",
    [
        (["1/3 0 1/3 0", "0 2/3 2/3 1/3"],
         [[-1, 1, 1, 1], [0, -1, -2, -1], [0, 0, -1, -1], [1, -1, 1, -1]]),
        (["1/4 5/6 1/3 11/12", "1/3 11/12 5/6 1/3"],
         [[0, -1, 0, 2], [2, 0, -1, 1], [2, -2, -1, 1], [2, -1, 1, 1]]),
    ],
)
def test_tie_on_the_bound_of_an_outer_level(gens, rows):
    # the lex-smallest minimizer takes the largest value an outer sweep
    # level allows, so that level's bound must be inclusive
    lattice = Lattice.from_generators(4, [tuple(F(x) for x in g.split()) for g in gens])
    rays = [lattice.primitivize(tuple(F(c) for c in row)) for row in rows]
    assert_agrees(ToricVariety(lattice, Fan.build(rays, [[0, 1, 2, 3]])))


def test_guard_stops_a_sweep_of_ties():
    # every nonzero coset of 1/r(1, r-1) ties with the rays at value 1; the
    # seed is the row (1, r - 1), of sum r, so the sweep's bound is r points
    # and from r = 196 on the width engine settles the tie in a few dozen units
    for r in (10**12, 5001, 18001):
        res = with_guard(1000, mld, cyclic_quotient(r, (1, r - 1)))
        assert (res.value, res.witness, res.cone_index) == (1, (0, 1), 0)
    assert with_guard(1000, mld, cyclic_quotient(17, (1, 16))).value == 1


def test_guard_counts_the_points_the_sweep_streams():
    cases = [
        # the seed row (1, 18000) has sum D, so the sweep's bound is
        # floor(18000 / 1) + 1 = 18,001 points, past d = 2's 195: the engine
        # takes the cone and spends 17 nodes
        (18001, (1, 18000), 17, (1, (0, 1), 0)),
        # the seed row (1, 99) is the minimum 100/10007 (t 99 < 10007 for
        # t <= 100), so the bound is 101 points and the sweep takes the cone;
        # it skips the origin and streams x_0 = 1..100 in chunks of 64 and 36
        # points, and at 99 units the second chunk is charged past the 35 left
        (10007, (1, 99), 100, (F(100, 10007), (F(1, 10007), F(99, 10007)), 0)),
    ]
    for r, weights, units, want in cases:
        x_var = cyclic_quotient(r, weights)
        res = with_guard(units, mld, x_var)
        assert (res.value, res.witness, res.cone_index) == want
        with pytest.raises(TooLargeError, match=f"exceeded guard of {units - 1} points"):
            with_guard(units - 1, mld, x_var)


def test_guard_is_set_per_context():
    # GUARD is a ContextVar, so two threads that run mld at the same time
    # each spend the guard they set, and a fresh thread starts at the default;
    # the barriers keep both guards set from before either mld starts until
    # both have ended
    x_var = example_family(11).x
    both_set, both_ran = threading.Barrier(2), threading.Barrier(2)

    def run(guard):
        def call():
            both_set.wait(timeout=60)
            try:
                return mld(x_var)
            finally:
                both_ran.wait(timeout=60)

        try:
            return with_guard(guard, call)
        except TooLargeError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=2) as pool:
        fits, over = pool.map(run, (44, 43))
    want = mld(x_var)
    assert (fits.value, fits.witness, fits.cone_index) == (want.value, want.witness, want.cone_index)
    assert isinstance(over, TooLargeError) and str(over) == "mld sweep exceeded guard of 43 points"
    seen = []
    fresh = threading.Thread(target=lambda: seen.append(GUARD.get()))
    with_guard(43, lambda: (fresh.start(), fresh.join()))
    assert seen == [DEFAULT_GUARD]


def test_first_hermite_row_seeds_the_bound():
    # 1/r(1, 1) has the Hermite rows (1, 1), (0, r): the first is the
    # minimum 2/r, so the sweep streams the 2 points up to it, whatever r
    for r in (500, 38417, 100003):
        res = with_guard(2, mld, cyclic_quotient(r, (1, 1)))
        assert (res.value, res.witness, res.cone_index) == (F(2, r), (F(1, r), F(1, r)), 0)
    with pytest.raises(TooLargeError, match="exceeded guard of 1 points"):
        with_guard(1, mld, cyclic_quotient(500, (1, 1)))


@pytest.mark.parametrize(
    "rays, max_cones, expected",
    [
        ([(2,)], [[0]], (F(1, 2), (1,), 0)),
        ([(10**5,)], [[0]], (F(1, 10**5), (1,), 0)),
        ([(3,), (-5,)], [[0], [1]], (F(1, 5), (-1,), 1)),
    ],
)
def test_line_with_non_primitive_rays(rays, max_cones, expected):
    # a 1-d cone over a non-primitive ray has a nontrivial quotient; its
    # first lattice point, of value 1/D, is the minimum
    x_var = ToricVariety(Lattice.from_generators(1, []), Fan.build([tuple(map(F, r)) for r in rays], max_cones))
    res = with_guard(64, mld, x_var)
    assert (res.value, res.witness, res.cone_index) == expected
    oracle = mld_bruteforce(x_var)
    assert (oracle.value, oracle.witness, oracle.cone_index) == expected


def test_guard_counts_every_node_of_the_width_engine():
    # the largest cones of the family take the engine; its tree has exactly
    # 60 nodes at l = 20, each costing one unit of the guard
    assert with_guard(60, mld, example_family(20).x).value == F(8022, 20**4 + 1)
    with pytest.raises(TooLargeError, match="mld sweep exceeded guard of 59 points"):
        with_guard(59, mld, example_family(20).x)


def test_family_l48_at_the_default_guard():
    # the sweep alone needs more than the default 10^7 points from l = 48 on
    r = 48**4 + 1
    res = mld(example_family(48).x)
    assert res.value == F(48**3 + 48 + 2, r)
    assert res.witness == (F(48, r), F(48**2, r), F(1, r), F(1, r))


@pytest.mark.parametrize("l", [*range(2, 31), 100, 200])
def test_family_total_space_closed_form(l):
    # observed, not proved: mld(X_l) = (l^3 + l + 2) / (l^4 + 1)
    assert mld(example_family(l).x).value == F(l**3 + l + 2, l**4 + 1)


def test_family_l200_work_bound():
    # the sweep would visit about 3 * 10^9 points here
    assert with_guard(2000, mld, example_family(200).x).value == F(200**3 + 202, 200**4 + 1)


@pytest.mark.parametrize(
    "l, units",
    [(5, 324), (6, 497), (9, 44), (10, 46), (11, 44), (12, 49), (13, 50), (14, 48)],
)
def test_family_total_space_least_guard(l, units):
    # a cone takes the width engine when the sweep's work bound exceeds the
    # engine's cost: from l = 9 on, the sweep could visit thousands of points
    # of the largest cone where the width engine needs a few dozen nodes; at
    # l = 5 and 6 only some of the three cones take it
    x_var = example_family(l).x
    assert with_guard(units, mld, x_var).value == F(l**3 + l + 2, l**4 + 1)
    with pytest.raises(TooLargeError, match=f"mld sweep exceeded guard of {units - 1} points"):
        with_guard(units - 1, mld, x_var)


def test_bruteforce_guard_counts_every_box_point():
    # the oracle's guard counts each outer-level node it visits and each box
    # point of an innermost row, over every round; this cone's minimum 23/45
    # takes rounds 1/4 and 1/2, which find nothing, and a last round at 23/45,
    # the least value the round at 1/2 met at a row's end (42 + 190 + 190
    # units); the instance succeeds at exactly those 422 units, fails one below
    lattice = Lattice.from_generators(3, [(F(1, 5), F(2, 5), F(3, 5)), (F(1, 3), F(0), F(2, 3))])
    rays = [lattice.primitivize(r) for r in [(2, 3, -1), (-2, -1, -2), (2, 0, 2)]]
    x_var = ToricVariety(lattice, Fan.build(rays, [[0, 1, 2]]))
    res = with_guard(422, mld_bruteforce, x_var)
    assert (res.value, res.witness) == (F(23, 45), (F(-13, 15), F(-2, 5), F(-14, 15)))
    with pytest.raises(TooLargeError, match="enumeration exceeded guard of 421 points"):
        with_guard(421, mld_bruteforce, x_var)


@pytest.mark.parametrize(
    "name, search, units",
    [
        ("mfs_shuffled_fiber.json", mld_bruteforce, 13732),
        ("mfs_shuffled_fiber.json", mld, 21),
        ("mfs_sheared_bound.json", mld_bruteforce, 3946),
        ("mfs_sheared_bound.json", mld, 258),
    ],
)
def test_guard_trips_at_the_same_unit_across_cones(name, search, units):
    # the total spaces of these goldens have several cones, so the search
    # charges units in many cones and, in the box scan, at many depths; it
    # passes at its least guard and fails one unit below
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the shuffled file's rays are replaced
        x_var = load_instance(str(GOLDEN / name)).x
    assert len(x_var.fan.max_cones) > 1
    want = search(x_var)
    res = with_guard(units, search, x_var)
    assert (res.value, res.witness, res.cone_index) == (want.value, want.witness, want.cone_index)
    with pytest.raises(TooLargeError, match=f"exceeded guard of {units - 1} points"):
        with_guard(units - 1, search, x_var)


@PROPERTY
@given(st.one_of(st.integers(2, 12).map(example_family), fibrations()), st.data())
def test_mld_keeps_the_cone_its_minimum_came_from(mfs, data):
    # below 1, mld reports the cone whose search first offered the witness;
    # that must be the lowest-index cone holding it, in any cone order
    for x_var in (mfs.x, mfs.y, relisted(mfs, data).x):
        got = mld(x_var)
        assert got.cone_index == find_containing_cone(x_var, got.witness)


@st.composite
def sheared_quotients(draw):
    """A cyclic quotient in ambient coordinates sheared by a unimodular map,
    so that its generators' coordinates may all share one sign."""
    weights = st.lists(st.integers(1, 199), min_size=2, max_size=3)
    x_var = draw(st.builds(cyclic_quotient, st.integers(2, 200), weights))
    return apply_unimodular(x_var, draw(unimodular_matrices(x_var.dim)))


def bruteforce_outcome(search, x_var):
    res = search(x_var)
    return res.value, res.witness, res.cone_index, res.method


@settings(PROPERTY, max_examples=120)
@given(
    st.one_of(
        affine_varieties(max_index=100, max_dim=3),
        affine_varieties(max_index=30, generators=2, dims=(2, 3, 4)),
        st.builds(cyclic_quotient, st.integers(2, 200), st.lists(st.integers(1, 199), min_size=1, max_size=3)),
        sheared_quotients(),
    )
)
def test_bruteforce_rounds_match_the_whole_box_scan(x_var):
    assert bruteforce_outcome(mld_bruteforce, x_var) == bruteforce_outcome(box_scan_oracle, x_var)


@st.composite
def standard_simplex_fibrations(draw):
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return rand_standard_simplex_mfs(random.Random(draw(st.integers(0, 2**32))), m, n, 40)


@st.composite
def complete_plane_fans(draw):
    """A complete 2-d fan of 3 to 6 cones over a cyclic overlattice of Z^2:
    its cones' quotients differ, so equal values and ties come from cones of
    different orders."""
    vectors = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda v: math.gcd(*v) == 1)
    rays = sorted(set(draw(st.lists(vectors, min_size=3, max_size=6))), key=lambda v: math.atan2(v[1], v[0]))
    k = len(rays)
    # every pair of neighbours turns left by less than a half turn
    assume(k >= 3 and all(rays[i - 1][0] * rays[i][1] > rays[i - 1][1] * rays[i][0] for i in range(k)))
    r = draw(st.integers(2, 30))
    lattice = Lattice.from_generators(2, [(F(draw(st.integers(0, r - 1)), r), F(draw(st.integers(0, r - 1)), r))])
    rays = [lattice.primitivize(v) for v in rays]
    cones = draw(st.permutations([[i, (i + 1) % k] for i in range(k)]))
    return ToricVariety(lattice, Fan.build(rays, cones))


@settings(PROPERTY, max_examples=50)
@given(
    st.one_of(
        st.integers(2, 4).map(example_family),
        fibrations(),
        standard_simplex_fibrations(),
        complete_plane_fans(),
    ),
    st.data(),
)
def test_integer_incumbent_matches_the_fraction_oracle_across_cones(space, data):
    # each cone's value numerators and witness keys live over its own D q, so
    # equal values and ties on shared faces reach the incumbent over
    # different scales; it must keep what the oracle's Fraction minimum and
    # find_containing_cone keep, in any cone order
    varieties = [space] if isinstance(space, ToricVariety) else [space.x, relisted(space, data).x]
    for x_var in varieties:
        want = bruteforce_outcome(box_scan_oracle, x_var)
        assert bruteforce_outcome(mld_bruteforce, x_var) == want
        got = mld(x_var)
        assert (got.value, got.witness, got.cone_index) == want[:3]


def test_ties_across_cones_compare_over_each_cone_scale():
    # value 2/5 is reached in cone 1, of order 20, at (-1/5, 2/5), and in
    # cone 2, of order 5, at the lex-smaller (-3/10, 1/10): the integer keys
    # (-40, 80) and (-15, 5) order the other way until each is read over its
    # own cone's scale
    lattice = Lattice.from_generators(2, [(F(3, 10), F(9, 10))])
    rays = [lattice.primitivize(v) for v in [(1, -1), (0, 1), (-2, 1)]]
    x_var = ToricVariety(lattice, Fan.build(rays, [[0, 1], [1, 2], [2, 0]]))
    want = (F(2, 5), (F(-3, 10), F(1, 10)), 2)
    for res in (mld(x_var), mld_bruteforce(x_var), box_scan_oracle(x_var)):
        assert (res.value, res.witness, res.cone_index) == want
