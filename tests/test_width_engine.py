"""The width engine of ``mld`` and the integral LLL under it.

``_width_cone`` is called directly on generated cones, whatever their
quotient denominator D, and must return exactly what the Hermite-order sweep
``_hnf_sweep`` returns for the same bound: the least value numerator and the
lex-least ambient key among the points that reach it, at D and at the bound
``mld`` seeds from the cone's least Hermite row.  ``mld`` picks one of
the two per cone through ``_pick_search``, from an exact bound on the
sweep's work that a swept cone must stay within; patched to always pick
the engine, value, witness and cone must match the coset scan and
``mld_bruteforce``, and on cones drawn on both sides of each dimension's
threshold ``mld`` must match both forced searches.  On large cones ``mld`` must also match
``mld_bruteforce`` alone, whose rounds of growing value keep it fast at any
D whose minimum lies low in the cone.  In the plane ``klein_mld_2d`` checks
``mld`` at any D, and past 10^6 bounds the engine's cost by a few units per
bit of D.  ``lll`` is checked against a test-side
rational Gram-Schmidt, and the rows it carries must transform
contragrediently, so the engine's basis is the one a second inverse gave.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from itertools import accumulate
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, event, given, reject, settings
from hypothesis import strategies as st

from oracles import cone_generators, det_bareiss, klein_mld_2d, mat_mul, with_guard
from test_exact_kernels import modular_systems
from test_mld_sweep import affine_varieties, assert_agrees
from toricmld import Fan, Lattice, TooLargeError, ToricVariety, cyclic_quotient, example_family, mld, mld_bruteforce
from toricmld.exactmath import hnf, hnf_mod, identity, lll, rank, scaled_inverse

mld_module = importlib.import_module("toricmld.mld")
F = Fraction
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def engine_everywhere():
    return mock.patch.object(mld_module, "_pick_search", lambda h, denom, limit: mld_module._width_cone)


def sweep_everywhere():
    return mock.patch.object(mld_module, "_pick_search", lambda h, denom, limit: mld_module._hnf_sweep)


@st.composite
def large_cones(draw, generators=1):
    """One cone over Z^d plus vectors in (1/r)Z^d with r from 2^14 to 10^6."""
    d = draw(st.integers(2, 4))
    r = draw(st.integers(2**14, 10**6))
    coords = st.lists(st.integers(0, r - 1), min_size=d, max_size=d)
    gens = [tuple(F(a, r) for a in draw(coords)) for _ in range(generators)]
    lattice = Lattice.from_generators(d, gens)
    entries = st.lists(st.integers(-1, 1), min_size=d, max_size=d)
    rows = draw(st.lists(entries, min_size=d, max_size=d))
    assume(det_bareiss(rows) != 0)
    rays = [lattice.primitivize(tuple(F(c) for c in row)) for row in rows]
    return ToricVariety(lattice, Fan.build(rays, [list(range(d))]))


def cones(max_index):
    return st.one_of(
        affine_varieties(max_index=max_index),
        affine_varieties(max_index=max_index, generators=2, dims=(2, 3, 4)),
        st.builds(lambda r, a: cyclic_quotient(r, (1, a % r)), st.integers(2, max_index), st.integers(1, 10**6)),
        # every nonzero coset ties at value 1: lines of constant sum
        st.builds(lambda r: cyclic_quotient(r, (1, r - 1)), st.integers(2, min(max_index, 3000))),
    )


def seeded_limit(h, denom):
    """The bound ``mld`` starts a lone cone's search at: D, or the least sum
    of a Hermite row in the box when that is smaller."""
    return min(denom, min(sum(row) for i, row in enumerate(h) if row[i] < denom))


def compare_on_cone(x_var, limit_frac, sweep_guard=10**7):
    cone = mld_module._coset_lattice(x_var, 0)
    if cone is None:
        return 1  # trivial quotient: neither search runs
    denom, h, gint = cone
    limit = max(1, int(limit_frac * denom))
    budget = lambda guard: with_guard(guard, mld_module._Budget, "mld sweep")
    try:
        want = mld_module._hnf_sweep(h, denom, gint, limit, budget(sweep_guard))
    except TooLargeError:
        reject()  # the oracle alone is too slow here; the engine is not
    assert mld_module._width_cone(h, denom, gint, limit, budget(10**7)) == want
    return denom


LIMITS = st.sampled_from([F(1), F(1), F(1, 2), F(1, 10)])


@PROPERTY
@given(cones(3000), LIMITS)
def test_engine_matches_the_sweep_on_small_cones(x_var, limit_frac):
    compare_on_cone(x_var, limit_frac)


@settings(PROPERTY, max_examples=80)
@given(st.one_of(large_cones(), large_cones(generators=2)), LIMITS)
def test_engine_matches_the_sweep_on_large_cones(x_var, limit_frac):
    # the sweep visits about value * D points, up to D on cones of ties
    compare_on_cone(x_var, limit_frac, sweep_guard=2 * 10**5)


@PROPERTY
@given(st.one_of(large_cones(), large_cones(generators=2)))
def test_engine_matches_the_box_scan_on_large_cones(x_var):
    got = mld(x_var)
    try:
        want = with_guard(2 * 10**5, mld_bruteforce, x_var)
    except TooLargeError:
        event("box scan over its guard")  # counted in --hypothesis-show-statistics
        reject()
    assert (got.value, got.witness, got.cone_index) == (want.value, want.witness, want.cone_index)


@PROPERTY
@given(
    st.one_of(affine_varieties(max_index=1000, generators=2, dims=(2, 3, 4)), large_cones(generators=2)),
    st.sampled_from([F(1), F(1, 3)]),
)
def test_engine_matches_the_sweep_on_non_cyclic_groups(x_var, limit_frac):
    cone = x_var.fan.max_cones[0]
    factors = x_var.lattice.quotient_group(cone_generators(x_var.fan, cone)).invariant_factors
    assume(sum(f > 1 for f in factors) >= 2)
    compare_on_cone(x_var, limit_frac, sweep_guard=2 * 10**5)


@PROPERTY
@given(st.one_of(cones(3000), large_cones(), large_cones(generators=2)))
def test_both_searches_agree_at_the_seeded_limit(x_var):
    # every Hermite row with h_ii < D is a nonzero representative in the
    # box, so the least row sum bounds the minimum, and each search returns
    # the same (sum, key) at the seeded limit as at D
    cone = mld_module._coset_lattice(x_var, 0)
    assume(cone is not None)
    denom, h, gint = cone
    row_sum = min(sum(row) for i, row in enumerate(h) if row[i] < denom)
    budget = lambda guard: with_guard(guard, mld_module._Budget, "mld sweep")
    low = mld_module._width_cone(h, denom, gint, row_sum, budget(10**7))
    assert low is not None and low[0] <= row_sum
    seed = min(denom, row_sum)
    want = mld_module._width_cone(h, denom, gint, denom, budget(10**7))
    assert mld_module._width_cone(h, denom, gint, seed, budget(10**7)) == want
    for name, limit in (("seed", seed), ("D", denom)):
        try:
            got = mld_module._hnf_sweep(h, denom, gint, limit, budget(2 * 10**4))
        except TooLargeError:
            event(f"sweep over its guard at limit {name}")  # counted in --hypothesis-show-statistics
            continue
        assert got == want


@PROPERTY
@given(st.integers(1, 20), st.data())
def test_mld_matches_both_oracles_on_planes_with_small_weights(bits, data):
    # 1/r(1, a) for r up to 10^6, every magnitude alike: the seed is the
    # first Hermite row, (1, a), of value (1 + a) / r
    r = data.draw(st.integers(max(2, 2 ** (bits - 1)), min(2**bits, 10**6)))
    a = data.draw(st.integers(1, min(8, r - 1)))
    x_var = cyclic_quotient(r, (1, a))
    got = mld(x_var)
    assert (got.value, got.witness) == klein_mld_2d(x_var)
    want = mld_bruteforce(x_var)
    assert (got.value, got.witness, got.cone_index) == (want.value, want.witness, want.cone_index)


def orthant(gens):
    d = len(gens[0].split())
    lattice = Lattice.from_generators(d, [tuple(F(x) for x in g.split()) for g in gens])
    rays = [lattice.primitivize(tuple(F(int(i == j)) for j in range(d))) for i in range(d)]
    return ToricVariety(lattice, Fan.build(rays, [list(range(d))]))


@pytest.mark.parametrize(
    "gens, denom",
    [
        (["1/999983 1000/999983"], 999_983),
        (["1/999983 77/999983 5000/999983"], 999_983),
        (["1/1000000 3/1000000 979/1000000", "0 1/1000 7/1000"], 10**6),
    ],
)
def test_engine_reaches_large_denominators(gens, denom):
    assert compare_on_cone(orthant(gens), F(1)) == denom


@PROPERTY
@given(cones(60))
def test_engine_everywhere_matches_both_oracles(x_var):
    with engine_everywhere():
        assert_agrees(x_var)


@st.composite
def threshold_cones(draw):
    """A cone of dimension 2..5 whose quotient puts the sweep's work bound
    within a factor of 8 of that dimension's threshold, on either side:
    1/r(1, a_2 .. a_d), where the sweep walks one Hermite level of at most
    min(r - 1, 1 + a_2 + .. + a_d) + 1 points, over the orthant or over
    random rays, where it may walk more levels."""
    d = draw(st.integers(2, 5))
    points = mld_module._ENGINE_COST[d][1]  # r = points is the threshold here
    r = max(2, round(points * 2 ** (draw(st.sampled_from(range(-24, 25))) / 8)))
    weights = [1] + draw(st.lists(st.sampled_from(range(r)), min_size=d - 1, max_size=d - 1))  # uniform: in the plane the bound is 1 + a_2
    if draw(st.booleans()):
        return cyclic_quotient(r, weights)
    lattice = Lattice.from_generators(d, [tuple(F(a, r) for a in weights)])
    entries = st.lists(st.integers(-1, 1), min_size=d, max_size=d)
    rows = draw(st.lists(entries, min_size=d, max_size=d))
    assume(det_bareiss(rows) != 0)
    rays = [lattice.primitivize(tuple(F(c) for c in row)) for row in rows]
    return ToricVariety(lattice, Fan.build(rays, [list(range(d))]))


@settings(PROPERTY, max_examples=150)
@given(threshold_cones())
def test_mld_matches_both_engines_across_the_threshold(x_var):
    cone = mld_module._coset_lattice(x_var, 0)
    assume(cone is not None)
    denom, h, _ = cone
    picked = mld_module._pick_search(h, denom, seeded_limit(h, denom))
    event(f"d = {x_var.dim}: {picked.__name__}")  # counted in --hypothesis-show-statistics
    got = mld(x_var)
    with engine_everywhere():
        engine = mld(x_var)
    try:
        with sweep_everywhere():
            sweep = with_guard(2 * 10**5, mld, x_var)
    except TooLargeError:
        reject()  # the forced sweep alone is too slow here
    key = (got.value, got.witness, got.cone_index)
    assert (engine.value, engine.witness, engine.cone_index) == key
    assert (sweep.value, sweep.witness, sweep.cone_index) == key


def sweep_work_bound(h, denom, limit):
    """count_j for each level j that ``_hnf_sweep`` walks at ``limit``: x_j
    takes one residue class mod h_jj in [0, min(D - 1, limit)] and the bound
    only drops, so level j has at most the product of
    floor(min(D - 1, limit) / h_ii) + 1 over i <= j nodes, points at the last
    walked level (the last with h_jj < D)."""
    top = min(denom - 1, limit)
    last = max(i for i in range(len(h)) if h[i][i] < denom)
    return list(accumulate((top // h[i][i] + 1 for i in range(last + 1)), mul))


@settings(PROPERTY, max_examples=150)
@given(st.one_of(cones(3000), large_cones(), threshold_cones()), st.sampled_from(["seed", F(1), F(1, 2), F(1, 10)]))
def test_a_swept_cone_stays_within_its_work_bound(x_var, at):
    # the sweep is picked exactly when no outer level's count exceeds the
    # engine's cost in nodes and the last level's its cost in points; it
    # then finishes under a guard of the counts' sum, with the engine's answer
    cone = mld_module._coset_lattice(x_var, 0)
    assume(cone is not None)
    denom, h, gint = cone
    limit = seeded_limit(h, denom) if at == "seed" else max(1, int(at * denom))
    table = mld_module._ENGINE_COST
    nodes, points = table.get(len(h), table[max(table)])
    *outer, inner = counts = sweep_work_bound(h, denom, limit)
    fits = inner <= points and all(c <= nodes for c in outer)
    picked = mld_module._pick_search(h, denom, limit)
    event(f"{picked.__name__}, {len(counts)} walked levels")  # counted in --hypothesis-show-statistics
    assert (picked is mld_module._hnf_sweep) == fits
    if fits:
        budget = lambda guard: with_guard(guard, mld_module._Budget, "mld sweep")
        want = mld_module._width_cone(h, denom, gint, limit, budget(10**7))
        assert mld_module._hnf_sweep(h, denom, gint, limit, budget(sum(counts))) == want


@pytest.mark.parametrize(
    "r, weights",
    [
        (997, (1, 2, 3, 5, 8, 13, 21)),
        (4099, (1, 4098, 2, 4097, 3, 4096, 5)),
        (211, (1, 1, 1, 1, 1, 1, 1, 1)),
        (1009, (1, 3, 9, 27, 81, 243, 729, 1008)),
    ],
)
def test_mld_matches_both_engines_past_six_dimensions(r, weights):
    # d = 7 is the table's last row; d = 8 is past it and priced at d = 7's
    x_var = cyclic_quotient(r, weights)
    got = mld(x_var)
    with engine_everywhere():
        engine = mld(x_var)
    with sweep_everywhere():
        sweep = mld(x_var)
    key = (got.value, got.witness, got.cone_index)
    assert (engine.value, engine.witness, engine.cone_index) == key
    assert (sweep.value, sweep.witness, sweep.cone_index) == key


@pytest.mark.parametrize("l", range(2, 15))
def test_engine_everywhere_matches_the_sweep_on_the_family(l):
    fam = example_family(l)
    with sweep_everywhere():
        want = mld(fam.x)
    with engine_everywhere():
        assert mld(fam.x) == want


@st.composite
def plane_cones(draw, r_min, r_max):
    """1/r(1, a) over its orthant or over random rays, a drawn at random or
    next to 1 or r, where every point ties with the rays or nearly so."""
    bits = draw(st.integers(r_min.bit_length(), r_max.bit_length()))  # every magnitude alike
    r = draw(st.integers(max(r_min, 2 ** (bits - 1)), min(r_max, 2**bits)))
    a = draw(st.one_of(st.integers(1, r - 1), st.sampled_from([1, 2, r - 2, r - 1])))
    assume(0 < a < r)
    if draw(st.booleans()):
        return cyclic_quotient(r, (1, a))
    lattice = Lattice.from_generators(2, [(F(1, r), F(a, r))])
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2))
    assume(det_bareiss(rows) != 0)
    rays = [lattice.primitivize(tuple(F(c) for c in row)) for row in rows]
    return ToricVariety(lattice, Fan.build(rays, [[0, 1]]))


@PROPERTY
@given(plane_cones(2, 10**6))
def test_mld_matches_the_klein_polygon_in_the_plane(x_var):
    # D crosses the plane's threshold, about 5 * 10^4 for 1/r(1, a)
    got = mld(x_var)
    assert (got.value, got.witness) == klein_mld_2d(x_var)
    assert got.cone_index == 0


@PROPERTY
@given(plane_cones(10**6, 10**400))
def test_width_engine_cost_is_logarithmic_in_the_plane(x_var):
    # past the brute force's reach the width engine answers in a handful of
    # nodes, or about one per bit of D when the minimum lies near value 1
    cone = mld_module._coset_lattice(x_var, 0)
    assume(cone is not None and cone[0] > 10**6)
    got = with_guard(100 + cone[0].bit_length(), mld, x_var)
    assert (got.value, got.witness) == klein_mld_2d(x_var)


def gram_schmidt(rows):
    """Rational Gram-Schmidt: squared lengths of b*_i and the mu_ij."""
    ortho, mu = [], [[F(0)] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        v = [F(x) for x in row]
        for j, u in enumerate(ortho):
            mu[i][j] = sum(F(x) * y for x, y in zip(row, u)) / sum(y * y for y in u)
            v = [a - mu[i][j] * b for a, b in zip(v, u)]
        ortho.append(v)
    return [sum(x * x for x in v) for v in ortho], mu


@st.composite
def independent_rows(draw, square=False):
    n = draw(st.integers(1, 6))
    k = n if square else draw(st.integers(1, n))
    size = draw(st.sampled_from([3, 100, 10**6, 10**12]))
    entry = st.integers(-size, size)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    assume(rank(rows) == k)
    return rows


@PROPERTY
@given(independent_rows())
def test_lll_is_a_reduced_basis_of_the_same_lattice(rows):
    red, carried = lll(rows, identity(len(rows)))
    assert hnf(red)[0] == hnf(rows)[0]
    # red = U rows and carried = U^-T, so carried^T red = rows
    assert mat_mul([list(col) for col in zip(*carried)], red) == rows
    norms, mu = gram_schmidt(red)
    for i in range(len(red)):
        assert all(abs(mu[i][j]) <= F(1, 2) for j in range(i))
        if i:  # Lovasz, delta = 3/4
            assert norms[i] >= (F(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError, match="independent"):
        lll([[1, 2, 3], [2, 4, 6]], identity(2))


@PROPERTY
@given(independent_rows(square=True))
def test_lll_keeps_carried_dual_rows_dual(rows):
    # carry D rows^-T, D = |det|: <p_i, b_j> = D [i == j] before and after
    n, denom = len(rows), abs(det_bareiss(rows))
    k, q = scaled_inverse(rows)
    dual = [[denom * k[i][j] // q for i in range(n)] for j in range(n)]
    red, carried = lll(rows, dual)
    assert mat_mul(carried, [list(col) for col in zip(*red)]) == [[denom * (i == j) for j in range(n)] for i in range(n)]


@PROPERTY
@given(modular_systems())
def test_scaled_dual_of_a_hermite_form_matches_the_inverse(system):
    rows, modulus = system
    h = hnf_mod(rows, modulus)
    k, q = scaled_inverse(h)
    d = len(h)
    assert mld_module._scaled_dual(h, modulus) == [[modulus * k[i][j] // q for i in range(d)] for j in range(d)]


@PROPERTY
@given(st.one_of(cones(3000), large_cones(), large_cones(generators=2)))
def test_width_engine_basis_is_dual_to_the_sorted_rows(x_var):
    cone = mld_module._coset_lattice(x_var, 0)
    assume(cone is not None)
    denom, h, _ = cone
    dual, basis = mld_module._flat_directions(h, denom)
    widths = [max(0, *u) - min(0, *u) for u in dual]
    assert widths == sorted(widths)
    # the basis the engine used to get from a second inverse: D (dual^T)^-1
    k, q = scaled_inverse([list(col) for col in zip(*dual)])
    assert basis == [[denom * x // q for x in row] for row in k]
    assert hnf(basis)[0] == [list(row) for row in h]  # an identity cone's h is the lattice's tuples
