"""The width engine of ``mld`` and the integral LLL under it.

``_width_cone`` is called directly on generated cones, whatever their
quotient denominator D, and must return exactly what the Hermite-order sweep
``_hnf_sweep`` returns for the same bound: the least value numerator and the
lex-least ambient key among the points that reach it.  Through ``mld`` with
every cone sent to the engine, value, witness and cone must match the coset
scan and ``mld_bruteforce``.  On large cones ``mld`` must also match
``mld_bruteforce`` alone, whose rounds of growing value keep it fast at any
D whose minimum lies low in the cone.  ``lll`` is checked against a test-side
rational Gram-Schmidt, and the rows it carries must transform
contragrediently, so the engine's basis is the one a second inverse gave.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, event, given, reject, settings
from hypothesis import strategies as st

from oracles import det_bareiss
from test_exact_kernels import modular_systems
from test_mld_sweep import affine_varieties, assert_agrees
from toricmld import Fan, Lattice, TooLargeError, ToricVariety, cyclic_quotient, example_family, mld, mld_bruteforce
from toricmld.exactmath import hnf, hnf_mod, identity, lll, mat_mul, rank, scaled_inverse

mld_module = importlib.import_module("toricmld.mld")
F = Fraction
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def engine_everywhere():
    return mock.patch.object(mld_module, "_CROSSOVER", 0)


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


def compare_on_cone(x_var, limit_frac, sweep_guard=10**7):
    cone = mld_module._coset_lattice(x_var, 0)
    if cone is None:
        return 1  # trivial quotient: neither search runs
    denom, h, gint = cone
    limit = max(1, int(limit_frac * denom))
    budget = mld_module._Budget
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
        want = mld_bruteforce(x_var, guard=2 * 10**5)
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
    factors = x_var.lattice.quotient_group(cone.generator_matrix).invariant_factors
    assume(sum(f > 1 for f in factors) >= 2)
    compare_on_cone(x_var, limit_frac, sweep_guard=2 * 10**5)


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


@pytest.mark.parametrize("l", range(2, 15))
def test_engine_everywhere_matches_the_sweep_on_the_family(l):
    fam = example_family(l)
    with mock.patch.object(mld_module, "_CROSSOVER", float("inf")):
        want = mld(fam.x)
    with engine_everywhere():
        assert mld(fam.x) == want


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
    assert hnf(basis)[0] == h
