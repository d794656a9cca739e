"""Property tests for the exact kernels of ``exactmath``.

The fraction-free Gauss-Jordan behind ``det``, ``adjugate``,
``scaled_inverse``, ``solve_exact`` and ``rank`` is checked against the
triangular Bareiss determinant of ``oracles.det_bareiss``
and a test-side rational elimination; ``hnf`` and ``snf`` against their
defining identities and invariance under unimodular changes of basis, and
the rows ``hnf`` carries against U times them (carrying m itself gives H);
``hnf_mod`` against ``hnf`` of the rows stacked on D I.
Integer matrices have at most 6 rows and columns, and a leading zero pivot
is drawn often, so that row swaps happen.  The Gauss-Jordan step that only
rescales rows already zero in the pivot column is checked against the dense
step of ``oracles.dense_gauss_jordan``, integer for integer, on
block-diagonal, sparse, unimodular (equal consecutive pivots) and singular
matrices, directly and through every public kernel built on it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dense_gauss_jordan, det_bareiss, mat_mul
from test_exactmath import assert_hnf_shape, column_hnf
from toricmld import exactmath
from toricmld.exactmath import (
    SingularMatrixError,
    _gauss_jordan,
    adjugate,
    det,
    hnf,
    hnf_mod,
    identity,
    invariant_factors,
    inverse,
    rank,
    scaled_inverse,
    snf,
    solve_exact,
)

F = Fraction
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def int_matrices(draw, square=False, max_dim=6, bound=6):
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    entries = st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols)
    m = draw(st.lists(entries, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        m[0][0] = 0  # forces a row swap whenever column 0 has a nonzero entry
    return m


@st.composite
def unimodular(draw, n):
    """A product of random elementary integer row operations."""
    u = identity(n)
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        if i == j:
            u[i] = [-a for a in u[i]]
        elif draw(st.booleans()):
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def rref(m):
    """Reduced row echelon form over Q and its pivot columns (test-side)."""
    a = [[F(x) for x in row] for row in m]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        if len(pivots) == len(a):
            break
    return a, pivots


@PROPERTY
@given(int_matrices(square=True))
def test_adjugate(m):
    n = len(m)
    d = det_bareiss(m)
    if d == 0:
        with pytest.raises(SingularMatrixError):
            adjugate(m)
        return
    adj, got = adjugate(m)
    assert got == d
    assert mat_mul(m, adj) == [[d * (i == j) for j in range(n)] for i in range(n)]
    want = [row[n:] for row in rref([list(row) + identity(n)[i] for i, row in enumerate(m)])[0]]
    assert [[F(x, d) for x in row] for row in adj] == inverse(m) == want


@PROPERTY
@given(st.data())
def test_det(data):
    """``det`` against the Bareiss determinant, on integer and Fraction
    matrices, 0 x 0 included; a dependent last row makes it singular."""
    n = data.draw(st.integers(0, 6))
    entries = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    m = [[F(x) for x in row] for row in data.draw(st.lists(entries, min_size=n, max_size=n))]
    if data.draw(st.booleans()):
        dens = st.lists(st.integers(1, 7), min_size=n, max_size=n)
        m = [[x / d for x, d in zip(row, ds)] for row, ds in zip(m, data.draw(st.lists(dens, min_size=n, max_size=n)))]
    if n >= 2 and data.draw(st.booleans()):
        a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    scales = [math.lcm(*(x.denominator for x in row)) for row in m]  # row i times scales[i] is integral
    want = F(det_bareiss([[int(x * e) for x in row] for row, e in zip(m, scales)]), math.prod(scales))
    assert det(m) == want
    if all(e == 1 for e in scales):
        assert det([[int(x) for x in row] for row in m]) == want


@PROPERTY
@given(int_matrices(square=True), st.lists(st.integers(-9, 9), min_size=6, max_size=6))
def test_solve_exact(m, b):
    n = len(m)
    b = b[:n]
    assume(det_bareiss(m) != 0)
    x = solve_exact(m, b)
    assert [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)] == b


@PROPERTY
@given(int_matrices())
def test_rank(m):
    assert rank(m) == len(rref(m)[1])


@st.composite
def structured_matrices(draw, max_dim=6):
    """Square integer matrices of the shapes the sparse step cares about."""
    n = draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(["block", "sparse", "unimodular", "singular"]))
    entry = st.integers(-5, 5)
    if kind == "block":  # like the cones of a fibration, fiber and base blocks
        m = [[0] * n for _ in range(n)]
        start = 0
        while start < n:
            end = start + draw(st.integers(1, n - start))
            for i in range(start, end):
                m[i][start:end] = draw(st.lists(entry, min_size=end - start, max_size=end - start))
            start = end
        return m
    if kind == "sparse":
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    if kind == "unimodular":  # pivots +-1, so that p = prev often
        return draw(unimodular(n))
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "singular":  # the last row a combination of the others
        a, b = draw(entry), draw(entry)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1 % n])] if n > 1 else [0]
    return m


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularMatrixError as exc:
        return type(exc), str(exc)


@PROPERTY
@given(structured_matrices(), st.lists(st.integers(-9, 9), min_size=6, max_size=6))
def test_gauss_jordan_matches_the_dense_step(m, b):
    n = len(m)
    for a in (
        m,
        [row + identity(n)[i] for i, row in enumerate(m)],  # as adjugate runs it
        [row + [b[i]] for i, row in enumerate(m)],  # as solve_exact runs it
        [list(col) for col in zip(*m)][: max(n - 1, 1)],  # rectangular, as rank may
    ):
        got, want = [list(row) for row in a], [list(row) for row in a]
        assert _gauss_jordan(got) == dense_gauss_jordan(want)
        assert got == want


@PROPERTY
@given(structured_matrices(), st.lists(st.integers(-9, 9), min_size=6, max_size=6), st.integers(1, 6))
def test_kernels_match_the_dense_step(m, b, e):
    n = len(m)
    scaled = [[F(x, e) for x in row] for row in m]
    cases = [
        (adjugate, (m,)),
        (scaled_inverse, (scaled,)),
        (solve_exact, (scaled, b[:n])),
        (rank, (m,)),
        (rank, (scaled[: max(n - 1, 1)],)),
    ]
    for fn, args in cases:
        got = _outcome(fn, *args)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactmath, "_gauss_jordan", dense_gauss_jordan)
            assert got == _outcome(fn, *args), fn.__name__


@PROPERTY
@given(int_matrices())
def test_hnf(m):
    h, u = hnf(m)
    assert abs(det_bareiss(u)) == 1
    assert mat_mul(u, m) == h
    assert_hnf_shape(h)


@PROPERTY
@given(st.data())
def test_hnf_carries_rows_through_its_row_operations(data):
    m = data.draw(int_matrices())
    cols = data.draw(st.integers(1, 4))
    entries = st.lists(st.integers(-6, 6), min_size=cols, max_size=cols)
    extra = data.draw(st.lists(entries, min_size=len(m), max_size=len(m)))
    h, u = hnf(m)
    carried_h, p = hnf(m, [row + x for row, x in zip(m, extra)])
    assert carried_h == h
    # m itself carried gives U m = H, whatever transform U the steps make
    assert p == [a + b for a, b in zip(h, mat_mul(u, extra))]


@PROPERTY
@given(st.data())
def test_snf(data):
    m = data.draw(int_matrices())
    rows, cols = len(m), len(m[0])
    s, u = snf(m)
    assert abs(det_bareiss(u)) == 1
    assert column_hnf(mat_mul(u, m)) == column_hnf(s)
    k = min(rows, cols)
    assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = [s[i][i] for i in range(k)]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):  # the divisibility chain, zeros last
        assert y % x == 0 if x else y == 0
    # unimodular row and column operations keep the invariant factors
    a = data.draw(unimodular(rows))
    b = [list(col) for col in zip(*data.draw(unimodular(cols)))]  # column operations
    assert invariant_factors(mat_mul(mat_mul(a, m), b)) == diag
    if rows == cols:
        assert math.prod(diag) == abs(det_bareiss(m))


@st.composite
def modular_systems(draw, max_dim=6):
    """Integer rows and a modulus D up to 10^6.  Entries are often multiples
    of a divisor of D, so that non-cyclic quotients occur, and a column or
    the first pivot is often zero."""
    d = draw(st.integers(1, max_dim))
    modulus = draw(st.one_of(st.integers(1, 72), st.integers(1, 10**6)))
    divisors = [k for k in range(1, min(modulus, 1000) + 1) if modulus % k == 0]
    entry = st.one_of(
        st.integers(-2 * modulus, 2 * modulus),
        st.builds(lambda k, c: k * c, st.sampled_from(divisors), st.integers(-3, 3)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=4))
    zero = draw(st.sampled_from([None, "pivot", *range(d)]))
    if zero == "pivot":
        rows[0][0] = 0
    elif zero is not None:
        for row in rows:
            row[zero] = 0
    return rows, modulus


@PROPERTY
@given(modular_systems())
def test_hnf_mod_is_the_hermite_form_of_the_rows_plus_d_z_d(system):
    rows, modulus = system
    d = len(rows[0])
    stacked = rows + [[modulus * (i == j) for j in range(d)] for i in range(d)]
    assert hnf_mod(rows, modulus) == hnf(stacked)[0][:d]


def test_hnf_mod_keeps_the_row_that_folding_d_e_c_leaves_over():
    # column 0 folds 6 with 10 into 2 by 2 * 6 - 10 = 2; the leftover row
    # 5 * (6, 1) = (30, 5) gives column 1 its pivot 5, not 10
    assert hnf_mod([[6, 1]], 10) == [[2, 2], [0, 5]]
    assert hnf_mod([[0, 0, 0]], 1) == identity(3)
