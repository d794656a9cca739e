import random
from fractions import Fraction

import pytest

from oracles import det_bareiss, mat_mul, vec_mat
from toricmld.exactmath import (
    SingularMatrixError,
    adjugate,
    det,
    hnf,
    identity,
    invariant_factors,
    inverse,
    iroot_floor,
    rank,
    snf,
    solve_exact,
    xgcd,
)


def assert_hnf_shape(h):
    """Check the row-style Hermite axioms: echelon pivots, positive, reduced above."""
    pivots = []
    last = -1
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            pivots.append(None)
            continue
        assert pivots and pivots[-1] is None or True  # zero rows only at the bottom
        p = nz[0]
        assert p > last, "pivot columns must strictly increase"
        assert row[p] > 0, "pivots must be positive"
        last = p
        pivots.append(p)
    seen_zero = False
    for p in pivots:
        if p is None:
            seen_zero = True
        else:
            assert not seen_zero, "zero rows must sink to the bottom"
    for i, p in enumerate(pivots):
        if p is None:
            continue
        for i2 in range(i):
            assert 0 <= h[i2][p] < h[i][p], "entries above a pivot must be reduced"


def check_hnf(m):
    h, u = hnf(m)
    assert abs(det_bareiss(u)) == 1
    assert mat_mul(u, m) == h
    assert_hnf_shape(h)
    return h, u


def column_hnf(m):
    """The column Hermite form: equal for A and B iff A V = B for a unimodular V."""
    return hnf([list(col) for col in zip(*m)])[0]


def check_snf(m):
    s, u = snf(m)
    assert abs(det_bareiss(u)) == 1
    assert column_hnf(mat_mul(u, m)) == column_hnf(s)
    k = min(len(s), len(s[0]) if s else 0)
    diag = [s[i][i] for i in range(k)]
    for i in range(len(s)):
        for j in range(len(s[0]) if s else 0):
            if i != j:
                assert s[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_xgcd():
    for a, b in [(12, 18), (-5, 7), (0, 0), (0, 9), (4, 0), (-6, -4)]:
        g, x, y = xgcd(a, b)
        assert g == x * a + y * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_identity():
    h, u = check_hnf(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hnf_diagonal_positive():
    h, _ = check_hnf([[2, 0], [0, 2]])
    assert h == [[2, 0], [0, 2]]


def test_hnf_det_two():
    m = [[1, 2], [3, 4]]
    h, _ = check_hnf(m)
    assert abs(det_bareiss(h)) == 2
    assert abs(det_bareiss(m)) == 2


def test_hnf_random_axioms():
    rng = random.Random(11)
    for _ in range(300):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        check_hnf(m)


def test_hnf_preserves_square_det():
    rng = random.Random(12)
    for _ in range(150):
        d = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
        h, _ = check_hnf(m)
        assert abs(det_bareiss(h)) == abs(det_bareiss(m))


def test_hnf_canonical_for_equal_row_lattices():
    # permuting rows or adding one row to another must not change the form
    rng = random.Random(13)
    for _ in range(80):
        d = rng.randint(2, 4)
        m = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        m2 = [row[:] for row in m]
        i, j = rng.sample(range(d), 2)
        m2[i] = [a + 3 * b for a, b in zip(m2[i], m2[j])]
        m2[j], m2[i] = m2[i], m2[j]
        assert hnf(m)[0] == hnf(m2)[0]


def test_snf_golden_diag_1_6():
    # gcd of entries is 1, gcd of 2x2 minors is 6
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]


def test_snf_zero_and_identity():
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert check_snf(identity(2)) == [1, 1]


def test_snf_gcd_oracle():
    # first invariant factor = gcd of all entries; product of the first two =
    # gcd of all 2x2 minors
    import math

    rng = random.Random(14)
    for _ in range(120):
        m = [[rng.randint(-8, 8) for _ in range(3)] for _ in range(3)]
        diag = check_snf(m)
        g1 = math.gcd(*(abs(x) for row in m for x in row))
        assert diag[0] == g1
        minors = []
        for r1 in range(3):
            for r2 in range(r1 + 1, 3):
                for c1 in range(3):
                    for c2 in range(c1 + 1, 3):
                        minors.append(abs(m[r1][c1] * m[r2][c2] - m[r1][c2] * m[r2][c1]))
        g2 = math.gcd(*minors)
        assert diag[0] * diag[1] == g2


def test_snf_product_equals_det():
    import math

    rng = random.Random(15)
    for _ in range(100):
        d = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
        diag = check_snf(m)
        assert math.prod(diag) == abs(det_bareiss(m))


@pytest.mark.parametrize(
    "m, diag",
    [
        # zeros move last, then 2 and 3 fold to 1 | 6, and 4 and 6 to 2 | 12
        ([[2, 0, 0], [0, 0, 0], [0, 0, 3]], [1, 6, 0]),
        ([[0, 0, 0], [0, 4, 0], [0, 0, 6]], [2, 12, 0]),
        ([[0, 0, 0], [0, 0, 0]], [0, 0]),
        ([[0], [0], [0]], [0]),
        ([[4, -6, 10]], [2]),
        ([[0, 0, -5]], [5]),
        ([[4], [-6], [10]], [2]),
        ([[0], [-5]], [5]),
        ([[7]], [7]),
        ([[-7]], [7]),
        ([[]], []),
        ([], []),
    ],
)
def test_snf_edge_shapes(m, diag):
    assert check_snf(m) == diag


def test_invariant_factors():
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[1, 0], [0, 1]]) == [1, 1]


def test_solve_identity():
    x = solve_exact(identity(2), [Fraction(1, 3), Fraction(2, 5)])
    assert x == [Fraction(1, 3), Fraction(2, 5)]


def test_solve_diagonal():
    assert solve_exact([[2, 0], [0, 2]], [1, 1]) == [Fraction(1, 2), Fraction(1, 2)]


def test_solve_roundtrip_random():
    rng = random.Random(16)
    for _ in range(60):
        while True:
            a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)] for _ in range(4)]
            if det(a) != 0:
                break
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
        b = [sum(a[i][j] * x[j] for j in range(4)) for i in range(4)]
        assert solve_exact(a, b) == x


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve_exact([[1, 2], [2, 4]], [1, 1])


def test_inverse_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        while True:
            a = [[Fraction(rng.randint(-6, 6)) for _ in range(3)] for _ in range(3)]
            if det(a) != 0:
                break
        ainv = inverse(a)
        assert mat_mul(a, ainv) == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("m", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1], [2]], [[1, 2]]])
def test_det_and_adjugate_reject_non_square_matrices(m):
    with pytest.raises(ValueError, match="square"):
        det(m)
    with pytest.raises(ValueError, match="square"):
        adjugate(m)


def test_det_of_the_empty_matrix_is_one():
    assert det([]) == 1
    assert adjugate([]) == ([], 1)


def test_det_bareiss_against_fraction_elimination():
    rng = random.Random(18)
    for _ in range(80):
        d = rng.randint(1, 5)
        m = [[rng.randint(-7, 7) for _ in range(d)] for _ in range(d)]
        assert det_bareiss(m) == det(m)


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2, 3], [4, 5, 6]]) == 2


def test_fraction_field_identities():
    # spot-check the arithmetic the whole package leans on
    rng = random.Random(20)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        import math

        assert math.gcd(abs((a + b).numerator), (a + b).denominator) == 1
        assert (a + b).denominator > 0


def test_iroot_floor():
    assert iroot_floor(0, 3) == 0
    assert iroot_floor(7, 1) == 7
    assert iroot_floor(8, 3) == 2
    assert iroot_floor(9, 3) == 2
    assert iroot_floor(26, 3) == 2
    assert iroot_floor(27, 3) == 3
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(0, 10**12)
        k = rng.randint(1, 6)
        r = iroot_floor(n, k)
        assert r**k <= n < (r + 1) ** k


def test_iroot_floor_huge():
    # beyond float range, and far beyond where a float seed is accurate
    assert iroot_floor(10**300, 2) == 10**150
    assert iroot_floor(10**400, 2) == 10**200
    assert iroot_floor(10**400 - 1, 2) == 10**200 - 1
    assert iroot_floor(10**399, 7) == 10**57
    assert iroot_floor(10**399 - 1, 7) == 10**57 - 1
    rng = random.Random(22)
    for _ in range(300):
        k = rng.randint(1, 7)
        r = rng.randint(2, 10 ** rng.randint(1, 120))
        assert iroot_floor(r**k, k) == r
        assert iroot_floor(r**k - 1, k) == r - 1
        assert iroot_floor((r + 1) ** k - 1, k) == r


def test_vec_mat_convention():
    assert vec_mat([1, 2], [[1, 0], [0, 1]]) == [1, 2]
    assert vec_mat([1, 2], [[0, 1], [1, 0]]) == [2, 1]
