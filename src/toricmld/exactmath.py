"""Exact integer and rational linear algebra.

Everything in this package computes over Python ints (arbitrary precision)
and ``fractions.Fraction``; no floats enter any core computation.  Matrices
are plain lists of row lists, vectors are sequences.  Row convention: a
lattice point with coordinates ``c`` relative to basis rows ``B`` is the
row-vector product c B = sum_i c[i] B[i].

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


class SingularMatrixError(ValueError):
    """Square system has no unique solution (determinant zero)."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = gcd(a, b) = x*a + y*b, g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def as_fractions(v: Sequence) -> tuple[Fraction, ...]:
    """v as a tuple of Fractions, keeping the entries that already are."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _require_square(m, what: str) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"{what} needs a square matrix")
    return n


def det(m) -> Fraction:
    """Determinant of a square matrix with Fraction (or int) entries: the
    signed last pivot of the fraction-free Gauss-Jordan, over e^n."""
    n = _require_square(m, "det")
    a, e = _integral(m)
    pivots, sign = _gauss_jordan(a)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * a[n - 1][n - 1], e**n) if n else Fraction(1)


def _integral(m) -> tuple[list[list[int]], int]:
    """(A, e): integers with m = A / e, e the lcm of the denominators of m."""
    e = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (e // x.denominator) for x in row] for row in m], e


def _least_terms(rows: Sequence[Sequence[int]], denom: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(A, e) with rows / denom = A / e and e > 0 least, for integer rows:
    both divided by the gcd of denom and every entry."""
    g = math.gcd(denom, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), denom // g


def _gauss_jordan(a: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan of an integer matrix, in place.

    Returns the pivot columns and the sign of the row permutation.  Every
    division is exact, so entries stay integers the size of minors of the
    input.  At the end each pivot row has the last pivot p in its own pivot
    column and 0 in the others, so its reduced row echelon row is row / p.
    A row that is already 0 in the pivot column is only rescaled by p / prev,
    and left alone when p = prev, which gives the same integers as the full
    step: block-diagonal and identity-augmented inputs skip most products.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        p, row_r = a[r][c], a[r]
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row_r)]
            elif not f and p != prev:
                a[i] = [p * x // prev for x in a[i]]
        prev = p
        pivots.append(c)
    return pivots, sign


def _require_nonsingular(pivots: list[int], n: int) -> None:
    # pivots increase, so the left n x n block is invertible iff they start 0..n-1
    if pivots[:n] != list(range(n)):
        c = next(c for c in range(n) if c not in pivots)
        raise SingularMatrixError(f"matrix is singular at column {c}")


def rank(m) -> int:
    """Exact rank of a rectangular matrix over the rationals."""
    return len(_gauss_jordan(_integral(m)[0])[0])


def _gcd_step(r, s, x, y, p, q) -> tuple[list[int], list[int]]:
    """Rows (x r + y s, p s - q r): unimodular when x p + y q = 1, as for
    g = xgcd(a, b) = x a + y b, p = a / g and q = b / g."""
    return [x * a + y * b for a, b in zip(r, s)], [p * b - q * a for a, b in zip(r, s)]


def hnf(
    m: Sequence[Sequence[int]], carry: Optional[Sequence[Sequence[int]]] = None
) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form.

    Returns (H, P) with H = U @ m, U unimodular, and P = U @ carry: the rows
    of ``carry`` (one per row of m) taken through the same row operations.
    With no ``carry`` they are the identity's, so P is U itself.  Convention:
    pivots are positive and strictly to the right of the pivot in the row
    above, entries above each pivot are reduced into [0, pivot), zero rows
    sink to the bottom.  With this convention H is the unique canonical form
    of the row lattice of m.
    """
    h = [list(row) for row in m]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity(rows) if carry is None else [list(row) for row in carry]
    r = 0
    for c in range(cols):
        # gcd out column c below row r using unimodular row ops
        for i in range(r + 1, rows):
            if h[i][c] == 0:
                continue
            if h[r][c] == 0:
                h[r], h[i] = h[i], h[r]
                u[r], u[i] = u[i], u[r]
                continue
            g, x, y = xgcd(h[r][c], h[i][c])
            p, q = h[r][c] // g, h[i][c] // g
            h[r], h[i] = _gcd_step(h[r], h[i], x, y, p, q)
            u[r], u[i] = _gcd_step(u[r], u[i], x, y, p, q)
        if h[r][c] == 0:
            continue
        if h[r][c] < 0:
            h[r] = [-a for a in h[r]]
            u[r] = [-a for a in u[r]]
        for i in range(r):  # reduce entries above the pivot into [0, pivot)
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
        r += 1
        if r == rows:
            break
    return h, u


def hnf_mod(rows: Sequence[Sequence[int]], modulus: int) -> list[list[int]]:
    """The d x d Hermite rows, in ``hnf``'s convention, of span(rows) + modulus Z^d.

    The Hermite form modulo D (Domich, Kannan and Trotter, Math. Oper. Res.
    12, 1987; Cohen, Alg. 2.4.8): no transform, and every entry is reduced
    mod D, since D e_j lies in the lattice.  Column c's pivot row starts as
    D e_c and folds in each row with a nonzero entry c by one unimodular
    step; the step's other row, zero at c, stays in the working set.  The
    first fold needs no extended gcd: D e_c vanishes mod D, so with
    g = gcd(D, a) for the row's entry a and y the inverse of a / g mod D / g,
    the pivot row becomes y row, whose entry c is g, and the row (D / g) row.
    """
    d = len(rows[0])
    work = [[x % modulus for x in row] for row in rows]
    h = []
    for c in range(d):
        p, rest = None, []
        for row in work:
            a = row[c]
            if a and p is None:
                g = math.gcd(modulus, a)
                y = pow(a // g, -1, modulus // g)
                p = [y * b % modulus for b in row]
                row = [modulus // g * b % modulus for b in row]
            elif a:  # p_c becomes gcd(p_c, row_c) < D and row_c becomes 0
                g, x, y = xgcd(p[c], row[c])
                s, t = p[c] // g, row[c] // g
                p, row = (
                    [(x * a + y * b) % modulus for a, b in zip(p, row)],
                    [(s * b - t * a) % modulus for a, b in zip(p, row)],
                )
            if any(row):
                rest.append(row)
        h.append([modulus * (j == c) for j in range(d)] if p is None else p)
        work = rest
    for c in range(d):  # reduce the entries above each pivot into [0, pivot)
        for i in range(c):
            q = h[i][c] // h[c][c]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[c])]
    return h


def snf(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix, built on ``hnf``.

    Returns (S, U) with U unimodular and S = U @ m @ V for some unimodular V,
    S diagonal with nonnegative entries s_1 | s_2 | ..., zeros last.  S is
    canonical; U is a valid transform but not canonical.  Row and column
    Hermite forms alternate until S is diagonal (Kannan and Bachem, SIAM J.
    Comput. 8, 1979), each row form carrying U through its row operations,
    then one unimodular gcd step per pair of diagonal entries makes the
    diagonal a divisibility chain.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    s, u = [list(row) for row in m], identity(rows)
    while rows and cols:  # the transposes below need both
        s, u = hnf(s, u)
        s, _ = hnf([list(col) for col in zip(*s)])
        s = [list(col) for col in zip(*s)]
        if all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j):
            break
    k = min(rows, cols)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = s[i][i], s[j][j]
            if a == 0 or b % a == 0:
                continue
            g, x, y = xgcd(a, b)
            p, q = a // g, b // g
            u[i], u[j] = _gcd_step(u[i], u[j], x, y, p, q)
            s[i][i], s[j][j] = g, a * q
    return s, u


def invariant_factors(m: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith form, without trailing zeros beyond min(shape)."""
    s, _ = snf(m)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def solve_exact(a, b: Sequence) -> list[Fraction]:
    """Solve A x = b exactly for square nonsingular A (column convention).

    Raises SingularMatrixError when det(A) = 0.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_exact needs a square system")
    rows = _integral([list(row) + [b[i]] for i, row in enumerate(a)])[0]
    _require_nonsingular(_gauss_jordan(rows)[0], n)
    return [Fraction(row[n], row[i]) for i, row in enumerate(rows)]


def adjugate(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(adj, det) of a square nonsingular integer matrix: m @ adj = det * I.

    Fraction-free Gauss-Jordan on [m | I] leaves [p I | p inverse(m)], where p
    is det(m) up to the sign of the row swaps.  Raises SingularMatrixError
    when det(m) = 0.
    """
    n = _require_square(m, "adjugate")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    pivots, sign = _gauss_jordan(a)
    _require_nonsingular(pivots, n)
    p = a[n - 1][n - 1] if n else 1
    return [[sign * x for x in row[n:]] for row in a], sign * p


def scaled_inverse(a) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(K, q): integers with inverse(a) = K / q, q > 0 the least such."""
    return _scaled_inverse(*_integral(a))


def _scaled_inverse(a: Sequence[Sequence[int]], e: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``scaled_inverse`` of A / e for an integer matrix A and any e > 0:
    inverse(A / e) = e adj(A) / det(A), reduced to lowest terms."""
    adj, d = adjugate(a)
    g = math.gcd(d, *(e * x for row in adj for x in row))
    if d < 0:
        g = -g
    return tuple(tuple(e * x // g for x in row) for row in adj), d // g


def inverse(a) -> list[list[Fraction]]:
    """Exact inverse of a square nonsingular matrix."""
    k, q = scaled_inverse(a)
    return [[Fraction(x, q) for x in row] for row in k]


def lll(rows: Sequence[Sequence[int]], carry: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """LLL-reduced basis (delta = 3/4) of the lattice of independent integer
    rows: Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7), on the Gram determinants d[i] of the first i rows
    and lam[k][j] = d[j + 1] mu_kj, all integers with exact divisions.

    Returns (B, P): the reduced rows B = U rows, and the rows of ``carry``
    (one per row) taken through the contragredient steps, P = U^-T carry:
    b_k -= q b_j comes with p_j += q p_k, and a swap of b_k and b_(k-1) with
    the same swap of p.  So P^T B = carry^T rows, and rows dual to ``rows``
    (<p_i, b_j> = D [i == j]) stay dual to the reduced ones.
    """
    b = [list(row) for row in rows]
    p = [list(row) for row in carry]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, j: int) -> None:
        if 2 * abs(lam[k][j]) > d[j + 1]:
            q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])  # nearest integer
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            p[j] = [x + q * y for x, y in zip(p[j], p[k])]
            lam[k][j] -= q * d[j + 1]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]

    k, k_max = 0, -1
    while k < n:
        if k > k_max:  # incremental Gram-Schmidt of row k
            k_max = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                lam[k][j] = u  # at j = k: d[k + 1]
            d[k + 1] = lam[k][k]
            if d[k + 1] == 0:
                raise ValueError("lll needs linearly independent rows")
        if k:
            reduce(k, k - 1)
        if k and 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:  # Lovasz fails: swap
            b[k], b[k - 1] = b[k - 1], b[k]
            p[k], p[k - 1] = p[k - 1], p[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            lk = lam[k][k - 1]
            new = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, k_max + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (new * t + lk * lam[i][k]) // d[k + 1]
            d[k] = new
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return b, p


def iroot_floor(n: int, k: int) -> int:
    """Largest integer r with r**k <= n, for n >= 0, k >= 1."""
    if n < 0 or k < 1:
        raise ValueError("iroot_floor needs n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    # integer Newton from a power of two at or above the root: the iterates
    # decrease strictly until the first one that does not, which is the root
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s
