"""Exact-rational cross-validation of the flex ladder.

Three corpus frameworks have rational coordinates and a vertex pair lying on
a coordinate axis, so they can be put in pinned position by a rational
isometry (translation plus axis swap at most).  For those, the whole ladder
runs in exact Fraction arithmetic: the rigidity matrix is rational, its
kernel is computed by exact elimination, each level's solvability is an
exact rank comparison, and the next coefficient is the exact solution with
its kernel component removed.  The first unsolvable level is then a
certified integer, independent of every floating-point choice in the
library, and must agree with the floating ladder.
"""

from fractions import Fraction

import math

import pytest

from rigidkit import (
    kernel_decomposition,
    load_corpus,
    permute_framework,
    pin_with_permutation,
    rigidity_matrix,
    solve_ladder,
)


def rref(matrix):
    """In-place reduced row echelon form over Fractions; returns pivot cols."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if matrix[i][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = Fraction(1) / matrix[r][c]
        matrix[r] = [v * inv for v in matrix[r]]
        for i in range(rows):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def solve_exact(A, b):
    """One exact solution of A x = b, or None when inconsistent."""
    aug = [row[:] + [bi] for row, bi in zip(A, b)]
    pivots = rref(aug)
    n = len(A[0])
    if n in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = aug[r][n]
    return x


def kernel_1d(A):
    """The kernel of A, required to be exactly 1-dimensional."""
    mat = [row[:] for row in A]
    pivots = rref(mat)
    n = len(A[0])
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1, f"exact nullity is {len(free)}, not 1"
    fc = free[0]
    vec = [Fraction(0)] * n
    vec[fc] = Fraction(1)
    for r, c in enumerate(pivots):
        vec[c] = -mat[r][fc]
    return vec


def exact_ladder_order(verts, edges, max_k=12):
    """First level of the flex system with no exact solution.

    verts are Fraction pairs already in pinned position (vertex 0 at the
    origin, vertex 1 on the positive x-axis).  Levels are solved in the
    derivative convention with the solution's kernel component removed,
    mirroring the library's minimum-norm choice exactly.
    """
    n = len(verts)
    free = [(v, a) for v in range(n) for a in range(2) if not (v == 0 or (v == 1 and a == 1))]
    col = {fc: i for i, fc in enumerate(free)}

    def embed(x):
        full = [[Fraction(0), Fraction(0)] for _ in range(n)]
        for (v, a), i in col.items():
            full[v][a] = x[i]
        return full

    R = []
    for v, w in edges:
        row = [Fraction(0)] * len(free)
        for a in range(2):
            diff = verts[v][a] - verts[w][a]
            if (v, a) in col:
                row[col[(v, a)]] = diff
            if (w, a) in col:
                row[col[(w, a)]] = -diff
        R.append(row)

    p1 = kernel_1d(R)
    dot11 = sum(x * x for x in p1)
    derivs = [p1]
    for level in range(2, max_k + 1):
        fulls = [embed(d) for d in derivs]
        rhs = []
        for (v, w) in edges:
            acc = Fraction(0)
            for a_idx in range(1, level):
                ca = Fraction(math.comb(level, a_idx))
                da = fulls[a_idx - 1]
                db = fulls[level - a_idx - 1]
                acc += ca * sum(
                    (da[v][ax] - da[w][ax]) * (db[v][ax] - db[w][ax]) for ax in range(2)
                )
            rhs.append(-acc / 2)
        x = solve_exact(R, rhs)
        if x is None:
            return level
        # remove the kernel component: the unique solution in the orthogonal
        # complement of p1, matching the minimum-norm float solution
        proj = sum(a * b for a, b in zip(x, p1)) / dot11
        derivs.append([a - proj * b for a, b in zip(x, p1)])
    return None


def _rational_pinned(name, leading_pair):
    """Relabel so leading_pair comes first, then pin by the rational isometry
    (translation; axis swap when the pair is vertical)."""
    fw = load_corpus(name)
    rest = [v for v in range(fw.n_vertices) if v not in leading_pair]
    perm = list(leading_pair) + rest
    pfw = permute_framework(fw, perm)
    verts = [[Fraction(x).limit_denominator(10**6) for x in row] for row in pfw.vertices]
    origin = verts[0][:]
    verts = [[a - o for a, o in zip(row, origin)] for row in verts]
    if verts[1][0] == 0:
        # vertical leading edge: rotate (x, y) -> (y, -x)
        verts = [[row[1], -row[0]] for row in verts]
    if verts[1][0] < 0:
        verts = [[-row[0], -row[1]] for row in verts]
    assert verts[0] == [0, 0] and verts[1][1] == 0 and verts[1][0] > 0
    return verts, list(pfw.edges)


CASES = [
    # leading pair on an axis with rational coordinates
    ("half_flat_prism", (4, 5), 4),
    ("flipped_prism", (4, 5), 4),
    ("leonardo3", (0, 3), 8),
]


@pytest.mark.parametrize("name,pair,expected", CASES)
def test_exact_rational_ladder_certifies_order(name, pair, expected):
    verts, edges = _rational_pinned(name, pair)
    assert exact_ladder_order(verts, edges) == expected


@pytest.mark.parametrize("name,pair,expected", CASES)
def test_exact_and_float_ladders_agree(name, pair, expected):
    fw = load_corpus(name)
    pf, _, _ = pin_with_permutation(fw)
    rep = solve_ladder(pf, kernel_decomposition(rigidity_matrix(pf)))
    assert rep.verdict == "order" and rep.order == expected


def test_exact_ladder_sees_square_mechanism():
    verts = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)],
             [Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert exact_ladder_order(verts, edges, max_k=8) is None
