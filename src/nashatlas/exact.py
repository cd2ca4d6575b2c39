"""Exact linear algebra over the rationals.

Small dense systems only (support systems have at most a handful of
unknowns), so plain fraction-free-ish Gauss-Jordan on ``Fraction``
entries is fast enough and gives exact answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass
class AffineSolutionSet:
    """Solution set of A x = b over the rationals.

    ``particular`` is one solution (None when the system is inconsistent);
    ``nullspace`` is a basis of the homogeneous solution space, so the full
    set is ``particular + span(nullspace)``.
    """

    particular: list[Fraction] | None
    nullspace: list[list[Fraction]]

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def is_unique(self) -> bool:
        return self.particular is not None and not self.nullspace

    @property
    def dimension(self) -> int:
        return -1 if self.particular is None else len(self.nullspace)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1, 1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def solve_affine(a: list[list[Fraction]], b: list[Fraction], n: int) -> AffineSolutionSet:
    """Full solution set of A x = b in n unknowns (A given row-wise, possibly empty)."""
    if not a:
        basis = []
        for f in range(n):
            vec = [Fraction(0)] * n
            vec[f] = Fraction(1)
            basis.append(vec)
        return AffineSolutionSet(particular=[Fraction(0)] * n, nullspace=basis)
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    mat, pivots = rref(aug)
    if n in pivots:
        return AffineSolutionSet(particular=None, nullspace=[])
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = mat[r][n]
    nullspace = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -mat[r][f]
        nullspace.append(vec)
    return AffineSolutionSet(particular=particular, nullspace=nullspace)
