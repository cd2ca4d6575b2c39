"""Exact linear algebra over the integers, with rational answers.

Small dense systems only (support systems have at most a handful of
unknowns). Rows are Python ints, and elimination is fraction-free
Gauss-Jordan (Bareiss 1968): every update is an exact integer division
by the previous pivot, so entries stay integers, and the reduced matrix
carries one common denominator on its pivots. Answers are built as one
canonical ``Fraction`` per entry.
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


def rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of an integer matrix.

    Returns (matrix, pivot column indices). Every pivot entry of the
    matrix equals the same nonzero integer d, the other entries of pivot
    columns are zero, and matrix / d is the reduced row echelon form.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        top = mat[r]
        piv = top[c]
        for i in range(nrows):
            if i != r:
                f = mat[i][c]
                # exact: every entry is a minor of the input (Sylvester)
                mat[i] = [(piv * x - f * y) // prev for x, y in zip(mat[i], top)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def solve_affine(a: list[list[int]], b: list[int], n: int) -> AffineSolutionSet:
    """Full solution set of A x = b in n unknowns (integer A given
    row-wise, possibly empty, and integer b)."""
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
    den = mat[0][pivots[0]] if pivots else 1
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = Fraction(mat[r][n], den)
    nullspace = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = Fraction(-mat[r][f], den)
        nullspace.append(vec)
    return AffineSolutionSet(particular=particular, nullspace=nullspace)
