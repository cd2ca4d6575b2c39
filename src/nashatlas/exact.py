"""Exact linear algebra and linear programming over the integers, with
rational answers.

Small dense systems only (at most a handful of unknowns), each one list
of Python int rows [A | b], right-hand side last. A two-player support
block reaches solve_affine in face coordinates, chart (0, ..., 0),
without its sum rule: |O| - 1 slope rows over the |S| - 1 weights on
supp[1:]. Only max_min_point takes a whole block, sum row included.
Every pivot is fraction-free (Bareiss 1968): the update is an exact
integer division by the previous pivot, so entries stay integers (each
one a minor). The first pivot's previous pivot is 1, and a division by
1 is skipped. rref runs forward elimination with it, each pivot
updating only the rows below it, in the columns right of it, and stops
at a pivot in the last column (b), right of which nothing is left; it
replaces rows and never edits an input row (a support block's rows are
the game's face-table lists, shared by every support that reads them),
and copies the caller's list of rows only to swap two of them.
solve_affine reads the last pivot d of that echelon form and
back-substitutes b alone, free unknowns 0: the last pivot row's b entry
already is d x, and every earlier entry of d x is an exact division
(Cramer). It reports an AffineSolutionSet: one particular solution as
integer numerators over one positive denominator, and the number of
free unknowns, which is all a support block needs, and one shared
answer for every inconsistent system. max_min_point runs a two-phase
simplex method with Bland's rule on _eliminate, the same pivot in
Gauss-Jordan form (integer pivoting, as in Avis's lrs), and answers in
integer numerators over its final denominator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass
class AffineSolutionSet:
    """Solution set of A x = b over the rationals.

    One solution is ``nums`` over ``den``: integer numerators (None when
    the system is inconsistent) over one positive integer denominator.
    ``free`` is the number of non-pivot unknowns, the dimension of the
    set when it is nonempty. No basis of the homogeneous solutions is
    built: a support block only asks for none, one or many.
    """

    nums: list[int] | None
    den: int
    free: int

    @property
    def is_unique(self) -> bool:
        return self.nums is not None and not self.free


def _eliminate(mat: list[list[int]], r: int, c: int, prev: int) -> None:
    """The simplex's fraction-free Gauss-Jordan pivot on mat[r][c]
    (max_min_point, _bland): replace every other row of mat by one with
    column c cleared, editing no row. The division by the previous pivot
    ``prev`` is exact: every entry stays a minor (Sylvester). When
    ``prev`` is 1, as it is for the first pivot, the division is
    skipped."""
    top = mat[r]
    piv = top[c]
    for i, row in enumerate(mat):
        if i != r:
            f = row[c]
            if prev == 1:
                mat[i] = [piv * x - f * y for x, y in zip(row, top)]
            else:
                mat[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]


# rref keeps its name, though it stops at row echelon form: bench/spans.py
# traces it under this name
def rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of integer rows, such as a system's
    [A | b], which it never edits (the result may share them), nor their
    list, which it copies only to swap two rows: Bareiss forward
    elimination.

    Returns (pivot rows, pivot column indices): one row per pivot, from
    its pivot column on, so row r starts with its nonzero pivot at column
    pivots[r]; rows without a pivot are left out. Each column's pivot row
    is the first row below the earlier pivot rows with a nonzero entry
    there, swapped with the first of them. A pivot in the last column
    ends the elimination: the rows below it would be updated in no column.
    Row r's entries are minors of order r + 1 (Sylvester), and the last
    pivot d is the determinant of the pivot rows in the pivot columns.
    """
    if not rows:
        return [], []
    echelon: list[list[int]] = []
    pivots: list[int] = []
    rest = rows  # the rows not yet pivot rows, each from column start on
    start = 0
    prev = 1
    last = len(rows[0]) - 1
    for c in range(last + 1):
        k = c - start
        top = rest[0]
        if not top[k]:
            for i, row in enumerate(rest):
                if row[k]:
                    break
            else:
                continue
            top = rest[i]
            if rest is rows:  # the caller's list: copy it before the swap
                rest = list(rows)
            rest[i] = rest[0]
        echelon.append(top[k:] if k else top)
        pivots.append(c)
        if c == last or len(rest) == 1:
            break
        piv, tail = top[k], top[k + 1:]
        below = []
        for row in rest[1:]:
            f, after = row[k], row[k + 1:]
            if prev == 1:
                below.append([piv * x - f * y for x, y in zip(after, tail)])
            else:
                below.append([(piv * x - f * y) // prev for x, y in zip(after, tail)])
        rest, start, prev = below, c + 1, piv
    return echelon, pivots


#: The one answer of every inconsistent system, shared and never edited.
_INCONSISTENT = AffineSolutionSet(nums=None, den=1, free=0)


def solve_affine(rows: list[list[int]], n: int) -> AffineSolutionSet:
    """Solution set of A x = b in n unknowns, given as the integer rows
    [A | b] (possibly none); _INCONSISTENT when there is none.

    The particular solution, free unknowns 0, is |d| x over |d|, d the
    last pivot of rref (Cramer: d x is an integer vector). It is b
    back-substituted alone: the last pivot row's b entry is d x at its
    pivot, and row r gives d x at pivots[r] as (d b_r - the sum of its
    later entries times d x) / d_r, an exact division.
    """
    echelon, pivots = rref(rows)
    if not pivots:
        return AffineSolutionSet(nums=[0] * n, den=1, free=n)
    if pivots[-1] == n:  # pivot columns ascend; b is column n
        return _INCONSISTENT
    d = echelon[-1][0]
    nums = [0] * n
    nums[pivots[-1]] = echelon[-1][-1]
    for r in range(len(pivots) - 2, -1, -1):
        row, c = echelon[r], pivots[r]
        nums[c] = (d * row[-1] - sum(map(operator.mul, row[1:-1], nums[c + 1:]))) // row[0]
    free = n - len(pivots)
    if d < 0:  # a pivot may be negative; keep den > 0
        return AffineSolutionSet(nums=[-x for x in nums], den=-d, free=free)
    return AffineSolutionSet(nums=nums, den=d, free=free)


def max_min_point(rows: list[list[int]]) -> tuple[int, list[int], int] | None:
    """The largest t with A w = b, given as integer rows [A | b], and every
    w_j >= t >= 0, and a point w attaining it, as (t d, w d, d) over one
    positive d; None when A w = b has no nonnegative solution.

    Exact two-phase simplex on w = s + t * 1 over the unknowns
    (s, t) >= 0. It needs b >= 0 and a bounded t; a row of ones (a sum
    rule) bounds t by its right-hand side over n. Phase 1 starts from one
    artificial unknown per row and minimises their sum; artificials left
    basic at zero are pivoted out, or their rows dropped as redundant.
    Phase 2 maximises t from that feasible basis. Bland's rule keeps the
    degenerate pivots of tied systems from cycling. Pivots are Bareiss's
    fraction-free Gauss-Jordan steps (_eliminate), over one positive
    common denominator, the answer's d.
    """
    n, m = len(rows[0]) - 1, len(rows)
    # columns: s_0 .. s_{n-1}, t, one artificial per row, right-hand side
    tab = [row[:n] + [sum(row[:n])] + [int(i == k) for k in range(m)] + row[n:]
           for i, row in enumerate(rows)]
    basis = list(range(n + 1, n + 1 + m))
    # phase 1 maximises -sum(artificials): its reduced costs in that basis
    cost = [-sum(col) for col in zip(*tab)]
    cost[n + 1:-1] = [0] * m
    tab.append(cost)
    d = _bland(tab, basis, 1, n + 1)
    if tab.pop()[-1]:
        return None
    keep = []
    for i, var in enumerate(basis):
        if var > n:
            c = next((j for j in range(n + 1) if tab[i][j]), None)
            if c is None:  # a redundant row
                continue
            _eliminate(tab, i, c, d)
            basis[i], d = c, tab[i][c]
            if d < 0:  # a degenerate pivot may be negative; T / d is unchanged
                tab, d = [[-x for x in row] for row in tab], -d
        keep.append(i)
    tab = [tab[i][:n + 1] + tab[i][-1:] for i in keep]
    basis = [basis[i] for i in keep]
    # phase 2 maximises t, not yet basic: its column sums the s columns, so s pivots first
    tab.append([0] * n + [-d, 0])
    d = _bland(tab, basis, d, n + 1)
    value = [0] * (n + 1)
    for i, var in enumerate(basis):
        value[var] = tab[i][-1]
    t = value[n]
    return t, [v + t for v in value[:n]], d


def _bland(tab: list[list[int]], basis: list[int], d: int, ncols: int) -> int:
    """Pivot the tableau (constraint rows over the common denominator
    d > 0, then the reduced-cost row) to an optimum, in place, and return
    the final denominator. Bland's rule: the lowest column below ncols
    with a negative reduced cost enters, and ratio-test ties leave by
    the lowest basic unknown. Pivots are positive, so d stays positive."""
    rows = range(len(tab) - 1)
    while True:
        c = next((j for j in range(ncols) if tab[-1][j] < 0), None)
        if c is None:
            return d
        r = None
        for i in rows:
            x = tab[i][c]
            if x > 0:
                if r is None:
                    r = i
                    continue
                lhs, rhs = tab[i][-1] * tab[r][c], tab[r][-1] * x
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r = i
        if r is None:
            raise ValueError("unbounded linear program")
        _eliminate(tab, r, c, d)
        basis[r], d = c, tab[r][c]
