"""Reference oracle for the exact simplex: the dense Bareiss tableau.

This is the integer-preserving two-phase simplex that stores the whole
tableau (one row per constraint plus the reduced-cost row, every column) and
updates all of it on each pivot.  ``hypersched.lp`` keeps only
``d * B^-1`` and prices columns on demand; the differential tests require
both to make the same pivots and return the same ``LpSolution``.  It is a
test oracle, not a second solver path.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypersched.errors import SolverInvariantError
from hypersched.lp import LinearProgram, LpSolution, LpStatus

_ZERO = Fraction(0)


def _common_denominator(values) -> int:
    return math.lcm(1, *(v.denominator for v in values))


def _pivot(T, basis, d, row, col):
    """Pivot the integer tableau ``T / d`` on ``T[row][col]``; returns the new
    common denominator, which is always positive.

    Every other row ``i`` becomes ``(p * T[i] - T[i][col] * T[row]) / d`` with
    ``p = T[row][col]``, and ``p`` becomes the denominator.  The division is
    exact because every entry is a minor of the starting tableau, whose basis
    is the identity (Bareiss).
    """
    p = T[row][col]
    prow = T[row]
    for i, r in enumerate(T):
        if i == row:
            continue
        f = r[col]
        if f:
            T[i] = [(p * a - f * q) // d for a, q in zip(r, prow)]
        elif p != d:
            T[i] = [p * a // d for a in r]
    basis[row] = col
    if p < 0:
        for i, r in enumerate(T):
            T[i] = [-a for a in r]
        p = -p
    return p


def _run_simplex(T, basis, d, ncols):
    """Maximize on the tableau in place.

    ``T`` holds one row per basis entry, then the reduced-cost row; the last
    column is the right-hand side.  Only columns below ``ncols`` may enter.
    Returns ``("optimal" | "unbounded", d)``.
    """
    m = len(basis)
    while True:
        z = T[m]
        enter = next((j for j in range(ncols) if z[j] < 0), -1)
        if enter < 0:
            return "optimal", d
        leave = -1
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                b = T[i][-1]
                # b / a against lb / la, both over the common denominator.
                if leave < 0 or b * la < lb * a or (b * la == lb * a and basis[i] < basis[leave]):
                    leave, la, lb = i, a, b
        if leave < 0:
            return "unbounded", d
        d = _pivot(T, basis, d, leave, enter)


def solve_lp(lp: LinearProgram, sense: str = "max") -> LpSolution:
    """Solve ``lp`` exactly.  ``sense`` is ``"max"`` or ``"min"``."""
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    # A min problem is solved as the max of the negated objective.
    flip = 1 if sense == "max" else -1
    n = lp.num_vars
    rows = []
    dual_sign = []  # -1 where a row was negated, times its slack's sign
    for coeffs, rel, rhs in lp.constraints:
        sign = 1
        if rhs < 0:
            coeffs = [-a for a in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
            sign = -1
        rows.append((coeffs, rel, rhs))
        dual_sign.append(sign)

    # One common scale for every row: per-row scales would weigh the
    # phase-1 artificials differently and change the pivot sequence.
    scale = _common_denominator(v for coeffs, _, rhs in rows for v in (*coeffs, rhs))
    m = len(rows)
    art_start = n + sum(1 for _, rel, _ in rows if rel != "=")
    ncols = art_start + sum(1 for _, rel, _ in rows if rel != "<=")
    T = []
    basis = [-1] * m
    dual_col = [0] * m  # column whose reduced cost reads the row's dual
    slack = n
    art = art_start
    for i, (coeffs, rel, rhs) in enumerate(rows):
        row = [a.numerator * (scale // a.denominator) for a in coeffs]
        row += [0] * (ncols - n)
        row.append(rhs.numerator * (scale // rhs.denominator))
        if rel != "=":
            row[slack] = 1 if rel == "<=" else -1
            dual_col[i] = slack
            dual_sign[i] *= row[slack]
            slack += 1
        if rel == "<=":
            basis[i] = dual_col[i]
        else:
            row[art] = 1
            basis[i] = art
            if rel == "=":
                dual_col[i] = art
            art += 1
        T.append(row)

    d = 1
    keep = list(range(m))
    if ncols > art_start:
        # Phase 1: maximize -(sum of artificials); its reduced costs are
        # minus the column sums over the artificial rows, plus 1 on the
        # (basic) artificial columns themselves.
        z = [0] * (ncols + 1)
        for i in range(m):
            if basis[i] >= art_start:
                z = [s - a for s, a in zip(z, T[i])]
        for j in range(art_start, ncols):
            z[j] += 1
        T.append(z)
        status, d = _run_simplex(T, basis, d, ncols)
        if status != "optimal":
            raise SolverInvariantError(
                f"phase 1 reported {status!r}; its objective is bounded above by 0"
            )
        T.pop()
        if sum(T[i][-1] for i in range(m) if basis[i] >= art_start) != 0:
            return LpSolution(LpStatus.INFEASIBLE)
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] >= art_start:
                col = next((j for j in range(art_start) if T[i][j] != 0), None)
                if col is None:
                    continue  # all-zero row: redundant constraint
                d = _pivot(T, basis, d, i, col)
            keep.append(i)
        # Artificial columns stay only for the kept equality rows, as
        # never-entering columns that carry those rows' duals.
        eq_rows = [i for i in keep if rows[i][1] == "="]
        cols = list(range(art_start)) + [dual_col[i] for i in eq_rows] + [ncols]
        for k, i in enumerate(eq_rows):
            dual_col[i] = art_start + k
        T = [[T[i][j] for j in cols] for i in keep]
        basis = [basis[i] for i in keep]

    # Phase 2 reduced-cost row, scaled by d and the objective's denominator.
    obj_scale = _common_denominator(lp.objective)
    c = [flip * a.numerator * (obj_scale // a.denominator) for a in lp.objective]
    z = [0] * (len(T[0]) if T else art_start + 1)
    for i, bi in enumerate(basis):
        if bi < n and c[bi]:
            z = [s + c[bi] * a for s, a in zip(z, T[i])]
    for j in range(n):
        z[j] -= c[j] * d
    T.append(z)
    status, d = _run_simplex(T, basis, d, art_start)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)

    x = [_ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(T[i][-1], d)
    value = sum((lp.objective[j] * x[j] for j in range(n)), _ZERO)
    z = T[-1]
    duals = [_ZERO] * m
    for i in keep:
        duals[i] = Fraction(flip * dual_sign[i] * scale * z[dual_col[i]], d * obj_scale)
    return LpSolution(LpStatus.OPTIMAL, value, tuple(x), tuple(duals))
