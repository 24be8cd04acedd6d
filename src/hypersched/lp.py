"""Exact linear programming over rationals.

Dense integer-preserving two-phase simplex with Bland's anti-cycling rule,
exact.  Every constraint row is scaled by one common integer so the tableau
holds Python ``int``s over a single common denominator, and each pivot is the
Edmonds/Bareiss fraction-free update (Edmonds, J. Res. NBS 1967; Bareiss,
Math. Comp. 1968), so the pivot loop does no ``Fraction`` arithmetic.  The
reduced costs are kept as an extra tableau row updated by the same pivot.
Inputs and results are ``fractions.Fraction``; an Optimal result satisfies
every constraint exactly, with no tolerance anywhere, and carries one exact
dual value per constraint.  Variables are implicitly nonnegative.

Pivot selection is deterministic (lowest eligible index), so identical inputs
always produce identical assignments.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from fractions import Fraction

from .errors import SolverInvariantError

RELATIONS = ("<=", ">=", "=")

_ZERO = Fraction(0)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _as_fraction(v) -> Fraction:
    """``v`` as a Fraction; one that already is one is kept, not rebuilt."""
    return v if type(v) is Fraction else Fraction(v)


@dataclasses.dataclass(frozen=True)
class LinearProgram:
    """maximize (or minimize) objective . x subject to the constraint rows.

    Each constraint is ``(coefficients, relation, rhs)`` with relation one of
    ``<=``, ``>=``, ``=``.
    """

    num_vars: int
    objective: tuple
    constraints: tuple = ()

    def __post_init__(self):
        obj = tuple(map(_as_fraction, self.objective))
        if len(obj) != self.num_vars:
            raise ValueError(f"objective has {len(obj)} entries, expected {self.num_vars}")
        rows = []
        for coeffs, rel, rhs in self.constraints:
            row = tuple(map(_as_fraction, coeffs))
            if len(row) != self.num_vars:
                raise ValueError(f"constraint row has {len(row)} entries, expected {self.num_vars}")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            rows.append((row, rel, _as_fraction(rhs)))
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))


@dataclasses.dataclass(frozen=True)
class LpSolution:
    """``duals`` (Optimal only) has one exact value per constraint, in the
    caller's order, sign and sense: ``sum(duals[i] * rhs_i) == value``, and
    for every variable ``j`` the column sum ``sum(duals[i] * a_ij)`` is at
    least (max) or at most (min) ``objective[j]``."""

    status: LpStatus
    value: Fraction | None = None
    assignment: tuple | None = None
    duals: tuple | None = None


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
