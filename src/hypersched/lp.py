"""Exact linear programming over rationals.

Revised integer-preserving two-phase simplex with Bland's anti-cycling rule,
exact.  ``solve_lp`` takes a ``LinearProgram`` (dense rows) or a
``CoveringProgram`` (minimize the sum of x over set columns given as row
lists, each row covered to its demand; the fractional chromatic number's
LP).  Either is scaled to integers by one common factor for every row, so
the constraint matrix becomes sparse integer columns, and handed to the
integer core ``_solve_columns``.  A covering column is built straight from
its row list with the value 1, and priced as a plain sum.

The core keeps no tableau: it keeps ``R = d * B^-1`` (``B`` the basis matrix,
``d`` the common denominator), the scaled basic solution, and the pricing
vector ``u = c_B * R`` with its objective entry.  Any other tableau entry is
computed when it is needed, as ``R[i] . A_j``; it is a minor of the starting
system (Cramer's rule), so it is an exact integer.  Each pivot is the
Edmonds/Bareiss fraction-free update (Edmonds, J. Res. NBS 1967; Bareiss,
Math. Comp. 1968) of those (m + 1) x (m + 1) integers; the core does no
``Fraction`` arithmetic and returns ints, of which ``solve_lp`` builds each
result ``Fraction`` once.  An Optimal result is re-checked in the scaled
integers first, satisfies every constraint exactly, with no tolerance
anywhere, and carries one exact dual value per constraint.  Variables are
implicitly nonnegative.

Pivot selection is deterministic (lowest eligible index), so identical inputs
always produce identical assignments.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from fractions import Fraction
from operator import mul

from .errors import SolverInvariantError

RELATIONS = ("<=", ">=", "=")

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _as_fraction(v) -> Fraction:
    """``v`` as a Fraction; one that already is one is kept, not rebuilt."""
    return v if type(v) is Fraction else Fraction(v)


def _over_lcm(values) -> tuple:
    """``(L, ints)``: L the lcm of the denominators of the Fractions
    ``values`` (1 if there are none), and each value as an int over L."""
    values = tuple(values)
    den = math.lcm(1, *(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


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

    def _integer_form(self):
        """The core's integer problem (see ``solve_lp``)."""
        # One common scale for every row: per-row scales would weigh the
        # phase-1 artificials differently and change the pivot sequence.
        scale, flat = _over_lcm(v for coeffs, _, rhs in self.constraints for v in (*coeffs, rhs))
        width = self.num_vars + 1
        rels = []
        row_scales = []  # negative where a row was negated to make its rhs nonnegative
        b = []
        cols = [([], []) for _ in range(self.num_vars)]
        for i, (_, rel, rhs) in enumerate(self.constraints):
            ints = flat[i * width:(i + 1) * width]
            sign = 1
            if rhs < 0:
                rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
                sign = -1
            rels.append(rel)
            row_scales.append(sign * scale)
            b.append(sign * ints[-1])
            for (rows, vals), a in zip(cols, ints):
                if a:
                    rows.append(i)
                    vals.append(sign * a)
        obj_scale, cost = _over_lcm(self.objective)
        return cols, rels, b, row_scales, cost, obj_scale, 1


class CoveringProgram:
    """minimize (or maximize) the sum of x subject to, for every row ``i``,
    the x of the columns through row ``i`` summing to at least ``demand[i]``.

    Column ``j`` is ``columns[j]``, the ascending list of its rows (a set
    of links, for the fractional chromatic number); ``demand`` holds one
    nonnegative value per row.  ``num_vars``, ``objective`` and
    ``constraints`` give the same program as a ``LinearProgram`` would;
    ``solve_lp`` builds its integer columns from the row lists instead.
    """

    __slots__ = ("columns", "demand")

    def __init__(self, columns, demand):
        demand = tuple(map(_as_fraction, demand))
        if any(t < 0 for t in demand):
            raise ValueError("a covering demand is negative")
        m = len(demand)
        for rows in columns:
            if list(rows) != sorted(set(rows)):
                raise ValueError(f"column rows {list(rows)} are not ascending and distinct")
            if rows and (rows[0] < 0 or rows[-1] >= m):
                raise ValueError(f"column rows {list(rows)} outside 0..{m - 1}")
        self.columns = tuple(columns)
        self.demand = demand

    @property
    def num_vars(self) -> int:
        return len(self.columns)

    @property
    def objective(self) -> tuple:
        return (_ONE,) * len(self.columns)

    @property
    def constraints(self) -> tuple:
        dense = [[_ZERO] * len(self.columns) for _ in self.demand]
        for j, rows in enumerate(self.columns):
            for i in rows:
                dense[i][j] = _ONE
        return tuple((tuple(row), ">=", t) for row, t in zip(dense, self.demand))

    def _integer_form(self):
        """The core's integer problem (see ``solve_lp``): every row times
        the demand's common denominator ``scale``, and every variable too,
        so each column is 1 on its rows."""
        scale, b = _over_lcm(self.demand)
        cols = [(rows, 1) for rows in self.columns]
        return cols, [">="] * len(b), b, [scale] * len(b), [1] * len(cols), scale, scale


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


def _dot(r, col):
    """``r . col`` for the sparse column ``col = (rows, values)``; ``values``
    is one int for a covering, slack or artificial column, every entry of
    which has that value."""
    rows, vals = col
    if type(vals) is int:
        return vals * sum(map(r.__getitem__, rows))
    return sum(map(mul, map(r.__getitem__, rows), vals))


def _column(M, col):
    """The tableau column of ``col``: one entry per row of ``M``."""
    return [_dot(r, col) for r in M]


def _pivot(M, basis, d, row, col, a):
    """Pivot on entry ``a[row]`` of the entering column ``col``; returns the new
    common denominator, which is always positive.

    ``M`` holds one row per basis entry, that row of ``R`` followed by its
    right-hand side, and may end with the pricing row ``u`` and its objective
    entry; ``a`` is the entering tableau column, one entry per row of ``M``.
    Every other row ``i`` becomes ``(p * M[i] - a[i] * M[row]) / d`` with
    ``p = a[row]``, and ``p`` becomes the denominator.  The division is exact
    because every entry is a minor of the starting system, whose basis is the
    identity (Bareiss).
    """
    p = a[row]
    prow = M[row]
    for i, r in enumerate(M):
        if i == row:
            continue
        f = a[i]
        if f:
            M[i] = [(p * x - f * q) // d for x, q in zip(r, prow)]
        elif p != d:
            M[i] = [p * x // d for x in r]
    basis[row] = col
    if p < 0:
        for i, r in enumerate(M):
            M[i] = [-x for x in r]
        p = -p
    return p


def _run_simplex(M, basis, d, cols, cost):
    """Maximize ``cost . x`` in place, from the basis held in ``M`` (see
    ``_pivot``), whose last row is the pricing row.

    Only the sparse columns ``cols`` may enter; column ``j``'s reduced cost
    is ``u . A_j - d * cost[j]``.  Returns ``("optimal" | "unbounded", d)``.
    """
    m = len(basis)
    while True:
        g = M[m].__getitem__
        # Bland: the first column with a negative reduced cost enters (the
        # dot products are ``_dot``, inlined).
        for enter, (rows, vals) in enumerate(cols):
            if vals == 1:
                z = sum(map(g, rows))
            elif type(vals) is int:
                z = vals * sum(map(g, rows))
            else:
                z = sum(map(mul, map(g, rows), vals))
            if z < d * cost[enter]:
                break
        else:
            return "optimal", d
        a = _column(M, cols[enter])
        a[m] -= d * cost[enter]
        leave = -1
        for i in range(m):
            ai = a[i]
            if ai > 0:
                b = M[i][-1]
                # b / ai against lb / la, both over the common denominator.
                if leave < 0 or b * la < lb * ai or (b * la == lb * ai and basis[i] < basis[leave]):
                    leave, la, lb = i, ai, b
        if leave < 0:
            return "unbounded", d
        d = _pivot(M, basis, d, leave, enter, a)


def _solve_columns(cols, rels, b, cost) -> tuple:
    """Maximize ``cost . x`` over ``x >= 0`` subject to row ``i``:
    ``sum_j A_ij x_j  rels[i]  b[i]``, all in integers.  Column ``j`` of ``A``
    is the sparse ``cols[j] = (rows, values)``: ``values`` is the list of
    its nonzero ints, or one int when every entry is that int (a covering,
    slack or artificial column); every ``b[i]`` is nonnegative.  Returns the
    LpStatus and, if optimal, ints ``(d, value, x, y)`` over ``d``; y prices b."""
    n = len(cols)
    m = len(rels)
    cols = list(cols)

    # Slack columns, then artificial ones; the starting basis is the
    # identity: the slack of each <= row, the artificial of every other row.
    art_start = n + sum(1 for rel in rels if rel != "=")
    basis = [-1] * m
    for i, rel in enumerate(rels):
        if rel != "=":
            if rel == "<=":
                basis[i] = len(cols)
            cols.append(((i,), 1 if rel == "<=" else -1))
    for i, rel in enumerate(rels):
        if rel != "<=":
            basis[i] = len(cols)
            cols.append(((i,), 1))
    ncols = len(cols)
    M = [[int(i == j) for j in range(m)] + [b[i]] for i in range(m)]

    d = 1
    keep = list(range(m))
    if ncols > art_start:
        # Phase 1: maximize -(sum of artificials), priced by u = c_B * R.
        u = [-int(bi >= art_start) for bi in basis]
        M.append(u + [sum(map(mul, u, b))])
        phase1 = [0] * art_start + [-1] * (ncols - art_start)
        status, d = _run_simplex(M, basis, d, cols, phase1)
        if status != "optimal":
            raise SolverInvariantError(
                f"phase 1 reported {status!r}; its objective is bounded above by 0"
            )
        M.pop()
        if sum(M[i][-1] for i in range(m) if basis[i] >= art_start) != 0:
            return LpStatus.INFEASIBLE, None
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = []
        for i in range(m):
            if basis[i] >= art_start:
                col = next((j for j in range(art_start) if _dot(M[i], cols[j]) != 0), None)
                if col is None:
                    continue  # all-zero row: redundant constraint
                d = _pivot(M, basis, d, i, col, _column(M, cols[col]))
            keep.append(i)
        M = [M[i] for i in keep]
        basis = [basis[i] for i in keep]

    # Phase 2, priced by u = c_B * R; artificial columns never enter again.
    u = [0] * (m + 1)
    for r, bi in zip(M, basis):
        if bi < n and cost[bi]:
            u = [s + cost[bi] * x for s, x in zip(u, r)]
    M.append(u)
    status, d = _run_simplex(M, basis, d, cols[:art_start], [*cost, *[0] * (art_start - n)])
    if status == "unbounded":
        return LpStatus.UNBOUNDED, None
    u = M.pop()

    # Re-check the answer in the scaled integers: every row holds at x, and
    # the duals price the right-hand side at the objective value.
    lhs = [0] * m
    primal = 0
    for r, bi in zip(M, basis):
        xb = r[-1]
        if xb < 0:
            raise SolverInvariantError(f"basic variable {bi} is negative at the optimum")
        if bi < n:
            primal += cost[bi] * xb
            rows, vals = cols[bi]
            if type(vals) is int:
                vals = [vals] * len(rows)
            for i, a in zip(rows, vals):
                lhs[i] += a * xb
    for i, rel in enumerate(rels):
        bd = b[i] * d
        if not (lhs[i] <= bd if rel == "<=" else lhs[i] >= bd if rel == ">=" else lhs[i] == bd):
            raise SolverInvariantError(f"the optimum violates constraint {i}")
    if sum(u[i] * b[i] for i in keep) != primal:
        raise SolverInvariantError("the duals do not price the right-hand side at the optimum")

    x = [0] * n
    for r, bi in zip(M, basis):
        if bi < n:
            x[bi] = r[-1]
    # Row i's slack or artificial column is +-e_i, so its dual is read from
    # that column's reduced cost, u[i].
    y = [0] * m
    for i in keep:
        y[i] = u[i]
    return LpStatus.OPTIMAL, (d, primal, x, y)


def solve_lp(lp, sense: str = "max") -> LpSolution:
    """Solve ``lp``, a ``LinearProgram`` or a ``CoveringProgram``, exactly.
    ``sense`` is ``"max"`` or ``"min"``."""
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    # The integer problem's row i is row_scales[i] times the caller's, its
    # objective is obj_scale times the caller's, and its variables are
    # var_scale times the caller's; every b[i] >= 0.  A min problem is
    # solved as the max of the negated objective.  Each result is one
    # Fraction of the core's ints over d times the caller's scale.
    cols, rels, b, row_scales, cost, obj_scale, var_scale = lp._integer_form()
    flip = 1 if sense == "max" else -1
    status, ints = _solve_columns(cols, rels, b, [flip * c for c in cost])
    if ints is None:
        return LpSolution(status)
    d, value, x, y = ints
    x = tuple(Fraction(v, d * var_scale) for v in x)
    duals = tuple(Fraction(flip * s * v, d * obj_scale) for v, s in zip(y, row_scales))
    return LpSolution(status, Fraction(flip * value, d * obj_scale), x, duals)
