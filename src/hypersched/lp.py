"""Exact linear programming over rationals.

Revised integer-preserving two-phase simplex with Bland's anti-cycling rule,
exact.  ``solve_lp`` takes a ``LinearProgram`` (dense rows) or a
``CoveringProgram`` (minimize the sum of x over set columns given as row
lists, each row covered to its demand; the fractional chromatic number's
LP), scales either to integers by one common factor for every row, and
hands the integer core ``_solve_columns`` every column in one form: a tuple
of ``(value, rows)`` groups, one per distinct nonzero value, with the
ascending rows holding it.  A covering column is ``((1, rows),)``, so a read
of it costs one multiply, however many rows it has.

The core keeps no tableau: it keeps ``R = d * B^-1`` (``B`` the basis matrix,
``d`` the common denominator), the scaled basic solution ``d * x_B``, and the
pricing vector ``u = c_B * R`` with its objective entry ``u . b``, packed by
column.  Column ``k`` of ``R`` is one Python int holding ``R[i][k]`` in the
signed ``w``-bit field ``i`` (bits ``w*i`` up) of each basis row ``i`` and
``u[k]`` in the top field ``m``; the right-hand side is one more such int,
``d * x_B`` below and ``u . b`` on top.  Adding such ints, or multiplying one
by an int, acts on every field at once, and a result decodes field by field
as long as each of its fields is below ``2^(w-1)`` in magnitude.

Field width.  Every entry of ``R``, ``d * x_B``, ``d`` and every tableau
entry ``R[i] . A_j`` is, up to sign, an ``m x m`` minor of the starting
system ``[A | slacks | artificials | b]`` (Cramer's rule; every row has a
unit column), so by Hadamard's inequality at most ``H``, the product of the
``m`` largest column norms.  ``u[k]``, ``u . b`` and the reduced costs
``u . A_j - d * c_j`` combine at most ``m + 1`` such minors with costs, so
they are at most ``(m + 1) * max(1, |c|) * H``.  ``_width`` derives ``w``
from that bound once per solve.

Pivot.  Each pivot is the Edmonds/Bareiss fraction-free update (Edmonds,
J. Res. NBS 1967; Bareiss, Math. Comp. 1968): one exact multiply-add per
packed column, ``(p * c - c[row] * a') // d``, with ``a'`` the entering
tableau column whose field ``row`` is set to ``p - d``.  Every field of the
numerator is divisible by ``d``, so one floor division divides each field
exactly.  The entering tableau column sums, per group, the group's value
times the packed columns of ``R`` on its rows; its top field, the reduced
cost, keeps ``u`` current.  One routine, ``_pivot``, serves every pivot.

Pricing.  ``_run_simplex`` writes ``u = c_B * R`` for the cost it is given
on entry, one multiply per packed column, so both phases, and a restart from
any basis, price themselves.  Every column, set, slack and artificial, is
packed ``_CHUNK`` at a time in index order, one int per row holding the
row's entries of the chunk's columns, so a chunk's reduced costs are ``m``
multiply-adds of ``u[i]`` with those ints.  Biased by ``2^(w-1)``, a field
is negative exactly when its top bit is clear, and the lowest such bit gives
Bland's column; one scan, stopping at the first chunk that holds one, picks
every entering column.  The artificial columns have chunks of their own,
which phase 2 does not price.

The core does no ``Fraction`` arithmetic and returns ints, of which
``solve_lp`` builds each result ``Fraction`` once.  An Optimal result is
re-checked in the scaled integers first: it satisfies every constraint
exactly, its duals price the right-hand side at its value, and no set or
slack column prices below its cost, so weak duality proves it optimal with
no tolerance anywhere.  It carries one exact dual value per constraint.
Variables are implicitly nonnegative.

Pivot selection is deterministic (lowest eligible index), so identical inputs
always produce identical assignments.
"""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from fractions import Fraction
from operator import index, lt, mul

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
    try:
        return v if type(v) is Fraction else Fraction(v)
    except OverflowError as e:  # an infinite float; NaN raises ValueError itself
        raise ValueError(*e.args) from None


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
    ``<=``, ``>=``, ``=``.  There is one variable per objective entry.
    """

    objective: tuple
    constraints: tuple = ()

    def __post_init__(self):
        obj = tuple(map(_as_fraction, self.objective))
        rows = []
        for coeffs, rel, rhs in self.constraints:
            row = tuple(map(_as_fraction, coeffs))
            if len(row) != len(obj):
                raise ValueError(f"constraint row has {len(row)} entries, expected {len(obj)}")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            rows.append((row, rel, _as_fraction(rhs)))
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def _integer_form(self):
        """The core's integer problem (see ``solve_lp``)."""
        # One common scale for every row: per-row scales would weigh the
        # phase-1 artificials differently and change the pivot sequence.
        scale, flat = _over_lcm(v for coeffs, _, rhs in self.constraints for v in (*coeffs, rhs))
        width = self.num_vars + 1
        rels = []
        row_scales = []  # negative where a row was negated to make its rhs nonnegative
        b = []
        groups = [{} for _ in range(self.num_vars)]
        for i, (_, rel, rhs) in enumerate(self.constraints):
            ints = flat[i * width:(i + 1) * width]
            sign = 1
            if rhs < 0:
                rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
                sign = -1
            rels.append(rel)
            row_scales.append(sign * scale)
            b.append(sign * ints[-1])
            for col, a in zip(groups, ints):
                if a:
                    col.setdefault(sign * a, []).append(i)
        cols = [tuple((v, tuple(rows)) for v, rows in col.items()) for col in groups]
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
        try:
            # Through a list, so that each column's tuple is allocated at its size.
            columns = tuple(tuple(list(map(index, rows))) for rows in columns)
        except TypeError:
            raise ValueError("column rows must be integers") from None
        for rows in columns:
            if rows and not (0 <= rows[0] and rows[-1] < m and all(map(lt, rows, rows[1:]))):
                raise ValueError(f"column rows {list(rows)} are not ascending, distinct and in 0..{m - 1}")
        self.columns = columns
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
        cols = [((1, rows),) for rows in self.columns]
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


# Columns priced per packed int (see ``_chunks``): Bland's scan stops at the
# first chunk holding a column with a negative reduced cost.
_CHUNK = 32


def _pack(values, w):
    """One int holding ``values`` in consecutive signed ``w``-bit fields,
    the first lowest."""
    x = 0
    for v in reversed(values):
        x = (x << w) + v
    return x


def _field(x, w, i):
    """Signed ``w``-bit field ``i`` of ``x``: the fields below it sum to less
    than half a unit of it, so they round away, and those above are masked."""
    sh = w * i
    hw = 1 << (w - 1)
    return (x + (hw << sh) + (1 << sh >> 1) >> sh & (1 << w) - 1) - hw


def _chunks(cols, art_start, m, w):
    """The pricing chunks of ``cols``: ``_CHUNK`` columns at a time in index
    order, a fresh chunk starting at the first artificial column
    ``art_start``.  Each is ``(start, stop, rows, ints)``: ``ints[k]`` holds
    the entry of column ``start + t`` on row ``rows[k]`` in field ``t``."""
    out = []
    bits = [1 << w * t for t in range(_CHUNK)]
    for lo, hi in ((0, art_start), (art_start, len(cols))):
        for start in range(lo, hi, _CHUNK):
            stop = min(start + _CHUNK, hi)
            packed = [0] * m
            for bit, col in zip(bits, cols[start:stop]):
                for v, rows in col:
                    x = v * bit
                    for i in rows:
                        packed[i] += x
            rows = tuple(i for i, x in enumerate(packed) if x)
            out.append((start, stop, rows, tuple(map(packed.__getitem__, rows))))
    return out


def _width(cols, b, cost, m) -> int:
    """The field width: every entry the core stores or prices is below
    ``2^(w-1)`` in magnitude (see the module docstring)."""
    norms = [sum(x * x for x in b)]
    for col in cols:
        norms.append(0)
        for v, rows in col:
            norms[-1] += v * v * len(rows)
    minor_bits = (math.prod(sorted(norms, reverse=True)[:m]).bit_length() + 1) // 2
    return minor_bits + ((m + 1) * max([1, *map(abs, cost)])).bit_length() + 1


def _tableau_column(C, col):
    """``R . A_j`` for the column ``col``, packed as the columns ``C`` of ``R``
    are, its top field the pricing row times ``A_j``: each group adds its
    value times the sum of ``R``'s columns on its rows."""
    a = 0
    for v, rows in col:
        a += v * sum(map(C.__getitem__, rows))
    return a


def _reduced_costs(u, d, chunk, cost):
    """The packed reduced costs ``u . A_j - d * cost_j`` of one pricing
    chunk, column ``start + t`` in field ``t``; ``cost`` packs the chunk's
    costs."""
    _, _, rows, ints = chunk
    return sum(map(mul, map(u.__getitem__, rows), ints)) - d * cost


def _pivot(C, basis, d, row, col, a, w):
    """Pivot on field ``row`` of the packed entering column ``a``; returns the
    new common denominator, which is always positive.

    ``C`` holds the columns of ``R`` and then the right-hand side, each one
    int with one signed ``w``-bit field per basis row and the pricing row's
    entry in the top field; ``a`` is ``_tableau_column`` of the entering
    column, its top field the reduced cost.  With ``p = a[row]``, every
    column ``c`` becomes ``(p * c - c[row] * a') / d``, ``a'`` being ``a``
    with field ``row`` set to ``p - d``, which leaves field ``row`` as it was;
    and ``p`` becomes the denominator.  Every field of ``p * c - c[row] * a'``
    is divisible by ``d``, because every entry is a minor of the starting
    system, whose basis is the identity (Bareiss), so one floor division
    divides each field exactly.
    """
    sh = w * row
    hw = 1 << (w - 1)
    mask = (1 << w) - 1
    # Biases field row by 2^(w-1) and rounds away the fields below it.
    off = (hw << sh) + (1 << sh >> 1)
    p = (a + off >> sh & mask) - hw
    a -= d << sh
    for k, c in enumerate(C):
        q = (c + off >> sh & mask) - hw
        if q:
            C[k] = (p * c - q * a) // d
        elif p != d:
            C[k] = p * c // d
    basis[row] = col
    if p < 0:
        C[:] = [-c for c in C]
        p = -p
    return p


def _run_simplex(C, basis, d, cols, chunks, w, cost):
    """Maximize ``cost . x`` in place, from the basis held in ``C`` (see
    ``_pivot``).  On entry it writes ``u = c_B * R`` for ``cost`` over the
    top fields: with ``P`` holding ``c_B`` reversed above an empty field 0,
    field ``m`` of ``c * P`` is ``c_B . c`` for each packed column ``c`` (a
    basic column past ``cost`` costs 0).  Only the columns of the ``chunks``
    (see ``_chunks``) that start below ``len(cost)`` may enter; column
    ``j``'s reduced cost is ``u . A_j - d * cost[j]``.  Returns
    ``("optimal" | "unbounded", d)``.
    """
    m = len(basis)
    top = w * m
    P = _pack([0, *(cost[bi] if bi < len(cost) else 0 for bi in reversed(basis))], w)
    C[:] = [c + (_field(c * P, w, m) - _field(c, w, m) << top) for c in C]
    hw = 1 << (w - 1)
    mask = (1 << w) - 1
    signs = _pack([hw] * m, w)  # the top bit of each field below the top one
    bias = signs - _pack([1] * m, w)
    half = 1 << top >> 1  # rounds away the fields below the top one (_field)
    chunk_signs = _pack([hw] * _CHUNK, w)
    priced = [(chunk, _pack(cost[chunk[0]:chunk[1]], w)) for chunk in chunks if chunk[0] < len(cost)]
    while True:
        u = [c + half >> top for c in C[:m]]
        # Bland: the first column with a negative reduced cost enters.  A
        # field is negative when biasing it by 2^(w-1) leaves its top bit
        # clear; the lowest such field of the first chunk holding one is it.
        for chunk, c in priced:
            neg = chunk_signs & ~(_reduced_costs(u, d, chunk, c) + chunk_signs)
            if neg:
                enter = chunk[0] + (neg & -neg).bit_length() // w - 1
                break
        else:
            return "optimal", d
        a = _tableau_column(C, cols[enter]) - (d * cost[enter] << top)
        # Ratio test over the rows whose entry a[i] is at least 1: biased by
        # 2^(w-1) - 1, exactly those fields have their top bit set.
        x = a + bias
        pos = x & signs
        b = C[m] + signs
        leave = -1
        while pos:
            bit = pos & -pos
            pos ^= bit
            sh = bit.bit_length() - w
            ai = (x >> sh & mask) - hw + 1
            bi = (b >> sh & mask) - hw
            i = sh // w
            # bi / ai against lb / la, both over the common denominator.
            if leave < 0 or bi * la < lb * ai or (bi * la == lb * ai and basis[i] < basis[leave]):
                leave, la, lb = i, ai, bi
        if leave < 0:
            return "unbounded", d
        d = _pivot(C, basis, d, leave, enter, a, w)


def _solve_columns(cols, rels, b, cost) -> tuple:
    """Maximize ``cost . x`` over ``x >= 0`` subject to row ``i``:
    ``sum_j A_ij x_j  rels[i]  b[i]``, all in integers.  Column ``j`` of ``A``
    is ``cols[j]``, one ``(value, rows)`` group per distinct nonzero value:
    ``A_ij`` is the value of the group whose ascending ``rows`` hold ``i``,
    else 0; every ``b[i]`` is nonnegative.  Returns the LpStatus and, if
    optimal, ints ``(d, value, x, y)`` over ``d``; y prices b.  Each phase
    starts from the basis the last left, ``_run_simplex`` pricing it, and
    enters columns from one list of chunks packed over every column."""
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
            cols.append(((1 if rel == "<=" else -1, (i,)),))
    for i, rel in enumerate(rels):
        if rel != "<=":
            basis[i] = len(cols)
            cols.append(((1, (i,)),))
    w = _width(cols, b, cost, m)
    chunks = _chunks(cols, art_start, m, w)
    # R = I, one packed int per column, then the right-hand side.
    C = [1 << w * i for i in range(m)] + [_pack(b, w)]

    d = 1
    if len(cols) > art_start:
        # Phase 1: maximize -(sum of artificials).
        status, d = _run_simplex(C, basis, d, cols, chunks, w, [0] * art_start + [-1] * (len(cols) - art_start))
        if status != "optimal":
            raise SolverInvariantError(
                f"phase 1 reported {status!r}; its objective is bounded above by 0"
            )
        # The objective entry is minus d times the artificials' sum.
        if _field(C[m], w, m):
            return LpStatus.INFEASIBLE, None
        # Drive leftover artificials out of the basis.  A redundant row's
        # stays basic at zero: its tableau row is zero off the artificials.
        for i in range(m):
            if basis[i] >= art_start:
                for col in range(art_start):
                    a = _tableau_column(C, cols[col])
                    if _field(a, w, i):
                        d = _pivot(C, basis, d, i, col, a, w)
                        break

    # Phase 2: artificial columns never enter again.
    status, d = _run_simplex(C, basis, d, cols, chunks, w, [*cost, *[0] * (art_start - n)])
    if status == "unbounded":
        return LpStatus.UNBOUNDED, None
    # Row i's slack or artificial column is +-e_i, so its dual is that
    # column's reduced cost, u[i]: 0 for a redundant row's basic artificial.
    y = [_field(C[i], w, m) for i in range(m)]

    # Re-check the answer in the scaled integers: every row holds at x, and
    # the duals price the right-hand side at the optimum.
    x = [0] * n
    lhs = [0] * m
    primal = 0
    for v, bi in zip((_field(C[m], w, i) for i in range(m)), basis):
        if v < 0:
            raise SolverInvariantError(f"basic variable {bi} is negative at the optimum")
        if bi < n:
            x[bi] = v
            primal += cost[bi] * v
            for a, rows in cols[bi]:
                for i in rows:
                    lhs[i] += a * v
    for i, rel in enumerate(rels):
        bd = b[i] * d
        if not (lhs[i] <= bd if rel == "<=" else lhs[i] >= bd if rel == ">=" else lhs[i] == bd):
            raise SolverInvariantError(f"the optimum violates constraint {i}")
    if sum(map(mul, y, b)) != primal:
        raise SolverInvariantError("the duals do not price the right-hand side at the optimum")
    # The duals are feasible: no column that may enter in phase 2 (set or
    # slack, read from ``cols``) has a negative reduced cost.  With the
    # checks above, that certifies the optimum by weak duality.
    for j, col in enumerate(cols[:art_start]):
        if sum(a * sum(map(y.__getitem__, rows)) for a, rows in col) < d * (cost[j] if j < n else 0):
            raise SolverInvariantError(f"column {j} prices below its cost at the optimum")
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
