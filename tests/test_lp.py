"""Exact simplex: golden cases, exactness invariants, duality spot-check,
dual certificates, and agreement with the dense reference solver."""

import math
import random
from fractions import Fraction

import pytest

from hypersched import (
    CoveringProgram,
    DemandVector,
    LinearProgram,
    LpSolution,
    IntervalSet,
    LpStatus,
    Schedule,
    SolverInvariantError,
    WeightMatrix,
    enumerate_maximal_independent_sets,
    fractional_chromatic_number,
    solve_lp,
)
from hypersched import feasibility
from hypersched import lp as lp_module

import lp_reference
from conftest import all_sets_program, fraction_counter, random_demand, random_hypergraph


def check_exact(lp, sol):
    """Optimal assignments must satisfy every constraint with no slack fudge
    and reproduce the objective value exactly."""
    assert sol.status is LpStatus.OPTIMAL
    x = sol.assignment
    assert all(v >= 0 for v in x)
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if rel == "<=":
            assert lhs <= rhs
        elif rel == ">=":
            assert lhs >= rhs
        else:
            assert lhs == rhs
    assert sum(c * v for c, v in zip(lp.objective, x)) == sol.value


def check_duals(lp, sense, sol):
    """The reported duals must certify optimality exactly: strong duality
    (y . rhs == value), the sign each relation allows, and dual feasibility
    of every column."""
    assert sol.status is LpStatus.OPTIMAL
    y = sol.duals
    assert len(y) == len(lp.constraints)
    assert all(isinstance(v, Fraction) for v in y)
    assert sum(v * rhs for v, (_, _, rhs) in zip(y, lp.constraints)) == sol.value
    s = 1 if sense == "max" else -1
    for v, (_, rel, _) in zip(y, lp.constraints):
        if rel == "<=":
            assert s * v >= 0
        elif rel == ">=":
            assert s * v <= 0
    for j, c in enumerate(lp.objective):
        column = sum(v * coeffs[j] for v, (coeffs, _, _) in zip(y, lp.constraints))
        assert s * column >= s * c


def random_mixed_lp(rng, size):
    """Up to ``size`` variables and ``size`` random rows with fractional
    coefficients, all three relations and right-hand sides of either sign;
    about a fifth of the rows are followed by a multiple of themselves as an
    equality row."""
    n = rng.randint(1, size)

    def value():
        return Fraction(rng.randint(-4, 6), rng.choice((1, 2, 3, 5)))

    cons = []
    for _ in range(rng.randint(1, size)):
        row = tuple(value() for _ in range(n))
        cons.append((row, rng.choice(("<=", ">=", "=")), value()))
        if rng.random() < 0.2:
            k = rng.randint(1, 3)
            cons.append((tuple(k * a for a in row), "=", k * cons[-1][2]))
    return LinearProgram(tuple(value() for _ in range(n)), tuple(cons))


class TestGoldens:
    def test_ratio_lp(self):
        # maximize 21a + 2b subject to 9a + b <= 1; vertices give 0, 7/3, 2.
        lp = LinearProgram((21, 2), (((9, 1), "<=", 1),))
        sol = solve_lp(lp, "max")
        assert sol.value == Fraction(7, 3)
        assert sol.assignment == (Fraction(1, 9), Fraction(0))
        assert sol.duals == (Fraction(7, 3),)
        check_exact(lp, sol)
        check_duals(lp, "max", sol)

    def test_zero_bound(self):
        sol = solve_lp(LinearProgram((1,), (((1,), "<=", 0),)), "max")
        assert sol.status is LpStatus.OPTIMAL
        assert sol.value == 0

    def test_infeasible(self):
        lp = LinearProgram(
            (1, 1), (((1, 1), ">=", 2), ((1, 1), "<=", 1))
        )
        assert solve_lp(lp, "max").status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        assert solve_lp(LinearProgram((1,)), "max").status is LpStatus.UNBOUNDED

    def test_min_sense(self):
        lp = LinearProgram((1, 1), (((1, 2), ">=", 3), ((2, 1), ">=", 3)))
        sol = solve_lp(lp, "min")
        assert sol.value == 2
        assert sol.assignment == (1, 1)
        assert sol.duals == (Fraction(1, 3), Fraction(1, 3))
        check_exact(lp, sol)
        check_duals(lp, "min", sol)

    def test_equality_constraint(self):
        lp = LinearProgram((1, 2), (((1, 1), "=", 1),))
        sol = solve_lp(lp, "max")
        assert sol.value == 2
        assert sol.assignment == (0, 1)
        assert sol.duals == (2,)
        check_duals(lp, "max", sol)

    def test_negative_rhs_normalization(self):
        # -x <= -2 is x >= 2.
        lp = LinearProgram((-1,), (((-1,), "<=", -2),))
        sol = solve_lp(lp, "max")
        assert sol.value == -2
        assert sol.duals == (1,)
        check_duals(lp, "max", sol)

    def test_redundant_equality_row_gets_zero_dual(self):
        # The second row is twice the first; phase 1 drops it.
        lp = LinearProgram(
            (1, 3), (((1, 1), "=", 1), ((2, 2), "=", 2), ((1, 0), "<=", 1))
        )
        sol = solve_lp(lp, "max")
        assert sol.value == 3
        assert sol.duals == (3, 0, 0)
        check_duals(lp, "max", sol)

    def test_no_constraints(self):
        sol = solve_lp(LinearProgram((-1, 0)), "max")
        assert (sol.value, sol.assignment, sol.duals) == (0, (0, 0), ())

    def test_no_constraints_negative_costs(self):
        # m = 0: the pricing row is empty and every column prices at -cost.
        sol = solve_lp(LinearProgram((-1, -1), ()), "max")
        assert sol == LpSolution(LpStatus.OPTIMAL, 0, (0, 0), ())

    def test_no_variables(self):
        # With no columns, rows with rhs 0 hold at the empty x and the rest fail.
        feasible = LinearProgram((), (((), "<=", 1), ((), "=", 0)))
        for sense in ("max", "min"):
            assert solve_lp(feasible, sense) == LpSolution(LpStatus.OPTIMAL, 0, (), (0, 0))
            for infeasible in (LinearProgram((), (((), ">=", 1),)), CoveringProgram([], [1])):
                assert solve_lp(infeasible, sense).status is LpStatus.INFEASIBLE

    def test_min_of_infeasible(self):
        lp = LinearProgram((1,), (((1,), "<=", -1),))
        assert solve_lp(lp, "min").status is LpStatus.INFEASIBLE


class TestValidation:
    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram((1, 1), (((1,), "<=", 1),))

    def test_bad_relation(self):
        with pytest.raises(ValueError):
            LinearProgram((1,), (((1,), "<", 1),))

    def test_bad_sense(self):
        with pytest.raises(ValueError):
            solve_lp(LinearProgram((1,)), "maximize")


class TestCoveringProgram:
    def test_dense_form(self):
        lp = CoveringProgram(([0, 2], [1], []), (Fraction(1, 2), 1, 0))
        assert (lp.num_vars, lp.objective) == (3, (1, 1, 1))
        assert lp.constraints == (
            ((1, 0, 0), ">=", Fraction(1, 2)),
            ((0, 1, 0), ">=", 1),
            ((1, 0, 0), ">=", 0),
        )

    def test_solves_as_its_dense_form(self):
        rng = random.Random(53)
        for _ in range(300):
            m = rng.randint(1, 5)
            columns = [sorted(rng.sample(range(m), rng.randint(0, m))) for _ in range(rng.randint(1, 6))]
            columns.append(list(range(m)))  # some column covers every row
            demand = [Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(m)]
            lp = CoveringProgram(columns, demand)
            dense = LinearProgram(lp.objective, lp.constraints)
            for sense in ("min", "max"):
                sol = solve_lp(lp, sense)
                assert sol == solve_lp(dense, sense)
            check_exact(dense, solve_lp(lp, "min"))
            check_duals(dense, "min", solve_lp(lp, "min"))

    @pytest.mark.parametrize(
        "columns, demand",
        [(([0],), (-1,)), (([1],), (1,)), (([-1, 0],), (1,)), (([1, 0],), (1, 1)), (([0, 0],), (1,))],
        ids=["negative-demand", "row-past-end", "negative-row", "descending", "repeated"],
    )
    def test_rejects(self, columns, demand):
        with pytest.raises(ValueError):
            CoveringProgram(columns, demand)

    @pytest.mark.parametrize("rows", [(0.0, 1.0), (1.0,), ("0",), (0, None)])
    def test_rejects_non_integer_rows(self, rows):
        # (0.0, 1.0) passed the column check and then failed in the solver.
        with pytest.raises(ValueError, match="^column rows must be integers$"):
            CoveringProgram([rows], [1, 1])

    def test_generator_of_columns(self):
        lp = CoveringProgram((rows for rows in [[0], [1]]), [1, 1])
        assert lp.columns == ((0,), (1,))
        assert solve_lp(lp, "min").value == 2

    def test_iterator_columns(self):
        lp = CoveringProgram([iter([0, 1]), iter([1])], [1, 1])
        assert lp.columns == ((0, 1), (1,))
        assert solve_lp(lp, "min").value == 1
        with pytest.raises(ValueError, match=r"column rows \[1, 0\] are not ascending"):
            CoveringProgram([iter([1, 0])], [1, 1])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: DemandVector((v,)),
        lambda v: Schedule(((frozenset({0}), v),)),
        lambda v: IntervalSet(((0, v),)),
        lambda v: LinearProgram((v,)),
        lambda v: CoveringProgram([(0,)], [v]),
        lambda v: WeightMatrix.from_rows([[0, v], [v, 0]]),
    ],
    ids=["DemandVector", "Schedule", "IntervalSet", "LinearProgram", "CoveringProgram", "WeightMatrix"],
)
def test_non_finite_float_refused(build, bad):
    """Infinity raised OverflowError where NaN raised ValueError."""
    with pytest.raises(ValueError, match="^cannot convert (Infinity|NaN) to integer ratio$"):
        build(bad)


class TestRandomized:
    def test_deterministic(self):
        rng = random.Random(23)
        for _ in range(20):
            lp = self._random_leq_lp(rng)
            a = solve_lp(lp, "max")
            b = solve_lp(lp, "max")
            assert a == b

    @staticmethod
    def _random_leq_lp(rng, n=None, m=None):
        n = n or rng.randint(1, 5)
        m = m or rng.randint(1, 5)
        cons = tuple(
            (
                tuple(Fraction(rng.randint(-3, 5)) for _ in range(n)),
                "<=",
                Fraction(rng.randint(0, 6)),
            )
            for _ in range(m)
        )
        obj = tuple(Fraction(rng.randint(-4, 6)) for _ in range(n))
        return LinearProgram(obj, cons)

    def test_exactness_on_random(self):
        rng = random.Random(29)
        for _ in range(60):
            lp = self._random_leq_lp(rng)
            sol = solve_lp(lp, "max")
            # b >= 0, so x = 0 is always feasible.
            assert sol.status in (LpStatus.OPTIMAL, LpStatus.UNBOUNDED)
            if sol.status is LpStatus.OPTIMAL:
                check_exact(lp, sol)
                check_duals(lp, "max", sol)

    def test_duality(self):
        # max c.x st Ax <= b, x >= 0  vs  min b.y st A^T y >= c, y >= 0.
        rng = random.Random(31)
        optimal_pairs = 0
        for _ in range(60):
            lp = self._random_leq_lp(rng)
            n = lp.num_vars
            m = len(lp.constraints)
            rows = [c for c, _, _ in lp.constraints]
            b = [r for _, _, r in lp.constraints]
            dual = LinearProgram(
                tuple(b),
                tuple(
                    (tuple(rows[i][j] for i in range(m)), ">=", lp.objective[j])
                    for j in range(n)
                ),
            )
            primal_sol = solve_lp(lp, "max")
            dual_sol = solve_lp(dual, "min")
            if primal_sol.status is LpStatus.OPTIMAL:
                assert dual_sol.status is LpStatus.OPTIMAL
                assert primal_sol.value == dual_sol.value
                check_duals(lp, "max", primal_sol)
                check_duals(dual, "min", dual_sol)
                optimal_pairs += 1
            else:
                assert primal_sol.status is LpStatus.UNBOUNDED
                assert dual_sol.status is LpStatus.INFEASIBLE
        assert optimal_pairs >= 20

    def test_duals_on_mixed_relations(self):
        # Fractional coefficients, all three relations, negative right-hand
        # sides and duplicated equality rows, in both senses.
        rng = random.Random(37)
        optimal = 0
        for _ in range(200):
            lp = random_mixed_lp(rng, 5)
            sense = rng.choice(("max", "min"))
            sol = solve_lp(lp, sense)
            if sol.status is LpStatus.OPTIMAL:
                check_exact(lp, sol)
                check_duals(lp, sense, sol)
                optimal += 1
            else:
                assert sol.duals is None
        assert optimal >= 20


class TestSolverInvariants:
    def test_phase_one_unbounded_raises(self, monkeypatch):
        def unbounded(C, basis, d, cols, chunks, w, cost):
            return "unbounded", d

        monkeypatch.setattr(lp_module, "_run_simplex", unbounded)
        lp = LinearProgram((1,), (((1,), ">=", 1),))
        with pytest.raises(SolverInvariantError, match="phase 1"):
            solve_lp(lp, "max")

    @pytest.mark.parametrize(
        "lp, sense, entry, match",
        [
            (
                LinearProgram((1, 1), (((1, 2), ">=", 3), ((2, 1), ">=", 3))),
                "min",
                1,
                "violates constraint",
            ),
            (
                LinearProgram(
                    (3, 2), (((1, 1), "<=", 4), ((1, 3), "<=", 6), ((1, 0), "<=", 3))
                ),
                "max",
                0,
                "duals",
            ),
        ],
    )
    def test_corrupted_inverse_raises(self, monkeypatch, lp, sense, entry, match):
        # One wrong entry of R = d * B^-1 after the first pivot, field row
        # of the packed column entry, feeds the later columns, the basic
        # solution and the pricing row; the re-check before returning
        # catches the wrong answer.
        real = lp_module._pivot
        pivots = []

        def corrupting(C, basis, d, row, col, a, w):
            d = real(C, basis, d, row, col, a, w)
            if not pivots:
                C[entry] += 1 << w * row
            pivots.append(col)
            if len(pivots) > 50:
                pytest.fail("the corrupted solve does not terminate")
            return d

        monkeypatch.setattr(lp_module, "_pivot", corrupting)
        with pytest.raises(SolverInvariantError, match=match):
            solve_lp(lp, sense)
        assert len(pivots) > 1

    def test_negative_basic_variable_raises(self, monkeypatch):
        # Field 0 of the right-hand side, d * x_B on row 0, made negative
        # once phase 2 (no artificial column may enter) reports optimal.
        real = lp_module._run_simplex
        phases = []

        def corrupting(C, basis, d, cols, chunks, w, cost):
            status, d = real(C, basis, d, cols, chunks, w, cost)
            phases.append(len(cost) < len(cols))
            if phases[-1]:
                C[-1] -= 2 * lp_module._field(C[-1], w, 0) + 1
            return status, d

        monkeypatch.setattr(lp_module, "_run_simplex", corrupting)
        lp = LinearProgram((1, 1), (((1, 2), ">=", 3), ((2, 1), ">=", 3)))
        with pytest.raises(SolverInvariantError, match=r"^basic variable \d+ is negative at the optimum$"):
            solve_lp(lp, "min")
        assert phases == [False, True]


class TestFractionBoundary:
    """The integer core hands back ints, and ``solve_lp`` builds each result
    Fraction once: the value, each assignment entry and each dual."""

    def test_chi_f_covering_lps(self, monkeypatch):
        rng = random.Random(151)
        cases = []
        for _ in range(20):
            h = random_hypergraph(rng, max_links=10)
            sets = [sorted(s) for s in enumerate_maximal_independent_sets(h)]
            cases.append(CoveringProgram(sets, random_demand(rng, h.num_links)))
        made = fraction_counter(monkeypatch)
        core, real = [], lp_module._solve_columns

        def counted(*args):
            before = made[0]
            out = real(*args)
            core.append(made[0] - before)
            return out

        monkeypatch.setattr(lp_module, "_solve_columns", counted)
        counts = []
        for lp in cases:
            made[0] = 0
            sol = solve_lp(lp, "min")
            counts.append((made[0], 1 + len(sol.assignment) + len(sol.duals)))
        monkeypatch.undo()
        assert core == [0] * len(cases)
        assert all(got == want for got, want in counts)


def check_column_form(col, m):
    """``col`` is a tuple of ``(value, rows)`` groups: distinct nonzero int
    values, each with a tuple of ascending rows in ``0..m-1``, and no row in
    two groups."""
    assert type(col) is tuple
    values, covered = set(), set()
    for group in col:
        assert type(group) is tuple and len(group) == 2
        v, rows = group
        assert type(v) is int and v and v not in values
        assert type(rows) is tuple and list(rows) == sorted(set(rows))
        assert all(type(i) is int and 0 <= i < m for i in rows)
        assert covered.isdisjoint(rows)
        values.add(v)
        covered.update(rows)


class TestColumnForm:
    """Every column of the integer core is a tuple of ``(value, rows)``
    groups, whichever program it comes from, slack and artificial columns
    included."""

    @pytest.fixture
    def received(self, monkeypatch):
        """Per solve, the columns ``_solve_columns`` receives, and then every
        column ``_chunks`` packs for pricing, each list with its row count."""
        log = []
        real_solve, real_chunks = lp_module._solve_columns, lp_module._chunks

        def solve(cols, rels, b, cost):
            log.append((list(cols), len(rels)))
            return real_solve(cols, rels, b, cost)

        def chunks(cols, art_start, m, w):
            log.append((list(cols), m))
            return real_chunks(cols, art_start, m, w)

        monkeypatch.setattr(lp_module, "_solve_columns", solve)
        monkeypatch.setattr(lp_module, "_chunks", chunks)
        return log

    def check_all(self, received):
        for cols, m in received:
            for col in cols:
                check_column_form(col, m)

    def test_covering_program(self, received):
        rng = random.Random(157)
        for _ in range(20):
            h = random_hypergraph(rng, max_links=10)
            sets = [sorted(s) for s in enumerate_maximal_independent_sets(h)]
            lp = CoveringProgram(sets, random_demand(rng, h.num_links))
            received.clear()
            assert solve_lp(lp, "min").status is LpStatus.OPTIMAL
            self.check_all(received)
            (core, m), (every, _) = received
            assert core == [((1, tuple(rows)),) for rows in sets]
            assert every[:len(core)] == core
            assert all(len(col) == 1 and col[0][0] in (1, -1) and len(col[0][1]) == 1
                       for col in every[len(core):])

    def test_linear_program(self, received):
        # Every row is scaled by 2, and row 1 is negated for its negative
        # rhs, so column 0 is 2 on rows 0 and 2 and -2 on row 1, and column 1
        # is 2 on rows 0, 1 and 3.  The slacks of the <= rows follow, then
        # the surplus and the artificial of row 3.
        lp = LinearProgram(
            (1, 1),
            (
                ((1, 1), "<=", 3),
                ((1, -1), ">=", Fraction(-1, 2)),
                ((1, 0), "<=", 2),
                ((0, 1), ">=", 1),
            ),
        )
        sol = solve_lp(lp, "max")
        check_exact(lp, sol)
        assert sol.value == 3
        core = [((2, (0, 2)), (-2, (1,))), ((2, (0, 1, 3)),)]
        slacks = [((1, (0,)),), ((1, (1,)),), ((1, (2,)),), ((-1, (3,)),), ((1, (3,)),)]
        assert received == [(core, 4), (core + slacks, 4)]
        self.check_all(received)

    def test_random_mixed_relations(self, received):
        rng = random.Random(59)
        for _ in range(200):
            solve_lp(random_mixed_lp(rng, 6), rng.choice(("max", "min")))
        assert len(received) == 400
        self.check_all(received)


class TestWidth:
    """``_width`` covers Hadamard's bound computed from the dense columns of
    the starting system: every entry the core stores is an ``m x m`` minor,
    at most ``H``, the product of the ``m`` largest column norms, and every
    priced entry is at most ``(m + 1) * max(1, |c|) * H``."""

    def test_covers_hadamard_bound(self, monkeypatch):
        real = lp_module._width
        longest = []

        def checked(cols, b, cost, m):
            w = real(cols, b, cost, m)
            dense = []
            for col in cols:
                entries = [0] * m
                for v, rows in col:
                    for i in rows:
                        entries[i] = v
                dense.append(entries)
            squares = sorted((sum(x * x for x in e) for e in [*dense, b]), reverse=True)
            hadamard = math.isqrt(math.prod(squares[:m]) - 1) + 1  # ceil(H)
            assert (m + 1) * max([1, *map(abs, cost)]) * hadamard < 1 << w - 1
            longest.append(max(sum(len(rows) for _, rows in col) for col in cols))
            return w

        monkeypatch.setattr(lp_module, "_width", checked)
        rng = random.Random(163)
        for _ in range(40):
            h = random_hypergraph(rng, max_links=14, max_edges=8, min_links=8)
            sets = [sorted(s) for s in enumerate_maximal_independent_sets(h)]
            solve_lp(CoveringProgram(sets, random_demand(rng, h.num_links)), "min")
        for _ in range(200):
            solve_lp(random_mixed_lp(rng, 6), rng.choice(("max", "min")))
        assert len(longest) == 240
        assert max(longest[:40]) >= 8


class TestReferenceSolver:
    """The revised solver makes the dense reference's pivots and returns its
    answers.  Pivots are compared by (leaving variable, entering column):
    the reference compacts its rows when it drops a redundant one."""

    @pytest.fixture
    def solve_both(self, monkeypatch):
        logs = {lp_module: [], lp_reference: []}
        for module, log in logs.items():
            def traced(T, basis, d, row, col, *rest, real=module._pivot, log=log):
                log.append((basis[row], col))
                return real(T, basis, d, row, col, *rest)

            monkeypatch.setattr(module, "_pivot", traced)

        def solve(lp, sense, solver=None):
            """Solve ``lp`` with ``solver`` (default: ``solve_lp``) and
            with the reference; returns the solution and its pivot count."""
            for log in logs.values():
                log.clear()
            sol = solver() if solver else lp_module.solve_lp(lp, sense)
            assert sol == lp_reference.solve_lp(lp, sense)
            assert logs[lp_module] == logs[lp_reference]
            return sol, len(logs[lp_module])

        return solve

    def test_random_mixed_relations(self, solve_both):
        rng = random.Random(41)
        statuses = {status: 0 for status in LpStatus}
        pivots = 0
        for _ in range(2000):
            lp = random_mixed_lp(rng, 6)
            sol, count = solve_both(lp, rng.choice(("max", "min")))
            statuses[sol.status] += 1
            pivots += count
        assert min(statuses.values()) >= 100
        assert pivots >= 4000

    def test_columns_scaled_by_integers(self, solve_both):
        # Each structural column times an integer in 2..12, so the
        # columns are no longer 0/+-1 and their entries differ in size.
        rng = random.Random(47)
        statuses = {status: 0 for status in LpStatus}
        pivots = 0
        for _ in range(1000):
            lp = random_mixed_lp(rng, 6)
            k = [rng.randint(2, 12) for _ in range(lp.num_vars)]
            scaled = LinearProgram(
                lp.objective,
                tuple(
                    (tuple(a * kj for a, kj in zip(coeffs, k)), rel, rhs)
                    for coeffs, rel, rhs in lp.constraints
                ),
            )
            sol, count = solve_both(scaled, rng.choice(("max", "min")))
            statuses[sol.status] += 1
            pivots += count
        assert min(statuses.values()) >= 50
        assert pivots >= 2000

    def test_wide_entries(self, solve_both, monkeypatch):
        # Columns times integers up to 10^12 and right-hand sides over
        # denominators up to 10^9, so the packed fields run to hundreds of
        # bits.  After every pivot the decoded basic solution and d must be
        # the reference's, every entry of the reference's tableau (each
        # entry the solver stores or prices is one of them) must be below
        # 2^(w-1), and the top fields must leave nothing above them.
        states = {lp_module: [], lp_reference: []}
        widths, largest = [], []

        def decoded(C, basis, d, row, col, a, w, real=lp_module._pivot):
            d = real(C, basis, d, row, col, a, w)
            fields = [[lp_module._field(c, w, i) for i in range(len(basis) + 1)] for c in C]
            assert [lp_module._pack(f, w) for f in fields] == C
            states[lp_module].append((d, {v: x for v, x in zip(basis, fields[-1]) if x}))
            widths.append(w)
            return d

        def tabled(T, basis, d, row, col, real=lp_reference._pivot):
            d = real(T, basis, d, row, col)
            states[lp_reference].append((d, {v: r[-1] for v, r in zip(basis, T) if r[-1]}))
            largest.append(max(abs(x) for r in T for x in r))
            return d

        monkeypatch.setattr(lp_module, "_pivot", decoded)
        monkeypatch.setattr(lp_reference, "_pivot", tabled)
        rng = random.Random(53)
        statuses = {status: 0 for status in LpStatus}
        widest = 0
        for _ in range(300):
            lp = random_mixed_lp(rng, 5)
            k = [rng.randint(1, 10**12) for _ in range(lp.num_vars)]
            wide = LinearProgram(
                lp.objective,
                tuple(
                    (
                        tuple(a * kj for a, kj in zip(coeffs, k)),
                        rel,
                        rhs + Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)),
                    )
                    for coeffs, rel, rhs in lp.constraints
                ),
            )
            for log in (*states.values(), widths, largest):
                log.clear()
            sol, _ = solve_both(wide, rng.choice(("max", "min")))
            statuses[sol.status] += 1
            assert states[lp_module] == states[lp_reference]
            assert all(x < 1 << w - 1 for x, w in zip(largest, widths))
            widest = max([widest, *widths])
        assert min(statuses.values()) >= 30
        assert widest >= 300

    def test_wider_than_one_chunk(self, solve_both, monkeypatch):
        # 33 to 80 structural columns and 16 to 30 rows of all three
        # relations, so the slack columns share a pricing chunk with the
        # last structural ones and run on into the next, and the artificial
        # columns fill chunks of their own.  Every entering column is
        # classed by where it sits in that layout.
        entered = []
        real = lp_module._pivot

        def classed(C, basis, d, row, col, *rest):
            entered.append(col)
            return real(C, basis, d, row, col, *rest)

        monkeypatch.setattr(lp_module, "_pivot", classed)
        rng = random.Random(181)
        statuses = {status: 0 for status in LpStatus}
        kinds = {"structural": 0, "slack, shared chunk": 0, "slack, later chunk": 0}
        for _ in range(40):
            lp = chunked_mixed_lp(rng)
            entered.clear()
            sol, _ = solve_both(lp, rng.choice(("max", "min")))
            statuses[sol.status] += 1
            n, chunk = lp.num_vars, lp_module._CHUNK
            art_start = n + sum(rel != "=" for _, rel, _ in lp.constraints)
            for col in entered:
                if col < n:
                    kinds["structural"] += 1
                elif col < art_start:
                    kinds["slack, shared chunk" if col // chunk == (n - 1) // chunk else "slack, later chunk"] += 1
        assert min(statuses.values()) >= 8
        assert min(kinds.values()) >= 20

    def test_chi_f_lps(self, solve_both, monkeypatch):
        # fractional_chromatic_number solves a CoveringProgram, whose
        # integer columns come straight from its row lists; every such call
        # must match the reference on the same program as a LinearProgram.
        # So must the all-sets oracle, whose empty set is an empty column.
        real = feasibility.solve_lp
        calls = []

        def checked(lp, sense):
            assert isinstance(lp, CoveringProgram)
            calls.append(lp)
            dense = LinearProgram(lp.objective, lp.constraints)
            return solve_both(dense, sense, lambda: real(lp, sense))[0]

        monkeypatch.setattr(feasibility, "solve_lp", checked)
        rng = random.Random(43)
        for _ in range(300):
            h = random_hypergraph(rng, max_links=8, max_edges=6)
            den = rng.choice((2, 3, 4, 6))
            tau = DemandVector(tuple(Fraction(rng.randint(0, den), den) for _ in range(h.num_links)))
            assert (
                fractional_chromatic_number(h, tau).value
                == checked(all_sets_program(h, tau), "min").value
            )
        assert len(calls) == 600


def naive_field(x, w, i):
    """Field ``i`` of ``x``, peeling the signed ``w``-bit fields off from
    field 0 up."""
    hw = 1 << (w - 1)
    for _ in range(i + 1):
        v = (x + hw) % (1 << w) - hw
        x = (x - v) >> w
    return v


def wide_mixed_lp(rng, size):
    """``random_mixed_lp`` with columns times integers up to 10^12 and
    right-hand sides moved by fractions over denominators up to 10^9."""
    lp = random_mixed_lp(rng, size)
    k = [rng.randint(1, 10**12) for _ in range(lp.num_vars)]
    return LinearProgram(
        lp.objective,
        tuple(
            (
                tuple(a * kj for a, kj in zip(coeffs, k)),
                rel,
                rhs + Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)),
            )
            for coeffs, rel, rhs in lp.constraints
        ),
    )


def chunked_mixed_lp(rng):
    """33 to 80 variables and 16 to 28 sparse rows of small ints, with all
    three relations and right-hand sides of either sign that hold at a
    random nonnegative point.  Two LPs in three also cap the sum of the
    variables, so they are bounded; one in four repeats a row as an equality
    past its bound, so it is infeasible."""
    n = rng.randint(33, 80)
    point = [Fraction(rng.randint(0, 4), rng.choice((1, 2, 3))) for _ in range(n)]
    cons = []
    if rng.random() < 2 / 3:
        cons.append(((1,) * n, "<=", sum(point) + rng.randint(0, 3)))
    for _ in range(rng.randint(16, 28)):
        row = tuple(rng.choice((-2, -1, 1, 2, 3)) if rng.random() < 0.15 else 0 for _ in range(n))
        rel = rng.choice(("<=", ">=", "="))
        rhs = sum(a * x for a, x in zip(row, point))
        if rel != "=":
            rhs += (1 if rel == "<=" else -1) * Fraction(rng.randint(0, 3), rng.choice((1, 2)))
        cons.append((row, rel, rhs))
    if rng.random() < 1 / 4:
        row, rel, rhs = rng.choice(cons)
        step = {"<=": 1, ">=": -1, "=": rng.choice((1, -1))}[rel]
        cons.insert(rng.randrange(len(cons) + 1), (row, "=", rhs + step * Fraction(rng.randint(1, 4), 2)))
    objective = tuple(Fraction(rng.randint(-3, 4), rng.choice((1, 2))) for _ in range(n))
    return LinearProgram(objective, tuple(cons))


class TestFieldReader:
    """``_field`` reads one signed field of a packed int: the fields below it
    round away while they stay below ``2^(w-1)`` in magnitude, as every field
    the core stores does, and the fields above it are masked off."""

    def test_matches_naive_decode(self):
        rng = random.Random(167)
        reads = 0
        for w in range(2, 201):
            hw = 1 << (w - 1)
            for _ in range(4):
                k = rng.randint(1, 8)
                below = [rng.choice((-(hw - 1), hw - 1, rng.randint(1 - hw, hw - 1))) for _ in range(k)]
                for i in (0, rng.randrange(k), k - 1, k):  # k is the top field
                    for v in (-hw, hw - 1, rng.randint(-hw, hw - 1)):
                        above = [rng.randint(-hw, hw - 1) for _ in range(rng.randint(0, 2))]
                        values = [*below[:i], v, *above]
                        x = lp_module._pack(values, w)
                        assert lp_module._field(x, w, i) == naive_field(x, w, i) == v
                        assert [lp_module._field(x, w, j) for j in range(i)] == below[:i]
                        reads += 1
        assert reads >= 199 * 4 * 4 * 3


class TestSelfPricedStart:
    """``_run_simplex`` writes the pricing row ``u = c_B * R`` for the cost it
    is given, so on each return every top field is the basic costs times the
    fields below it."""

    @pytest.fixture
    def phases(self, monkeypatch):
        """Per ``_run_simplex`` call, whether its cost prices artificials
        (phase 1); every return is checked."""
        log = []
        real = lp_module._run_simplex

        def checked(C, basis, d, cols, chunks, w, cost):
            out = real(C, basis, d, cols, chunks, w, cost)
            m = len(basis)
            cb = [cost[bi] if bi < len(cost) else 0 for bi in basis]
            for c in C:
                fields = [naive_field(c, w, i) for i in range(m + 1)]
                assert fields[m] == sum(a * v for a, v in zip(cb, fields))
            # Only phase 1 prices every column, the last an artificial at -1.
            log.append(len(cost) == len(cols) and cost[-1:] == [-1])
            return out

        monkeypatch.setattr(lp_module, "_run_simplex", checked)
        return log

    def test_covering_programs(self, phases):
        rng = random.Random(173)
        for _ in range(40):
            h = random_hypergraph(rng, max_links=10)
            sets = [sorted(s) for s in enumerate_maximal_independent_sets(h)]
            solve_lp(CoveringProgram(sets, random_demand(rng, h.num_links)), rng.choice(("min", "max")))
        assert phases.count(True) >= 30 and phases.count(False) >= 30

    @pytest.mark.parametrize("make", [random_mixed_lp, wide_mixed_lp], ids=["mixed", "wide"])
    def test_mixed_relations(self, phases, make):
        rng = random.Random(179)
        for _ in range(200):
            solve_lp(make(rng, 5), rng.choice(("max", "min")))
        assert phases.count(True) >= 100 and phases.count(False) >= 40
