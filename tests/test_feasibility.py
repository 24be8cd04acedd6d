"""Feasibility semantics: maximal-set incidence, chi_f LP, schedule validation."""

import random
import time
from fractions import Fraction

import pytest

from hypersched import (
    DemandUnmet,
    DemandVector,
    DurationExceedsOne,
    Hypergraph,
    LinearProgram,
    LpSolution,
    LpStatus,
    NotIndependent,
    Schedule,
    SizeLimitExceeded,
    SolverInvariantError,
    enumerate_maximal_independent_sets,
    fractional_chromatic_number,
    minimalize,
    solve_lp,
    validate_schedule,
)
from hypersched import feasibility
from hypersched import lp as lp_module
from conftest import (
    brute_automorphisms,
    is_feasible,
    permute_demand,
    random_demand,
    random_hypergraph,
    stop_phase_two_early,
    wall_instance,
    zeros,
)

F = Fraction


class TestIncidenceMatrix:
    """The link x maximal-set incidence that the chi_f LP's rows cover."""

    def test_triangle(self, triangle):
        sets = enumerate_maximal_independent_sets(triangle)
        assert len(sets) == 3
        for i in range(triangle.num_links):
            assert sum(i in s for s in sets) == 2

    def test_edgeless(self):
        assert enumerate_maximal_independent_sets(Hypergraph(2)) == [frozenset({0, 1})]

    def test_star_row0(self, star2x4):
        sets = enumerate_maximal_independent_sets(star2x4)
        assert len(sets) == 10
        assert sum(0 in s for s in sets) == 9


class TestChiF:
    def test_star_demand_exactly_one(self, star2x4, star_tau):
        value, witness = fractional_chromatic_number(star2x4, star_tau)
        assert value == 1
        validate_schedule(star2x4, witness, star_tau)

    def test_zero_demand(self, star2x4):
        value, witness = fractional_chromatic_number(
            star2x4, zeros(7)
        )
        assert value == 0
        assert witness.entries == ()

    def test_triangle_all_ones(self, triangle):
        # Lower bound by counting: every independent set covers at most 2 of
        # the 3 unit demands, so any schedule lasts >= 3/2; t = (1/2,1/2,1/2)
        # over the three pairs attains it.
        value, witness = fractional_chromatic_number(triangle, DemandVector((1, 1, 1)))
        assert value == F(3, 2)
        validate_schedule(triangle, witness, DemandVector((1, 1, 1)), max_total=value)

    def test_witness_total_equals_value(self):
        rng = random.Random(37)
        for _ in range(25):
            h = random_hypergraph(rng, max_links=6)
            tau = random_demand(rng, h.num_links)
            value, witness = fractional_chromatic_number(h, tau)
            assert witness.total_duration == value
            validate_schedule(h, witness, tau, max_total=value)

    def test_monotone_and_scaling(self):
        rng = random.Random(41)
        for _ in range(20):
            h = random_hypergraph(rng, max_links=6)
            tau = random_demand(rng, h.num_links)
            value = fractional_chromatic_number(h, tau).value
            bumped = DemandVector(
                tuple(min(F(1), v + F(1, 6)) for v in tau)
            )
            assert fractional_chromatic_number(h, bumped).value >= value
            c = F(rng.randint(0, 3), 3)
            assert fractional_chromatic_number(h, DemandVector(tuple(c * v for v in tau))).value == c * value

    def test_automorphism_invariance(self):
        rng = random.Random(43)
        for _ in range(10):
            h = random_hypergraph(rng, max_links=6)
            tau = random_demand(rng, h.num_links)
            value = fractional_chromatic_number(h, tau).value
            for perm in brute_automorphisms(h):
                assert fractional_chromatic_number(h, permute_demand(perm, tau)).value == value

    def test_maximal_columns_match_all_columns(self):
        rng = random.Random(47)
        for _ in range(15):
            h = random_hypergraph(rng, max_links=6)
            tau = random_demand(rng, h.num_links)
            a = fractional_chromatic_number(h, tau, columns="maximal").value
            b = fractional_chromatic_number(h, tau, columns="all").value
            assert a == b


class TestIsFeasible:
    def test_star_demand(self, star2x4, star_tau):
        assert is_feasible(star2x4, star_tau)

    def test_triangle_all_ones(self, triangle):
        assert not is_feasible(triangle, DemandVector((1, 1, 1)))

    def test_characteristic_vectors(self):
        rng = random.Random(53)
        for _ in range(20):
            h = random_hypergraph(rng, max_links=6)
            from hypersched import enumerate_independent_sets

            for s in enumerate_independent_sets(h):
                if rng.random() < 0.2:
                    tau = DemandVector.characteristic(h.num_links, s)
                    assert is_feasible(h, tau)


class TestValidateSchedule:
    def test_star_witness(self, star2x4, star_tau):
        sched = Schedule(
            (({0, 1, 2, 4, 5}, F(1, 2)), ({1, 2, 3, 4, 5, 6}, F(1, 2)))
        )
        validate_schedule(star2x4, sched, star_tau)

    def test_dependent_set(self, triangle):
        sched = Schedule((({0, 1, 2}, F(1, 2)),))
        with pytest.raises(NotIndependent):
            validate_schedule(triangle, sched, zeros(3))

    def test_unmet_demand(self, triangle):
        with pytest.raises(DemandUnmet) as err:
            validate_schedule(
                triangle, Schedule(()), DemandVector((F(1, 2), 0, 0))
            )
        assert err.value.link == 0
        assert err.value.covered == 0
        assert err.value.required == F(1, 2)

    def test_first_unmet_link_matches_per_link_scan(self):
        """Coverage is summed in one pass over the entries; the fault is the
        one a per-link scan finds first, and a link outside ``h`` covers
        nothing."""
        rng = random.Random(59)
        faults = 0
        for _ in range(200):
            h = random_hypergraph(rng, max_links=6)
            n = h.num_links
            sets = enumerate_maximal_independent_sets(h)
            entries = [(rng.choice(sets) | {n}, F(rng.randint(1, 4), 12)) for _ in range(3)]
            tau = random_demand(rng, n)
            covered = [sum((d for s, d in entries if i in s), F(0)) for i in range(n)]
            unmet = [(i, covered[i], tau[i]) for i in range(n) if covered[i] < tau[i]]
            try:
                validate_schedule(h, Schedule(tuple(entries)), tau)
            except DemandUnmet as err:
                faults += 1
                assert (err.link, err.covered, err.required) == unmet[0]
            else:
                assert not unmet
        assert faults >= 100

    def test_duration_budget(self, triangle):
        sched = Schedule((({0, 1}, F(3, 4)), ({1, 2}, F(1, 2))))
        with pytest.raises(DurationExceedsOne) as err:
            validate_schedule(triangle, sched, zeros(3))
        assert err.value.total == F(5, 4)
        validate_schedule(triangle, sched, zeros(3), max_total=F(5, 4))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Schedule((({0}, F(-1, 2)),))


class TestDemandVector:
    def test_range_check(self):
        with pytest.raises(ValueError):
            DemandVector((F(3, 2),))
        with pytest.raises(ValueError):
            DemandVector((-1,))

    def test_length_check(self, triangle):
        with pytest.raises(ValueError):
            is_feasible(triangle, DemandVector((1, 1)))

    def test_characteristic(self):
        tau = DemandVector.characteristic(4, {1, 3})
        assert tau.values == (0, 1, 0, 1)

    @pytest.mark.parametrize("links", [[5], [3], [-1], [1.5], ["1"], [0, 3]])
    def test_characteristic_rejects_bad_ids(self, links):
        with pytest.raises(ValueError, match="0..2"):
            DemandVector.characteristic(3, links)


def pinned_instance(seed):
    """A seeded random hypergraph on 12-15 links with 2N edges of 2-4 links,
    and a demand of 1/d per link."""
    rng = random.Random(seed)
    n = rng.randint(12, 15)
    raw = [rng.sample(range(n), rng.randint(2, 4)) for _ in range(2 * n)]
    h = minimalize(n, raw)
    tau = tuple(F(1, rng.randint(1, 6)) for _ in range(n))
    return h, tau


# chi_f and its witness schedule (sets and durations, in order) for
# pinned_instance(seed).  The witness is the simplex's final basis, so any
# change in the pivot sequence shows up here.
PINNED_CHI_F = (
    (1, F('3/2'), (
        ((0, 1, 2, 3, 4, 5), F('37/60')),
        ((0, 1, 2, 3, 8, 9), F('1/20')),
        ((0, 1, 2, 4, 5, 7), F('1/6')),
        ((0, 1, 2, 5, 7, 9, 10), F('1/60')),
        ((0, 1, 4, 5, 7, 10), F('7/60')),
        ((0, 3, 5, 9, 12), F('2/15')),
        ((1, 2, 5, 6, 7, 10), F('1/5')),
        ((1, 3, 8, 11, 12), F('1/5')),
    )),
    (2, F('2'), (
        ((0, 1, 2, 4, 6, 11), F('4/5')),
        ((0, 1, 2, 4, 7, 11), F('1/5')),
        ((0, 1, 6, 8, 9), F('1/3')),
        ((0, 1, 6, 8, 10), F('1/6')),
        ((1, 3, 4, 6, 8), F('1/6')),
        ((3, 4, 5, 6, 8), F('1/3')),
    )),
    (3, F('19/15'), (
        ((0, 1, 2, 3, 6, 9), F('1/5')),
        ((0, 1, 2, 3, 8, 12), F('2/15')),
        ((0, 1, 2, 6, 10), F('1/15')),
        ((0, 1, 3, 6, 8, 10), F('1/60')),
        ((0, 2, 3, 5, 8, 12), F('2/15')),
        ((0, 2, 5, 6, 11, 12), F('1/15')),
        ((0, 3, 6, 7, 8, 10), F('1/4')),
        ((1, 2, 3, 4, 6, 8), F('4/15')),
        ((1, 2, 6, 8, 11), F('2/15')),
    )),
    (4, F('7/3'), (
        ((0, 1, 2, 4, 5, 6), F('5/6')),
        ((0, 1, 2, 6, 9, 10), F('7/12')),
        ((0, 1, 2, 8, 9, 10), F('1/4')),
        ((0, 2, 3, 6, 7, 11), F('1/3')),
        ((0, 2, 3, 6, 9, 10), F('1/6')),
        ((0, 2, 4, 5, 6, 12), F('1/6')),
    )),
    (5, F('5/4'), (
        ((0, 1, 3, 4, 6, 8, 10, 11, 13), F('1/12')),
        ((0, 1, 4, 6, 8, 9, 10, 11, 12), F('1/12')),
        ((0, 1, 4, 6, 8, 10, 11, 12, 13), F('1/4')),
        ((0, 2, 4, 6, 8, 9, 10, 11), F('1/6')),
        ((0, 2, 5, 6, 10, 12), F('1/6')),
        ((1, 3, 4, 7, 8, 9, 10, 11), F('1/4')),
        ((1, 4, 6, 7, 8, 9, 10, 11), F('1/6')),
        ((1, 5, 6, 7, 8, 10), F('1/12')),
    )),
)


class TestPinnedWitness:
    @pytest.mark.parametrize(
        "seed, value, entries", PINNED_CHI_F, ids=[f"seed{seed}" for seed, _, _ in PINNED_CHI_F]
    )
    def test_value_and_witness(self, seed, value, entries):
        h, tau = pinned_instance(seed)
        result = fractional_chromatic_number(h, tau)
        assert result.value == value
        assert [(tuple(sorted(s)), d) for s, d in result.witness.entries] == list(entries)


class TestChiFDuals:
    def test_duals_certify_chi_f(self):
        # Built as fractional_chromatic_number builds it: y >= 0, y(S) <= 1
        # for every maximal independent set S and y . tau == chi_f.
        rng = random.Random(59)
        for _ in range(15):
            h = random_hypergraph(rng, max_links=10, max_edges=8)
            tau = random_demand(rng, h.num_links)
            sets = enumerate_maximal_independent_sets(h)
            lp = LinearProgram(
                len(sets),
                (1,) * len(sets),
                tuple(
                    (tuple(1 if i in s else 0 for s in sets), ">=", tau[i])
                    for i in range(h.num_links)
                ),
            )
            sol = solve_lp(lp, "min")
            y = sol.duals
            assert sol.value == fractional_chromatic_number(h, tau).value
            assert all(v >= 0 for v in y)
            assert all(sum(y[i] for i in s) <= 1 for s in sets)
            assert sum(v * t for v, t in zip(y, tau)) == sol.value


class TestSolverInvariant:
    def test_non_optimal_coverage_lp_raises(self, triangle, monkeypatch):
        monkeypatch.setattr(
            feasibility, "solve_lp", lambda lp, sense: LpSolution(LpStatus.INFEASIBLE)
        )
        with pytest.raises(SolverInvariantError, match="infeasible"):
            fractional_chromatic_number(triangle, DemandVector((1, 1, 1)))

    def test_phase_two_stopped_at_its_start_raises(self, monkeypatch):
        """Stopped before its first pivot, phase 2 leaves a feasible basis
        worth 3/7 where chi_f is 2/7, and its witness schedule validates;
        only the duals' feasibility shows that the basis is not optimal."""
        h = wall_instance(8)
        tau = DemandVector((F(1, 7),) * 8)
        assert fractional_chromatic_number(h, tau).value == F(2, 7)
        stop_phase_two_early(monkeypatch.setattr)
        with pytest.raises(SolverInvariantError, match="column 3 prices below its cost at the optimum"):
            fractional_chromatic_number(h, tau)


class TestPivotCounts:
    """chi_f at demand 1/2 on the wall instances past the default limit:
    value, witness size and the number of simplex pivots.  The pivot count
    pins the pivot sequence, which rescaling the columns must not change."""

    @pytest.mark.parametrize(
        "n, pivots, value, sets",
        [(24, 699, F(9, 8), 9), (26, 823, F(7, 6), 7), (28, 403, F(1), 2)],
        ids=["n24", "n26", "n28"],
    )
    def test_wall_instance(self, n, pivots, value, sets, monkeypatch):
        real = lp_module._pivot
        count = []

        def counting(*args):
            count.append(1)
            return real(*args)

        monkeypatch.setattr(lp_module, "_pivot", counting)
        h = wall_instance(n)
        tau = DemandVector((F(1, 2),) * n)
        result = fractional_chromatic_number(h, tau, limit=n)
        validate_schedule(h, result.witness, tau, max_total=result.value)
        assert (len(count), result.value, len(result.witness.entries)) == (pivots, value, sets)


class TestChunkedPricing:
    """chi_f at demand 1/2 on the N = 26 wall instance.  Bland's scan prices
    every column ``lp._CHUNK`` at a time, the set columns, then the 26
    surplus columns, then the 26 artificial columns from a fresh chunk, and
    stops at the first chunk holding a negative reduced cost.  So each pivot
    prices up to and including the chunk that holds its entering column, and
    each phase's final scan prices every chunk it may enter: phase 1 all of
    them, phase 2 all but the artificial ones.  The total is far below
    pivots times chunks."""

    def test_wall_instance_n26(self, monkeypatch):
        real_costs, real_pivot = lp_module._reduced_costs, lp_module._pivot
        priced, entered = [0], []

        def counting(*args):
            priced[0] += 1
            return real_costs(*args)

        def pivoting(C, basis, d, row, col, *rest):
            entered.append(col)
            return real_pivot(C, basis, d, row, col, *rest)

        monkeypatch.setattr(lp_module, "_reduced_costs", counting)
        monkeypatch.setattr(lp_module, "_pivot", pivoting)
        h = wall_instance(26)
        fractional_chromatic_number(h, DemandVector((F(1, 2),) * 26), limit=26)
        sets = len(enumerate_maximal_independent_sets(h, limit=26))
        art_start = sets + 26
        chunks = -(-art_start // lp_module._CHUNK)  # the set and surplus columns
        art_chunks = -(-26 // lp_module._CHUNK)

        def chunk(col):
            if col < art_start:
                return col // lp_module._CHUNK
            return chunks + (col - art_start) // lp_module._CHUNK

        expected = sum(chunk(col) + 1 for col in entered)
        assert (sets, len(entered), priced[0]) == (863, 823, 4584)
        assert priced[0] == expected + (chunks + art_chunks) + chunks
        assert priced[0] * 4 < len(entered) * chunks


class TestSizeWall:
    """Past the default size limit, chi_f on the N = 26 wall instance (863
    maximal-set columns) solves exactly, with a valid witness, far below the
    bound."""

    def test_chi_f_n26(self):
        h = wall_instance(26)
        tau = DemandVector((Fraction(1, 2),) * 26)
        with pytest.raises(SizeLimitExceeded):
            fractional_chromatic_number(h, tau)
        start = time.perf_counter()
        value, witness = fractional_chromatic_number(h, tau, limit=26)
        validate_schedule(h, witness, tau, max_total=value)
        elapsed = time.perf_counter() - start
        assert value == Fraction(7, 6)
        assert len(witness.entries) == 7
        assert elapsed < 5.0
