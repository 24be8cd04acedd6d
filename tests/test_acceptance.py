"""Acceptance suite: one test per criterion, all comparisons exact.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  The random suites are seeded session fixtures (see conftest), so
every run checks the same instances.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from hypersched import (
    DemandVector,
    LinearProgram,
    LpStatus,
    Schedule,
    ScheduleStuck,
    automorphisms,
    b_bound,
    beta_by_enumeration,
    beta_star_formula,
    check_delta_condition,
    check_edge_min_condition,
    delta_matrix,
    enumerate_independent_sets,
    enumerate_maximal_independent_sets,
    fractional_chromatic_number,
    greedy_schedule,
    greedy_step_bound,
    interference_metrics,
    is_beta_star,
    solve_lp,
    symmetrize_demand,
    validate_assignment,
    validate_schedule,
)
from hypersched.cli import main
from conftest import STAR2X4, STAR_TAU, TRIANGLE, all_sets_program, is_feasible

F = Fraction


def test_criterion_01_triangle_maximal_sets():
    got = set(enumerate_maximal_independent_sets(TRIANGLE))
    assert got == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}


def test_criterion_02_bound_exceeds_degree_estimate():
    assert is_feasible(STAR2X4, STAR_TAU)
    witness = Schedule((({0, 1, 2, 4, 5}, F(1, 2)), ({1, 2, 3, 4, 5, 6}, F(1, 2))))
    validate_schedule(STAR2X4, witness, STAR_TAU)
    bound = b_bound(STAR2X4, STAR_TAU).value
    degree_estimate = interference_metrics(STAR2X4).delta
    assert bound == F(13, 6)
    assert degree_estimate == 2
    assert bound > degree_estimate


def test_criterion_03_four_routes_to_the_same_ratio():
    assert interference_metrics(STAR2X4).sigma == F(7, 3)
    assert beta_by_enumeration(STAR2X4).beta == F(7, 3)
    profile = is_beta_star(STAR2X4)
    assert profile is not None
    assert beta_star_formula(profile) == F(7, 3)
    lp = LinearProgram((21, 2), (((9, 1), "<=", 1),))
    sol = solve_lp(lp, "max")
    assert sol.status is LpStatus.OPTIMAL
    assert sol.value == F(7, 3)


def test_criterion_04_symmetrization_golden():
    tau = DemandVector((1, 1, 1, 0, 1, 1, 0))
    order, orbits = automorphisms(STAR2X4)
    sym = symmetrize_demand(STAR2X4, tau, orbits)
    assert sym.values == (1, F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3))
    assert order == 72
    assert orbits[0] == (0,)


def test_criterion_05_beta_equals_sigma_on_random_suite(hypergraph_suite):
    start = time.monotonic()
    assert len(hypergraph_suite) >= 200
    for h in hypergraph_suite:
        assert beta_by_enumeration(h).beta == interference_metrics(h).sigma
    assert time.monotonic() - start <= 60


@pytest.fixture(scope="module")
def greedy_runs(pair_suite):
    """Criteria 6b and 7 share the instrumented greedy runs over the suite."""
    import random

    rng = random.Random(0xD1CE)
    runs = []
    for h, tau in pair_suite:
        if not check_delta_condition(h, tau).holds:
            continue
        w = delta_matrix(h)
        orders = [None] + [
            tuple(rng.sample(range(h.num_links), h.num_links)) for _ in range(5)
        ]
        for order in orders:
            bounds = []

            def watch(link, assigned):
                bounds.append(greedy_step_bound(h, w, assigned, link))

            outcome = None
            try:
                assigned = greedy_schedule(h, tau, order, step_callback=watch)
                outcome = assigned
            except ScheduleStuck:
                pass
            runs.append((h, tau, outcome, bounds))
    return runs


def test_criterion_06a_edge_min_condition_implies_feasible(pair_suite):
    assert len(pair_suite) >= 200
    triggered = 0
    for h, tau in pair_suite:
        if check_edge_min_condition(h, tau).holds:
            triggered += 1
            assert is_feasible(h, tau)
    assert triggered >= 30  # the implication must not pass vacuously


def test_criterion_06b_delta_condition_implies_greedy_success(greedy_runs):
    assert len(greedy_runs) >= 30
    for h, tau, assigned, _ in greedy_runs:
        assert assigned is not None, "greedy got stuck despite the condition"
        validate_assignment(h, assigned, tau)


def test_criterion_06c_bound_sandwich(pair_suite):
    nonzero = 0
    for h, tau in pair_suite:
        chi = fractional_chromatic_number(h, tau).value
        bound = b_bound(h, tau).value
        assert chi <= bound
        if not tau.is_zero:
            nonzero += 1
            assert bound <= interference_metrics(h).sigma * chi
    assert nonzero >= 100


def test_criterion_07_step_bound_never_violated(greedy_runs):
    total_steps = 0
    for _, _, _, bounds in greedy_runs:
        for lhs, rhs in bounds:
            total_steps += 1
            assert lhs <= rhs
    assert total_steps > 0


def test_criterion_08_graph_specialization(graph_suite):
    assert len(graph_suite) >= 50
    for h in graph_suite:
        rep = interference_metrics(h)
        assert rep.sigma == _induced_star_number(h)
        assert all(m.value == 1 for m in rep.per_link_doubleprime)


def _induced_star_number(h):
    """Independent brute force: largest independent subset of a neighborhood."""
    adj = {i: set() for i in range(h.num_links)}
    pairs = set()
    for a, b in h.edges:
        adj[a].add(b)
        adj[b].add(a)
        pairs.add(frozenset((a, b)))
    best = 0
    for v in range(h.num_links):
        nb = sorted(adj[v])
        for r in range(len(nb), best, -1):
            if any(
                not any(frozenset(p) in pairs for p in combinations(combo, 2))
                for combo in combinations(nb, r)
            ):
                best = r
                break
    return best


def test_criterion_09_enumeration_and_column_oracles(
    hypergraph_suite, pair_suite, graph_suite
):
    every_h = (
        hypergraph_suite
        + [h for h, _ in pair_suite]
        + graph_suite
        + [TRIANGLE, STAR2X4]
    )
    for h in every_h:
        if h.num_links > 12:
            continue
        got = enumerate_independent_sets(h)
        brute = [
            frozenset(c)
            for r in range(h.num_links + 1)
            for c in combinations(range(h.num_links), r)
            if not any(es <= frozenset(c) for es in h.edge_sets)
        ]
        assert sorted(got, key=sorted) == sorted(brute, key=sorted)
    for h, tau in pair_suite:
        assert (
            fractional_chromatic_number(h, tau).value
            == solve_lp(all_sets_program(h, tau), "min").value
        )
    assert solve_lp(all_sets_program(STAR2X4, STAR_TAU), "min").value == 1


def test_criterion_10_cli_contract(tmp_path, capsys):
    star = tmp_path / "star.hg"
    star.write_text("links 7\nedge 1 2 3 4\nedge 1 5 6 7\n")
    tri = tmp_path / "triangle.hg"
    tri.write_text("links 3\nedge 1 2 3\n")
    dem = tmp_path / "star.demand"
    dem.write_text("demand 1/2 1 1 1/2 1 1 1/2\n")

    code = main(["beta", str(star)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "beta = 7/3\nsigma = 7/3\nwitness link: 1\ndemand 1 1 1 0 1 1 0\n"

    code = main(["check", str(star), "--demand", str(dem), "--rule", "cor4"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == (
        "link 1: 13/6\nlink 2: 5/3\nlink 3: 5/3\nlink 4: 4/3\n"
        "link 5: 5/3\nlink 6: 5/3\nlink 7: 4/3\nFAILS\n"
    )

    code = main(["indep-sets", str(tri), "--maximal"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "1 2\n1 3\n2 3\n"
