#!/usr/bin/env python3
"""Randomized agreement sweep over small hypergraphs.

Checks, on seeded random instances:
  - beta by enumeration, whose walk starts just below its own sigma, ==
    the interference degree sigma of the report, and its witness is the
    first (link, independent set) of a brute-force scan that attains the
    largest per-link bound,
  - chi_f <= B <= sigma * chi_f for nonzero demands,
  - chi_f's witness is a valid schedule of total duration chi_f,
  - the duals y of the covering LP over the maximal sets certify chi_f:
    y >= 0, y . tau == chi_f, and y(S) <= 1 for every independent set S
    (all of them, not only the maximal columns that priced the LP), which
    proves chi_f optimal over all independent sets by weak duality,
  - the maximal sets, in order, are the maximal ones among all independent
    sets,
  - on a random admissible matrix other than delta (delta plus p/q, q in
    2..7, on random neighbor pairs), the weighted condition's per-link sums
    equal a dense Fraction recomputation,
  - the greedy pass succeeds under random orders whenever the weighted
    condition holds, and its interval assignment passes
    ``validate_assignment`` (each link's measure equals its demand and no
    edge is ever fully active),
  - the per-step accounting inequality never fails for either matrix, and
    its weighted side equals the dense recomputation,
  - on a random ``LinearProgram`` with wide entries (coefficients up to
    about 10^12, right-hand sides over denominators up to 10^9, all three
    relations, either sense), an optimal answer is primal feasible, its
    duals have the sign each relation and the sense allow, each column's
    dual sum lies on the right side of its objective entry, and the value
    equals both c . x and y . b, all recomputed in Fractions.

Exits nonzero if any check fails.
"""

import argparse
import random
import sys
from fractions import Fraction
from operator import mul

from hypersched import (
    CoveringProgram,
    DemandVector,
    HyperschedError,
    LinearProgram,
    LpStatus,
    ScheduleStuck,
    WeightMatrix,
    b_bound,
    beta_by_enumeration,
    check_delta_condition,
    check_weighted_condition,
    delta_matrix,
    enumerate_independent_sets,
    enumerate_maximal_independent_sets,
    fractional_chromatic_number,
    greedy_schedule,
    greedy_step_bound,
    interference_metrics,
    minimalize,
    solve_lp,
    validate_assignment,
    validate_schedule,
)


def random_hypergraph(rng, max_links, max_edges):
    n = rng.randint(2, max_links)
    raw = []
    for _ in range(rng.randint(0, max_edges)):
        size = rng.randint(2, min(5, n))
        raw.append(rng.sample(range(n), size))
    return minimalize(n, raw)


def random_demand(rng, n):
    den = rng.choice([2, 3, 4, 6, 12])
    return DemandVector(tuple(Fraction(rng.randint(0, den), den) for _ in range(n)))


def random_weights(rng, h):
    """An admissible matrix other than delta: delta plus p/q, q in 2..7, on
    random neighbor pairs, capped at 1 (edge row sums stay >= 1)."""
    rows = [dict(row) for row in delta_matrix(h).rows]
    for i, row in enumerate(rows):
        for j in row:
            if j > i and rng.random() < 0.5:
                q = rng.randint(2, 7)
                row[j] = rows[j][i] = min(Fraction(1), row[j] + Fraction(rng.randint(1, q), q))
    return WeightMatrix.from_rows(rows)


def dense_sums(w, tau):
    """tau[i] + sum_j W[i][j] * tau[j] over every j, in Fractions."""
    n = len(tau)
    return tuple(tau[i] + sum((w[i, j] * tau[j] for j in range(n)), Fraction(0)) for i in range(n))


def dense_rhs(w, assigned, link):
    """The weighted side of the step inequality, over every j, in Fractions."""
    return sum(
        (w[link, j] * js.measure for j, js in enumerate(assigned) if js is not None),
        Fraction(0),
    )


def random_wide_lp(rng):
    """Up to 5 variables and 5 rows with coefficients up to about 10^12,
    all three relations and right-hand sides of either sign over
    denominators up to 10^9."""
    n = rng.randint(1, 5)

    def coefficient():
        return Fraction(rng.randint(-4, 6) * rng.randint(1, 10**12), rng.choice((1, 2, 3, 5)))

    rows = tuple(
        (
            tuple(coefficient() for _ in range(n)),
            rng.choice(("<=", ">=", "=")),
            Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)),
        )
        for _ in range(rng.randint(1, 5))
    )
    objective = tuple(Fraction(rng.randint(-4, 6), rng.choice((1, 2, 3))) for _ in range(n))
    return LinearProgram(objective, rows)


def lp_faults(lp, sense, sol):
    """What an optimal ``sol`` of ``lp`` gets wrong, recomputed in Fractions:
    primal feasibility, the dual signs, each column's dual sum against its
    objective entry, and the value against c . x and y . b."""
    x, y = sol.assignment, sol.duals
    s = 1 if sense == "max" else -1
    faults = []
    if any(v < 0 for v in x):
        faults.append("a variable is negative")
    for i, ((coeffs, rel, rhs), v) in enumerate(zip(lp.constraints, y)):
        lhs = sum(map(mul, coeffs, x), Fraction(0))
        if not (lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs):
            faults.append(f"row {i} does not hold")
        if (rel == "<=" and s * v < 0) or (rel == ">=" and s * v > 0):
            faults.append(f"dual {i} has the wrong sign")
    for j, c in enumerate(lp.objective):
        column = sum((v * coeffs[j] for v, (coeffs, _, _) in zip(y, lp.constraints)), Fraction(0))
        if s * column < s * c:
            faults.append(f"column {j}'s dual sum is on the wrong side of its objective entry")
    if sum(map(mul, lp.objective, x), Fraction(0)) != sol.value:
        faults.append("the value is not c . x")
    if sum((v * rhs for v, (_, _, rhs) in zip(y, lp.constraints)), Fraction(0)) != sol.value:
        faults.append("the value is not y . b")
    return faults


def maximal_filter(h):
    """The maximal sets among all independent sets, in their order."""
    sets = enumerate_independent_sets(h)
    known = set(sets)
    return [
        s
        for s in sets
        if all(s | {v} not in known for v in range(h.num_links) if v not in s)
    ]


def brute_beta(h):
    """The largest per-link bound b_bound over links x independent sets,
    with the lexicographically first (link, set) attaining it: links
    ascending, sets in enumeration order."""
    n = h.num_links
    demands = [DemandVector.characteristic(n, s) for s in enumerate_independent_sets(h)]
    bounds = [b_bound(h, tau).per_link for tau in demands]
    best = max(max(per) for per in bounds)
    link = min(i for per in bounds for i in range(n) if per[i] == best)
    demand = next(tau for tau, per in zip(demands, bounds) if per[link] == best)
    return best, link, demand


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-links", type=int, default=8)
    ap.add_argument("--max-edges", type=int, default=6)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    # The wide LPs draw from their own stream, so the instances do not depend on them.
    lp_rng = random.Random(f"wide-lp:{args.seed}")
    failures = 0
    greedy_runs = 0
    wide_optimal = 0
    for k in range(args.count):
        h = random_hypergraph(rng, args.max_links, args.max_edges)
        tau = random_demand(rng, h.num_links)

        worst = beta_by_enumeration(h)
        beta = worst.beta
        sigma = interference_metrics(h).sigma
        if beta != sigma:
            print(f"[{k}] beta {beta} != sigma {sigma} on {h}")
            failures += 1
        brute = brute_beta(h)
        if (beta, worst.link, worst.demand) != brute:
            print(f"[{k}] beta witness (link {worst.link + 1}) differs from the brute-force scan on {h}")
            failures += 1

        chi, witness = fractional_chromatic_number(h, tau)
        try:
            validate_schedule(h, witness, tau, max_total=chi)
        except HyperschedError as e:
            print(f"[{k}] chi_f witness rejected: {e}")
            failures += 1
        columns = [sorted(s) for s in enumerate_maximal_independent_sets(h)]
        sol = solve_lp(CoveringProgram(columns, tau), "min")
        y = sol.duals
        if sol.value != chi or min(y) < 0 or sum(map(mul, y, tau)) != chi:
            print(f"[{k}] covering LP value {sol.value}, duals {list(map(str, y))} do not certify chi_f = {chi} on {h}")
            failures += 1
        if any(sum((y[i] for i in s), Fraction(0)) > 1 for s in enumerate_independent_sets(h)):
            print(f"[{k}] covering LP duals {list(map(str, y))} give some independent set more than 1 on {h}")
            failures += 1
        if enumerate_maximal_independent_sets(h) != maximal_filter(h):
            print(f"[{k}] maximal sets differ from the filter of all sets on {h}")
            failures += 1

        bound = b_bound(h, tau).value
        if chi > bound or (not tau.is_zero and bound > sigma * chi):
            print(f"[{k}] ratio sandwich broken: chi={chi} B={bound} sigma={sigma}")
            failures += 1

        d, w = delta_matrix(h), random_weights(rng, h)
        if check_weighted_condition(h, w, tau).per_link != dense_sums(w, tau):
            print(f"[{k}] weighted sums differ from the dense recomputation on {h}")
            failures += 1
        if check_delta_condition(h, tau).holds:
            greedy_runs += 1
            order = tuple(rng.sample(range(h.num_links), h.num_links))
            steps = []
            try:
                assigned = greedy_schedule(
                    h, tau, order, step_callback=lambda link, a: steps.append((link, a))
                )
                validate_assignment(h, assigned, tau)
            except ScheduleStuck as e:
                print(f"[{k}] greedy stuck despite condition: {e}")
                failures += 1
            except HyperschedError as e:
                print(f"[{k}] greedy assignment rejected: {e}")
                failures += 1
            for m in (d, w):
                bounds = [(greedy_step_bound(h, m, a, link), dense_rhs(m, a, link)) for link, a in steps]
                if any(lhs > rhs or rhs != dense for (lhs, rhs), dense in bounds):
                    print(f"[{k}] step accounting violated")
                    failures += 1

        lp, sense = random_wide_lp(lp_rng), lp_rng.choice(("max", "min"))
        sol = solve_lp(lp, sense)
        if sol.status is LpStatus.OPTIMAL:
            wide_optimal += 1
            for fault in lp_faults(lp, sense, sol):
                print(f"[{k}] wide LP ({sense}): {fault}")
                failures += 1

    print(
        f"{args.count} instances checked, {greedy_runs} greedy runs, "
        f"{wide_optimal} wide LPs optimal, {failures} failures"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
