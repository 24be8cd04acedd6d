#!/usr/bin/env python3
"""Walk through the two-petal star hypergraph where the degree-style estimate
understates the worst case.

Two 4-link edges share a center link.  A feasible demand exists whose
per-link bound reaches 13/6 even though the degree estimate Delta is 2, and
the exact worst-case ratio is 7/3 -- computable four independent ways.
"""

from fractions import Fraction as F

from hypersched import (
    DemandVector,
    Hypergraph,
    LinearProgram,
    automorphisms,
    b_bound,
    beta_by_enumeration,
    beta_star_formula,
    check_delta_condition,
    fractional_chromatic_number,
    greedy_schedule,
    interference_metrics,
    is_beta_star,
    solve_lp,
    symmetrize_demand,
    validate_assignment,
    validate_schedule,
)
from hypersched.formats import format_demand_line, format_interval_set


def main():
    h = Hypergraph(7, ((0, 1, 2, 3), (0, 4, 5, 6)))
    tau = DemandVector((F(1, 2), 1, 1, F(1, 2), 1, 1, F(1, 2)))

    print("hypergraph: 7 links, edges {1,2,3,4} and {1,5,6,7}")
    print(f"demand:     {format_demand_line(tau)}")
    print()

    chi, witness = fractional_chromatic_number(h, tau)
    validate_schedule(h, witness, tau)
    print(f"chi_f = {chi}  (feasible: an optimal schedule fits in one unit of time)")
    for s, d in witness.entries:
        print(f"  {' '.join(str(v + 1) for v in sorted(s))} : {d}")
    print()

    bound, per = b_bound(h, tau)
    rep = interference_metrics(h)
    worst = beta_by_enumeration(h)
    print(f"per-link bound B = {bound}  (at the center: {per[0]})")
    print(f"degree estimate Delta = {rep.delta}")
    print(f"=> the bound overshoots a feasible demand by more than Delta: {bound} > {rep.delta}")
    print()

    print("the exact worst-case ratio, four ways:")
    print(f"  interference degree sigma     = {rep.sigma}")
    print(f"  enumeration over demands      = {worst.beta}")
    profile = is_beta_star(h)
    print(f"  star closed form              = {beta_star_formula(profile)}")
    lp = solve_lp(LinearProgram(2, (21, 2), (((9, 1), "<=", 1),)), "max")
    print(f"  schedule-family LP            = {lp.value}")
    print()

    print(f"worst-case 0/1 demand: {format_demand_line(worst.demand)}")
    order, orbits = automorphisms(h)
    sym = symmetrize_demand(h, worst.demand, orbits)
    print(f"symmetrized over the {order} automorphisms: {format_demand_line(sym)}")
    print()

    small = DemandVector((F(1, 4),) * 7)
    holds, _ = check_delta_condition(h, small)
    print(f"greedy run for {format_demand_line(small)} (condition holds: {holds})")
    assigned = greedy_schedule(h, small)
    for i, js in enumerate(assigned):
        print(f"  link {i + 1}: {format_interval_set(js)}")
    validate_assignment(h, assigned, small)
    print("  -> converts to a valid schedule")


if __name__ == "__main__":
    main()
