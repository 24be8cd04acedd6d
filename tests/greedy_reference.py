"""Reference oracle for the greedy scheduler: the pass on ``IntervalSet``s.

A frozen copy of ``hypersched.greedy.greedy_schedule`` as it was before the
pass moved to ints over 1/L: each step takes the union over the blocking
edges of the ``intersect_all`` of their placed sets and places the link with
``earliest_fit``, all in ``Fraction`` endpoints.  The edge-min condition
(lemma 1) is kept in the same ``Fraction`` form.  The differential tests
require the library to give the very same assignments, stuck reports,
callback snapshots and per-link sums.  It is a test oracle, not a second
scheduling path.
"""

from __future__ import annotations

from hypersched.errors import InsufficientRoom, ScheduleStuck
from hypersched.feasibility import as_demand
from hypersched.intervals import earliest_fit, intersect_all, union_all


def blocked_time(h, assigned, link):
    """Union over the edges through ``link`` whose other links are all
    scheduled of the slots those links share."""
    pieces = []
    for k in h.incidence[link]:
        others = [assigned[j] for j in h.edges[k] if j != link]
        if all(js is not None for js in others):
            pieces.append(intersect_all(others))
    return union_all(pieces)


def greedy_schedule(h, tau, order=None, step_callback=None):
    """Each link in ``order`` gets the leftmost fit of its demand outside its
    blocked time; ScheduleStuck when it does not fit."""
    tau = as_demand(h, tau)
    order = tuple(range(h.num_links)) if order is None else tuple(order)
    assigned = [None] * h.num_links
    for link in order:
        if step_callback is not None:
            step_callback(link, tuple(assigned))
        forbidden = blocked_time(h, assigned, link)
        try:
            assigned[link] = earliest_fit(tau[link], forbidden)
        except InsufficientRoom as e:
            raise ScheduleStuck(link, tau[link], e.available) from e
    return tuple(assigned)


def edge_min_sums(h, tau):
    """Per link: demand plus, for each edge through it, the smallest demand
    among the edge's other links, summed in Fractions."""
    tau = as_demand(h, tau)
    return tuple(
        sum((min(tau[j] for j in h.edges[k] if j != i) for k in h.incidence[i]), tau[i])
        for i in range(h.num_links)
    )
