"""Greedy link-by-link interval scheduling and its sufficient conditions.

The scheduler walks the links in a given order and hands each link an
interval set of measure equal to its demand, avoiding the time slots where
some edge through the link would otherwise become fully active.  The three
condition checkers bound, per link, the resources this greedy pass can ever
need; whenever the weighted condition holds for an admissible weight matrix,
the pass succeeds for every processing order.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from itertools import islice, repeat
from operator import index, mul
from typing import NamedTuple

from .errors import (
    DemandUnmet,
    EdgeRowSumTooSmall,
    EntryOutOfRange,
    NonNeighborNonzero,
    NonzeroDiagonal,
    NotIndependent,
    NotSymmetric,
    ScheduleStuck,
)
from .feasibility import as_demand
from .hypergraph import Hypergraph, _link, neighbors
from .intervals import IntervalSet
# Wrapped by name by the benchmark's span tracer; the pass itself runs on ints.
from .intervals import earliest_fit, intersect_all, union_all  # noqa: F401
from .lp import _as_fraction, _over_lcm

_ZERO = Fraction(0)


@dataclasses.dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Symmetric rational matrix of pairwise interference weights, stored
    sparsely on one integer base.

    ``ints[i]`` maps each link j with W[i][j] != 0 to W[i][j] * ``den``, in
    any order, so every weighted sum adds ints and divides once.  ``rows``
    gives the same maps as Fractions and ``w[i, j]`` reads 0 off that
    support.  Construction takes that stored form (``den`` >= 1), drops zero
    entries and checks every column, the diagonal and symmetry, naming the
    first fault of a dense row-major scan; :meth:`from_rows` takes rational
    rows.  The checks that need the hypergraph are
    :func:`validate_weight_matrix`.
    """

    n: int
    den: int
    ints: tuple

    def __post_init__(self):
        n, den = self.n, self.den
        if den < 1:
            raise ValueError(f"weight denominator {den} is not positive")
        rows = tuple(self.ints)
        if len(rows) != n:
            raise ValueError(f"weight matrix has {len(rows)} rows, expected {n}")
        kept = []
        for i, row in enumerate(rows):
            if 0 in row.values():
                row = {j: v for j, v in row.items() if v}
            if row and not 0 <= min(row) <= max(row) < n:
                raise ValueError(f"column {min(j for j in row if not 0 <= j < n)} outside 0..{n - 1}")
            if i in row:
                raise NonzeroDiagonal(i, Fraction(row[i], den))
            kept.append(row)
        # Every asymmetric pair: the least may be stored only in its later row.
        bad = [sorted((i, j)) for i, row in enumerate(kept) for j, v in row.items() if kept[j].get(i) != v]
        if bad:
            raise NotSymmetric(*min(bad))
        object.__setattr__(self, "ints", tuple(kept))

    @classmethod
    def from_rows(cls, rows) -> "WeightMatrix":
        """The matrix with the given rational rows: dense square rows, or one
        ``{j: weight}`` map per link."""
        rows = [row if isinstance(row, Mapping) else tuple(row) for row in rows]
        if any(len(row) != len(rows) for row in rows if isinstance(row, tuple)):
            raise ValueError("weight matrix must be square")
        maps = [dict(enumerate(row)) if isinstance(row, tuple) else row for row in rows]
        den, flat = _over_lcm(_as_fraction(v) for row in maps for v in row.values())
        it = iter(flat)
        return cls(len(rows), den, [dict(zip(row, it)) for row in maps])

    @property
    def rows(self) -> tuple:
        den = self.den
        return tuple({j: Fraction(v, den) for j, v in row.items()} for row in self.ints)

    def __getitem__(self, ij):
        i, j = ij
        v = self.ints[_link(i, self.n)].get(_link(j, self.n))
        return _ZERO if v is None else Fraction(v, self.den)

    def __eq__(self, other):
        return isinstance(other, WeightMatrix) and (self.n, self.rows) == (other.n, other.rows)


def validate_weight_matrix(h: Hypergraph, w: WeightMatrix) -> None:
    """Check the rest of admissibility: entries in [0,1], support only on
    neighbor pairs, and row sums >= 1 within every edge.  Symmetry and the
    zero diagonal hold by construction.  Each check names the smallest
    offending column of the first row that has one, the fault a dense
    row-major scan meets first.  Entries and edge row sums are compared in
    ints with ``w.den``; a Fraction is built only for the fault raised."""
    n = h.num_links
    if w.n != n:
        raise ValueError(f"matrix is {w.n}x{w.n}, hypergraph has {n} links")
    den, ints = w.den, w.ints
    for i, row in enumerate(ints):
        if row and not 0 <= min(row.values()) <= max(row.values()) <= den:
            j = min(j for j, v in row.items() if not 0 <= v <= den)
            raise EntryOutOfRange(i, j, Fraction(row[j], den))
    for i, row in enumerate(ints):
        if row:
            nbr = neighbors(h, i)
            if not nbr.issuperset(row):
                j = min(row.keys() - nbr)
                raise NonNeighborNonzero(i, j, Fraction(row[j], den))
    zeros = repeat(0)
    for edge in h.edges:
        for i in edge:
            total = sum(map(ints[i].get, edge, zeros))
            if total < den:
                raise EdgeRowSumTooSmall(edge, i, Fraction(total, den))


def delta_matrix(h: Hypergraph) -> WeightMatrix:
    """Canonical admissible weights: for neighbors i, j the largest
    1/(|E|-1) over the edges containing both, zero elsewhere.  Written in
    ints over the lcm of the distinct |E|-1.  Built once per hypergraph:
    kept on ``h``, as its cached properties are, and shared by every later
    call, so its rows must not be mutated."""
    memo = h.__dict__
    if "_delta_matrix" in memo:
        return memo["_delta_matrix"]
    sizes = {len(e) for e in h.edges}
    den, ints = _over_lcm(Fraction(1, k - 1) for k in sizes)
    weight = dict(zip(sizes, ints))
    rows = [{} for _ in range(h.num_links)]
    # Largest edges first, so the last weight written for a pair is its largest.
    for edge in sorted(h.edges, key=len, reverse=True):
        m = dict.fromkeys(edge, weight[len(edge)])
        for i in edge:
            rows[i].update(m)
    for i, row in enumerate(rows):
        row.pop(i, None)
    w = memo["_delta_matrix"] = WeightMatrix(h.num_links, den, rows)
    return w


class ConditionReport(NamedTuple):
    holds: bool
    per_link: tuple


def _link_sums(w: WeightMatrix, tau) -> tuple:
    """Per link i: tau[i] + sum_j W[i][j] * tau[j], over the stored entries,
    in ints over ``w.den`` times the lcm of the demand denominators."""
    tden, t = _over_lcm(tau)
    wden = w.den
    den = wden * tden
    at = t.__getitem__
    return tuple(
        Fraction(ti * wden + sum(map(mul, row.values(), map(at, row))), den)
        for ti, row in zip(t, w.ints)
    )


def check_edge_min_condition(h: Hypergraph, tau) -> ConditionReport:
    """Per link: demand plus, for each edge through it, the smallest demand
    among the edge's other links.  Holds when every total is <= 1."""
    den, scaled = _over_lcm(as_demand(h, tau))
    edges = h.edges
    per = []
    for i, ks in enumerate(h.incidence):
        total = scaled[i]
        for k in ks:
            total += min(scaled[j] for j in edges[k] if j != i)
        per.append(Fraction(total, den))
    return ConditionReport(all(v <= 1 for v in per), tuple(per))


def check_weighted_condition(h: Hypergraph, w: WeightMatrix, tau) -> ConditionReport:
    """Per link i: tau[i] + sum_j W[i][j] * tau[j].  Holds when all <= 1."""
    validate_weight_matrix(h, w)
    per = _link_sums(w, as_demand(h, tau))
    return ConditionReport(all(v <= 1 for v in per), per)


def check_delta_condition(h: Hypergraph, tau) -> ConditionReport:
    """The weighted condition for the delta matrix, admissible by
    construction."""
    per = _link_sums(delta_matrix(h), as_demand(h, tau))
    return ConditionReport(all(v <= 1 for v in per), per)


def _normalize_order(h: Hypergraph, order) -> tuple:
    if order is None:
        return tuple(range(h.num_links))
    try:
        order = tuple(map(index, order))
    except TypeError:
        order = ()  # a non-integer id: no permutation of the links
    if sorted(order) != list(range(h.num_links)):
        raise ValueError(f"order must be a permutation of 0..{h.num_links - 1}")
    return order


def _to_ints(assigned) -> tuple:
    """``(L, placed)``: L the lcm of the endpoint denominators of the interval
    sets in ``assigned``, and each set as its list of ``(a, b)`` int pairs
    over L (None stays None)."""
    den, ints = _over_lcm(x for js in assigned if js is not None for piece in js.intervals for x in piece)
    it = iter(ints)
    pairs = zip(it, it)
    return den, [None if js is None else list(islice(pairs, len(js.intervals))) for js in assigned]


def _intersect(p: list, q: list) -> list:
    """Two-pointer intersection of two sorted lists of disjoint int pieces."""
    out = []
    i = j = 0
    while i < len(p) and j < len(q):
        a, b = p[i]
        c, d = q[j]
        lo = a if a > c else c
        hi = b if b < d else d
        if lo < hi:
            out.append((lo, hi))
        if b <= d:
            i += 1
        else:
            j += 1
    return out


def _blocked(h: Hypergraph, placed, link) -> list:
    """The int pieces (unsorted, possibly overlapping) of the time blocked
    for ``link``: for each edge through it whose other links are all placed,
    the time those links share."""
    out = []
    edges = h.edges
    for k in h.incidence[link]:
        others = [placed[j] for j in edges[k] if j != link]
        if None not in others:
            out += reduce(_intersect, others)
    return out


def _gaps(blocked, end):
    """The gaps of the union of the int pieces ``blocked`` inside [0, end),
    left to right: one cursor over the pieces sorted by start."""
    cursor = 0
    for a, b in sorted(blocked):
        if a > cursor:
            yield cursor, a
        if b > cursor:
            cursor = b
    if cursor < end:
        yield cursor, end


def greedy_schedule(h: Hypergraph, tau, order=None, step_callback=None) -> tuple:
    """Assign each link an interval set of measure tau[i] such that no edge
    is ever fully active.

    Links are processed in ``order`` (default 0..N-1); each placement is the
    leftmost fit avoiding the currently blocked slots, so the result is
    deterministic.  The placement reads no weights: weights enter only the
    analysis (the weighted condition and :func:`greedy_step_bound`).
    ``step_callback(link, assigned)`` is invoked before each placement with a
    snapshot of the partial assignment (None = unscheduled), which is how the
    per-step accounting inequality gets instrumented.

    The pass runs in ints over 1/L, L the lcm of the demand denominators:
    every endpoint it makes is a multiple of 1/L, since a piece starts at 0
    or at an endpoint of a blocked piece (an intersection of placed pieces)
    and its length is the smaller of a gap and the link's remaining demand.
    Each placed link keeps its sorted disjoint ``(a, b)`` int pairs, and
    its interval set is built once, when it is placed, for the snapshots
    and the result.

    Raises ScheduleStuck when a link cannot be placed; that cannot happen if
    the weighted condition holds for some admissible weight matrix.
    """
    tau = as_demand(h, tau)
    order = _normalize_order(h, order)
    den, demand = _over_lcm(tau)
    placed: list = [None] * h.num_links
    sets: list = [None] * h.num_links
    for link in order:
        if step_callback is not None:
            step_callback(link, tuple(sets))
        todo = demand[link]
        pieces = []
        if todo:
            for a, b in _gaps(_blocked(h, placed, link), den):
                take = min(b - a, todo)
                pieces.append((a, a + take))
                todo -= take
                if not todo:
                    break
            else:
                # Every gap was taken whole, so they sum to demand - todo.
                raise ScheduleStuck(link, tau[link], Fraction(demand[link] - todo, den))
        placed[link] = pieces
        # The pieces come out of the gaps sorted, nonempty and apart (blocked
        # time of positive length lies between two gaps): already normalized.
        sets[link] = IntervalSet._of_normalized((Fraction(a, den), Fraction(b, den)) for a, b in pieces)
    return tuple(sets)


def greedy_step_bound(h: Hypergraph, w: WeightMatrix, assigned, link) -> tuple:
    """Both sides of the accounting inequality at the step that schedules
    ``link``: measure of the blocked slots vs. the weighted sum of the
    already-scheduled demands.  For admissible ``w``, lhs <= rhs always.
    The blocked slots are found as in :func:`greedy_schedule`, in ints over
    the lcm of the snapshot's endpoint denominators, and the weighted sum
    reads the scheduled measures in the same ints."""
    n = h.num_links
    if w.n != n:
        raise ValueError(f"matrix is {w.n}x{w.n}, hypergraph has {n} links")
    if len(assigned) != n:
        raise ValueError(f"assignment has {len(assigned)} entries, expected {n}")
    link = _link(link, n)
    den, placed = _to_ints(assigned)
    free = sum(b - a for a, b in _gaps(_blocked(h, placed, link), den))
    lhs = Fraction(den - free, den)
    rhs = 0
    for j, v in w.ints[link].items():
        if placed[j] is not None:
            rhs += v * sum(b - a for a, b in placed[j])
    return lhs, Fraction(rhs, w.den * den)


def validate_assignment(h: Hypergraph, assigned, tau) -> None:
    """Raise DemandUnmet unless each link's interval set has measure exactly
    its demand, and NotIndependent if all links of an edge are ever active
    at once.  Endpoints are scaled to ints over their common denominator, and
    one sweep over the sorted (point, +1 start or -1 end, link) events counts
    each edge's active links; ends sort first at a point, as pieces are
    half-open.  O(P log P + sum over links of pieces * degree), P pieces."""
    tau = as_demand(h, tau)
    if len(assigned) != h.num_links:
        raise ValueError(f"assignment has {len(assigned)} entries, expected {h.num_links}")
    den, placed = _to_ints(assigned)
    events = []
    for i, (pieces, t) in enumerate(zip(placed, tau)):
        if pieces is None:
            raise ValueError(f"link {i} has no interval set")
        measure = 0
        for a, b in pieces:
            measure += b - a
            events += ((a, 1, i), (b, -1, i))
        if measure * t.denominator != t.numerator * den:
            raise DemandUnmet(i, Fraction(measure, den), t)
    events.sort()
    edges, incidence = h.edges, h.incidence
    active = [0] * len(edges)
    for _, step, i in events:
        for k in incidence[i]:
            active[k] += step
            if active[k] == len(edges[k]):
                raise NotIndependent(edges[k])
