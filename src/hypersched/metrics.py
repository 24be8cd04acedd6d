"""Worst-case performance metrics for the weighted sufficient condition.

The per-link bound b_bound(H, tau) overestimates the optimum chi_f(H, tau)
by at most the interference degree sigma(H) = max(Delta', Delta''), and this
factor is attained by a 0/1 demand vector, so beta (the worst-case ratio)
can be computed by enumerating independent sets.  For beta-stars (all edges
pairwise meeting in one common center) a closed form is available.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .feasibility import DemandVector, as_demand
from .greedy import check_delta_condition, delta_matrix
from .hypergraph import (
    DEFAULT_SIZE_LIMIT,
    Hypergraph,
    _check_limit,
    _completion_table,
    _independent_subsets,
    _members,
    # Unused here; kept because perfbench/tracing.py wraps these names.
    automorphisms,  # noqa: F401
    enumerate_independent_sets,  # noqa: F401
    neighbors,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class BBound(NamedTuple):
    value: Fraction
    per_link: tuple


def b_bound(h: Hypergraph, tau) -> BBound:
    """Per link i: tau[i] + sum_j Delta[i][j] * tau[j]; value is the max."""
    per = check_delta_condition(h, tau).per_link
    return BBound(max(per), per)


class LinkMetric(NamedTuple):
    value: Fraction
    witness: frozenset


def _delta_int_rows(h: Hypergraph):
    """Delta matrix scaled to integers by the lcm of its denominators, as one
    ``{j: int}`` map per link over its neighbors.

    Exact speed trick: the subset searches below then run on plain ints.
    """
    d = delta_matrix(h).rows
    den = lcm(1, *(v.denominator for row in d for v in row.values()))
    return den, [{j: v.numerator * (den // v.denominator) for j, v in row.items()} for row in d]


def _setup(h: Hypergraph, limit):
    """What every per-link degree search of ``h`` shares: the scaled delta
    rows and the completion table."""
    _check_limit(h, limit, DEFAULT_SIZE_LIMIT)
    den, rows = _delta_int_rows(h)
    return den, rows, _completion_table(h)


def _link_degree(setup, i, pool, double: bool) -> LinkMetric:
    """Largest Delta-weight of a subset J of ``pool`` (link i's neighbors)
    that is independent, or with ``double`` independent together with i,
    which then adds 1.  Ties keep the lexicographically first J."""
    den, rows, completions = setup
    base, chosen = (den, 1 << i) if double else (0, 0)
    best, witness = base, chosen
    for s, total in _independent_subsets(pool, completions, rows[i], base, chosen):
        if total > best:
            best, witness = total, s
    return LinkMetric(Fraction(best, den), frozenset(_members(witness & ~chosen)))


def delta_i_prime(h: Hypergraph, i: int, limit: int | None = None) -> LinkMetric:
    """Largest Delta-weight of an independent subset of link i's neighbors."""
    return _link_degree(_setup(h, limit), i, neighbors(h, i), False)


def delta_i_doubleprime(h: Hypergraph, i: int, limit: int | None = None) -> LinkMetric:
    """As delta_i_prime but the subset must stay independent together with
    link i itself, and i contributes 1."""
    return _link_degree(_setup(h, limit), i, neighbors(h, i), True)


@dataclasses.dataclass(frozen=True)
class MetricsReport:
    """Per-link and aggregate interference metrics.

    ``delta`` is the degree-style estimate max_i max(1, Delta_i'); it ignores
    the Delta'' term and can understate the true worst case on hypergraphs.
    """

    per_link_prime: tuple
    per_link_doubleprime: tuple
    delta_prime: Fraction
    delta_doubleprime: Fraction
    sigma: Fraction
    delta: Fraction


def interference_metrics(h: Hypergraph, limit: int | None = None) -> MetricsReport:
    setup = _setup(h, limit)
    pools = [neighbors(h, i) for i in range(h.num_links)]
    prime = tuple(_link_degree(setup, i, pool, False) for i, pool in enumerate(pools))
    doubleprime = tuple(_link_degree(setup, i, pool, True) for i, pool in enumerate(pools))
    dp = max(m.value for m in prime)
    dpp = max(m.value for m in doubleprime)
    return MetricsReport(
        per_link_prime=prime,
        per_link_doubleprime=doubleprime,
        delta_prime=dp,
        delta_doubleprime=dpp,
        sigma=max(dp, dpp),
        delta=max(_ONE, dp),
    )


@dataclasses.dataclass(frozen=True)
class BetaWitness:
    """Worst-case ratio together with the link and 0/1 demand attaining it."""

    beta: Fraction
    link: int
    demand: DemandVector


def beta_by_enumeration(h: Hypergraph, limit: int | None = None) -> BetaWitness:
    """Worst-case ratio of the per-link bound to the optimum, computed by
    direct enumeration: the supremum is attained at a characteristic vector
    of an independent set, so it suffices to scan links x independent sets.
    The witness is the lexicographically first (link, set) attaining it.

    One walk of the independent sets serves every link: link i's scaled
    bound on a set S, sum over j in S of rows[i][j] plus den if i is in S,
    lives in bit field i of one packed int, so the walk's running total is
    every link's value at once.  Each field's top bit is a guard bit that a
    field's value never reaches, so ``((total | guard) - thr) & guard``
    subtracts ``best + 1`` field by field without borrows and leaves the
    guard bit set exactly where a link beat its record."""
    _check_limit(h, limit, DEFAULT_SIZE_LIMIT)
    n = h.num_links
    den, rows = _delta_int_rows(h)
    width = (den + max(sum(row.values()) for row in rows) + 1).bit_length() + 1
    field = (1 << width) - 1
    weights = [0] * n
    for i, row in enumerate(rows):
        for j, v in row.items():
            weights[j] += v << (i * width)
        weights[i] += den << (i * width)
    guard = sum(1 << (i * width + width - 1) for i in range(n))
    best = [0] * n
    witness = [0] * n
    thr = sum(1 << (i * width) for i in range(n))
    for s, total in _independent_subsets(range(n), _completion_table(h), weights):
        beat = ((total | guard) - thr) & guard
        while beat:
            i = (beat.bit_length() - 1) // width
            shift = i * width
            beat ^= 1 << (shift + width - 1)
            v = (total >> shift) & field
            thr += (v - best[i]) << shift
            best[i] = v
            witness[i] = s
    top = max(best)
    link = best.index(top)
    return BetaWitness(
        beta=Fraction(top, den),
        link=link,
        demand=DemandVector.characteristic(n, _members(witness[link])),
    )


def symmetrize_demand(h: Hypergraph, tau, auts) -> DemandVector:
    """Average of ``tau`` over the group ``auts``, the image-tuple list that
    ``automorphisms(h, limit)`` returns; constant on orbits.

    By orbit-stabilizer every link of an orbit is hit equally often, so the
    group average at link i is the mean of ``tau`` over i's orbit."""
    tau = as_demand(h, tau)
    out = [None] * h.num_links
    for i in range(h.num_links):
        if out[i] is None:
            orbit = {perm[i] for perm in auts}
            mean = sum((tau[j] for j in orbit), _ZERO) / len(orbit)
            for j in orbit:
                out[j] = mean
    return DemandVector(tuple(out))


@dataclasses.dataclass(frozen=True)
class StarProfile:
    """Edge family whose pairwise intersections all equal {center}.

    ``size_counts`` maps edge size to multiplicity, as sorted (size, count)
    pairs.  With a single edge the pairwise condition is vacuous and any of
    its members would do as center; the lowest id is chosen and
    ``vacuous_center`` is set.
    """

    center: int
    size_counts: tuple
    vacuous_center: bool = False

    @property
    def num_edges(self) -> int:
        return sum(c for _, c in self.size_counts)


def is_beta_star(h: Hypergraph):
    """The star profile of ``h`` if all edges pairwise meet in exactly one
    common link, else None.  A hypergraph with no edges is not a star."""
    if not h.edges:
        return None
    counts: dict = {}
    for e in h.edges:
        counts[len(e)] = counts.get(len(e), 0) + 1
    size_counts = tuple(sorted(counts.items()))
    if len(h.edges) == 1:
        return StarProfile(min(h.edges[0]), size_counts, vacuous_center=True)
    # All pairs meet in exactly {center} iff every edge holds the center
    # and every other link lies in at most one edge.
    first = h.edge_sets[0] & h.edge_sets[1]
    if len(first) != 1:
        return None
    (center,) = first
    inc = h.incidence
    if len(inc[center]) != len(h.edges):
        return None
    for v, ks in enumerate(inc):
        if len(ks) > 1 and v != center:
            return None
    return StarProfile(center, size_counts)


def beta_star_formula(profile: StarProfile) -> Fraction:
    """Closed-form worst-case ratio of a star: the larger of the edge count
    and 1 + sum over sizes k of n_k * (k-2)/(k-1)."""
    by_size = sum(
        (count * Fraction(k - 2, k - 1) for k, count in profile.size_counts),
        _ONE,
    )
    return max(Fraction(profile.num_edges), by_size)
