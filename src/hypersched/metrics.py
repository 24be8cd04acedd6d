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

from .errors import SizeLimitExceeded
from .feasibility import DemandVector, as_demand
from .greedy import _link_sums, delta_matrix
from .hypergraph import (
    DEFAULT_SIZE_LIMIT,
    Hypergraph,
    Permutation,
    _completion_table,
    automorphisms,
    enumerate_independent_sets,
    neighbors,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class BBound(NamedTuple):
    value: Fraction
    per_link: tuple


def b_bound(h: Hypergraph, tau) -> BBound:
    """Per link i: tau[i] + sum_j Delta[i][j] * tau[j]; value is the max."""
    per = _link_sums(delta_matrix(h), as_demand(h, tau))
    return BBound(max(per), per)


class LinkMetric(NamedTuple):
    value: Fraction
    witness: frozenset


def _delta_int_rows(h: Hypergraph):
    """Delta matrix scaled to integers by the lcm of its denominators.

    Exact speed trick: the subset searches below then run on plain ints.
    """
    d = delta_matrix(h).rows
    den = lcm(1, *(v.denominator for row in d for v in row.values()))
    rows = [[0] * h.num_links for _ in d]
    for row, out in zip(d, rows):
        for j, v in row.items():
            out[j] = v.numerator * (den // v.denominator)
    return den, rows


def _best_subset(pool, completions, weights, base_int):
    """Max of base + sum(weights[v] for v in J) over subsets J of ``pool``
    avoiding the forbidden family; ties keep the lexicographically first J."""
    pool = sorted(pool)
    best = base_int
    best_set: frozenset = frozenset()
    current: list = []
    current_set: set = set()

    def extend(start, total):
        nonlocal best, best_set
        if total > best:
            best = total
            best_set = frozenset(current_set)
        for idx in range(start, len(pool)):
            v = pool[idx]
            if any(c <= current_set for c in completions.get(v, ())):
                continue
            current.append(v)
            current_set.add(v)
            extend(idx + 1, total + weights[v])
            current.pop()
            current_set.discard(v)

    extend(0, base_int)
    return best, best_set


def delta_i_prime(h: Hypergraph, i: int, limit: int | None = None) -> LinkMetric:
    """Largest Delta-weight of an independent subset of link i's neighbors."""
    lim = DEFAULT_SIZE_LIMIT if limit is None else limit
    if h.num_links > lim:
        raise SizeLimitExceeded(h.num_links, lim)
    den, rows = _delta_int_rows(h)
    pool = sorted(neighbors(h, i))
    completions = _completion_table(h.edge_sets)
    best, witness = _best_subset(pool, completions, rows[i], 0)
    return LinkMetric(Fraction(best, den), witness)


def delta_i_doubleprime(h: Hypergraph, i: int, limit: int | None = None) -> LinkMetric:
    """As delta_i_prime but the subset must stay independent together with
    link i itself, and i contributes 1."""
    lim = DEFAULT_SIZE_LIMIT if limit is None else limit
    if h.num_links > lim:
        raise SizeLimitExceeded(h.num_links, lim)
    den, rows = _delta_int_rows(h)
    pool = sorted(neighbors(h, i))
    # J + {i} independent  <=>  J avoids every E - {i}.
    family = [es - {i} for es in h.edge_sets]
    completions = _completion_table(family)
    best, witness = _best_subset(pool, completions, rows[i], den)
    return LinkMetric(Fraction(best, den), witness)


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
    prime = tuple(delta_i_prime(h, i, limit) for i in range(h.num_links))
    doubleprime = tuple(delta_i_doubleprime(h, i, limit) for i in range(h.num_links))
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
    The witness is the lexicographically first (link, set) attaining it."""
    sets = [sorted(s) for s in enumerate_independent_sets(h, limit)]
    den, rows = _delta_int_rows(h)
    best = None
    best_link = 0
    best_set: list = []
    for i in range(h.num_links):
        row = rows[i]
        for members in sets:
            v = sum(row[j] for j in members)
            if i in members:
                v += den
            if best is None or v > best:
                best = v
                best_link = i
                best_set = members
    return BetaWitness(
        beta=Fraction(best, den),
        link=best_link,
        demand=DemandVector.characteristic(h.num_links, best_set),
    )


def permute_demand(perm: Permutation, tau: DemandVector) -> DemandVector:
    """Demand vector with link perm(i) demanding what link i did."""
    out = [_ZERO] * len(perm)
    for i, v in enumerate(tau):
        out[perm.mapping[i]] = v
    return DemandVector(tuple(out))


def symmetrize_demand(h: Hypergraph, tau, limit: int | None = None) -> DemandVector:
    """Average of ``tau`` over the automorphism group; constant on orbits."""
    tau = as_demand(h, tau)
    auts = automorphisms(h, limit)
    acc = [_ZERO] * h.num_links
    for perm in auts:
        for i, v in enumerate(tau):
            acc[perm.mapping[i]] += v
    order = len(auts)
    return DemandVector(tuple(v / order for v in acc))


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
    sets = h.edge_sets
    first = sets[0] & sets[1]
    if len(first) != 1:
        return None
    (center,) = first
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if sets[a] & sets[b] != first:
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
