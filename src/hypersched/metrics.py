"""Worst-case performance metrics for the weighted sufficient condition.

The per-link bound b_bound(H, tau) overestimates the optimum chi_f(H, tau)
by at most the interference degree sigma(H) = max(Delta', Delta''), and this
factor is attained by a 0/1 demand vector, so beta (the worst-case ratio)
can be computed by enumerating independent sets.  For beta-stars (all edges
pairwise meeting in one common center) a closed form is available.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import SolverInvariantError
from .feasibility import DemandVector, as_demand
from .greedy import check_delta_condition, delta_matrix
from .hypergraph import (
    DEFAULT_SIZE_LIMIT,
    Hypergraph,
    _check_limit,
    _independent_subsets,
    _members,
    # Unused here; kept because perfbench/tracing.py wraps these names.
    automorphisms,  # noqa: F401
    enumerate_independent_sets,  # noqa: F401
    neighbors,  # noqa: F401
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


def _setup(h: Hypergraph, limit):
    """What every per-link degree search of ``h`` shares: the delta matrix,
    whose ``ints`` rows over ``den`` they walk, and the completion table."""
    _check_limit(h, limit, DEFAULT_SIZE_LIMIT)
    return delta_matrix(h), h.completions


def _link_degrees(setup, i) -> tuple:
    """Link i's Delta' and Delta'' from one walk of the independent subsets
    J of its neighbors, the keys of its delta row: the largest Delta-weight
    of any J, and 1 plus the largest of a J that does not block i (J + i is
    independent).  Ties keep the lexicographically first J.

    Records change only on a strict ``>``, so the walk drops a branch once
    its bound is at most the Delta' record and either at most the Delta''
    record or the branch already blocks i (then every set below it does)."""
    w, completions = setup
    den, row = w.den, w.ints[i]
    best, best2, witness, witness2 = 0, -den, 0, 0
    bit = 1 << i

    def cut(bound, blocked):
        return bound <= best and (bound <= best2 or blocked & bit)

    for s, total, blocked in _independent_subsets(row, completions, row, cut=cut):
        if total > best:
            best, witness = total, s
        if total > best2 and not blocked >> i & 1:
            best2, witness2 = total, s
    return (
        LinkMetric(Fraction(best, den), frozenset(_members(witness))),
        LinkMetric(Fraction(den + best2, den), frozenset(_members(witness2))),
    )


def _sigma(h: Hypergraph, limit: int | None = None) -> Fraction:
    """``interference_metrics(h, limit).sigma`` by the per-link walks of
    ``_link_degrees`` with one scaled record ``top`` (sigma >= 1) for both
    degrees of every link: a J that does not block i counts ``den`` more.

    sigma names no witness, so the links may be walked in any order; they
    go in descending order of their root bound (the delta-row sum, ties by
    link id), so that ``top`` rises early and cuts the later walks."""
    w, completions = _setup(h, limit)
    den = top = w.den

    def cut(bound, blocked):
        return bound <= top and (bound <= top - den or blocked & bit)

    rows = w.ints
    for i in sorted(range(len(rows)), key=lambda i: (-sum(rows[i].values()), i)):
        row, bit = rows[i], 1 << i
        for _, total, blocked in _independent_subsets(row, completions, row, cut=cut):
            top = max(top, total if blocked & bit else total + den)
    return Fraction(top, den)


def delta_i_prime(h: Hypergraph, i: int, limit: int | None = None) -> LinkMetric:
    """Largest Delta-weight of an independent subset of link i's neighbors."""
    return _link_degrees(_setup(h, limit), i)[0]


def delta_i_doubleprime(h: Hypergraph, i: int, limit: int | None = None) -> LinkMetric:
    """As delta_i_prime but the subset must stay independent together with
    link i itself, and i contributes 1."""
    return _link_degrees(_setup(h, limit), i)[1]


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
    degrees = [_link_degrees(setup, i) for i in range(h.num_links)]
    prime, doubleprime = zip(*degrees)
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
    bound on a set S, sum over j in S of ints[i][j] plus den if i is in S,
    lives in bit field i of one packed int, so the walk's running total is
    every link's value at once.  Each field's top bit is a guard bit that a
    field's value never reaches, so ``((total | guard) - thr) & guard``
    subtracts ``best + 1`` field by field without borrows and leaves the
    guard bit set exactly where a link beat its record.  The kernel's bound
    packs every link's bound the same way, so one such test cuts a branch
    where no link's bound beats its record.

    The paper proves beta = sigma, and this is checked on every call:
    sigma comes from ``_sigma``'s walks, and every record starts just below
    it, at the largest int under ``sigma * den``, instead of at 0, so the
    walk skips the climb toward it and only proves that no set exceeds it
    while it finds the witness.  A set reaching sigma beats its record, so
    the first (link, set) is still met, and a set above it still wins.  If
    no set reaches sigma, the walk is run again from 0, so that the error
    names the true beta; a start below 0 or above the largest bound ``den``
    + the largest row sum is replaced by 0 at once.  Raises
    ``SolverInvariantError`` unless beta equals sigma."""
    sigma = _sigma(h, limit)
    w, completions = _setup(h, limit)
    den, n = w.den, h.num_links
    most = den + max(sum(row.values()) for row in w.ints)
    width = (most + 1).bit_length() + 1
    field = (1 << width) - 1
    weights = [0] * n
    for i, row in enumerate(w.ints):
        for j, v in row.items():
            weights[j] += v << (i * width)
        weights[i] += den << (i * width)
    guard = sum(1 << (i * width + width - 1) for i in range(n))
    ones = sum(1 << (i * width) for i in range(n))

    def walk(start):
        best = [start] * n
        witness = [0] * n
        thr = (start + 1) * ones

        def cut(bound, blocked):
            return not ((bound | guard) - thr) & guard

        for s, total, _ in _independent_subsets(range(n), completions, weights, cut=cut):
            beat = ((total | guard) - thr) & guard
            while beat:
                i = (beat.bit_length() - 1) // width
                shift = i * width
                beat ^= 1 << (shift + width - 1)
                v = (total >> shift) & field
                thr += (v - best[i]) << shift
                best[i] = v
                witness[i] = s
        return best, witness

    start = math.ceil(sigma * den) - 1
    if not 0 <= start <= most:
        start = 0
    best, witness = walk(start)
    top = max(best)
    if top == start:
        # No set reached sigma, so it was above beta.
        best, witness = walk(0)
        top = max(best)
    beta = Fraction(top, den)
    if beta != sigma:
        raise SolverInvariantError(
            f"beta = {beta} differs from sigma = {sigma}; this is a library bug"
        )
    link = best.index(top)
    return BetaWitness(
        beta=beta,
        link=link,
        demand=DemandVector.characteristic(n, _members(witness[link])),
    )


def symmetrize_demand(h: Hypergraph, tau, orbits) -> DemandVector:
    """Average of ``tau`` over the automorphism group of ``h``, given by the
    ``orbits`` that ``automorphisms(h, limit)`` returns; constant on orbits.

    By orbit-stabilizer every link of an orbit is hit equally often, so the
    group average at link i is the mean of ``tau`` over i's orbit."""
    tau = as_demand(h, tau)
    orbits = [tuple(orbit) for orbit in orbits]
    if not all(orbits) or sorted(j for orbit in orbits for j in orbit) != list(range(h.num_links)):
        raise ValueError(f"orbits must partition the links 0..{h.num_links - 1}")
    out = [None] * h.num_links
    for orbit in orbits:
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
    return max(Fraction(sum(c for _, c in profile.size_counts)), by_size)
