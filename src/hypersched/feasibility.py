"""Feasibility of link demand vectors: schedules and the fractional
chromatic number LP over independent-set columns.

A demand vector tau assigns each link the fraction of unit time it must be
active.  tau is feasible exactly when some schedule over independent sets
satisfies it with total duration at most 1, i.e. when chi_f(H, tau) <= 1.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from operator import index
from typing import Iterable, NamedTuple

from .errors import DemandUnmet, DurationExceedsOne, NotIndependent, SolverInvariantError
from .hypergraph import (
    Hypergraph,
    _members,
    # Unused here; kept because perfbench/tracing.py wraps this name.
    enumerate_independent_sets,  # noqa: F401
    enumerate_maximal_independent_sets,
    is_independent,
)
from .lp import CoveringProgram, LpStatus, _as_fraction, solve_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclasses.dataclass(frozen=True)
class DemandVector:
    """Per-link demanded fraction of unit time, each in [0, 1]."""

    values: tuple

    def __post_init__(self):
        vals = tuple(map(_as_fraction, self.values))
        for i, v in enumerate(vals):
            if not 0 <= v.numerator <= v.denominator:
                raise ValueError(f"demand for link {i} is {v}, outside [0, 1]")
        object.__setattr__(self, "values", vals)

    @classmethod
    def characteristic(cls, n: int, links: Iterable[int]) -> "DemandVector":
        try:
            s = set(map(index, links))
        except TypeError:
            s = {-1}  # a non-integer id: outside 0..n-1
        if not s.issubset(range(n)):
            raise ValueError(f"link ids must be integers in 0..{n - 1}")
        return cls(tuple(_ONE if i in s else _ZERO for i in range(n)))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def as_demand(h: Hypergraph, tau) -> DemandVector:
    """Coerce a sequence to a DemandVector and check its length against h."""
    if not isinstance(tau, DemandVector):
        tau = DemandVector(tuple(tau))
    if len(tau) != h.num_links:
        raise ValueError(f"demand vector has {len(tau)} entries, hypergraph has {h.num_links} links")
    return tau


@dataclasses.dataclass(frozen=True)
class Schedule:
    """Durations assigned to independent sets: entries of (links, duration)."""

    entries: tuple = ()

    def __post_init__(self):
        norm = []
        for links, duration in self.entries:
            d = _as_fraction(duration)
            if d < 0:
                raise ValueError(f"negative duration {d} for set {sorted(links)}")
            norm.append((frozenset(links), d))
        object.__setattr__(self, "entries", tuple(norm))

    @property
    def total_duration(self) -> Fraction:
        return sum((d for _, d in self.entries), _ZERO)


class ChiFResult(NamedTuple):
    value: Fraction
    witness: Schedule


def fractional_chromatic_number(h: Hypergraph, tau, limit: int | None = None) -> ChiFResult:
    """Minimum total duration of a schedule covering ``tau``.

    Solved as an exact LP with one column per maximal independent set: a
    set's time can go to any maximal set above it and still cover as much,
    so the other independent sets never lower the optimum.  The solver
    proves its answer: its duals y are >= 0, y . tau is the value and
    y(S) <= 1 on every maximal set S, hence on every independent set.
    """
    tau = as_demand(h, tau)
    sets = enumerate_maximal_independent_sets(h, limit, masks=True)
    # One column per set, on the rows of its links.
    members = [_members(s) for s in sets]
    sol = solve_lp(CoveringProgram(members, tau.values), "min")
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverInvariantError(
            f"coverage LP reported {sol.status.value}; it is always feasible and bounded"
        )
    witness = Schedule(
        tuple((members[j], t) for j, t in enumerate(sol.assignment) if t != 0)
    )
    return ChiFResult(sol.value, witness)


def validate_schedule(h: Hypergraph, schedule: Schedule, tau, max_total=_ONE) -> None:
    """Raise unless every entry's set is independent, the total duration is
    within ``max_total``, and each link's coverage meets its demand.  Links
    outside ``h`` in an entry cover nothing."""
    tau = as_demand(h, tau)
    for links, _ in schedule.entries:
        if not is_independent(h, links):
            raise NotIndependent(links)
    total = schedule.total_duration
    if total > Fraction(max_total):
        raise DurationExceedsOne(total, Fraction(max_total))
    covered = dict.fromkeys(range(h.num_links), _ZERO)
    for links, d in schedule.entries:
        for i in links:
            if i in covered:
                covered[i] += d
    for i, c in covered.items():
        if c < tau[i]:
            raise DemandUnmet(i, c, tau[i])
