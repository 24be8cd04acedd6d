"""Shared fixtures: golden hypergraphs and seeded random instance suites."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from hypersched import (
    DemandVector,
    Hypergraph,
    Schedule,
    fractional_chromatic_number,
    lp,
    minimalize,
)

# The running examples used throughout the tests:
#  - triangle: three links, one forbidden triple.
#  - star2x4: two 4-link edges sharing link 0; the smallest hypergraph where
#    the degree-style estimate underrates the worst case.
TRIANGLE = Hypergraph(3, ((0, 1, 2),))
STAR2X4 = Hypergraph(7, ((0, 1, 2, 3), (0, 4, 5, 6)))
STAR_TAU = DemandVector(
    (Fraction(1, 2), 1, 1, Fraction(1, 2), 1, 1, Fraction(1, 2))
)


@pytest.fixture
def triangle():
    return TRIANGLE


@pytest.fixture
def star2x4():
    return STAR2X4


@pytest.fixture
def star_tau():
    return STAR_TAU


def zeros(n):
    """The all-zero demand vector on n links."""
    return DemandVector((Fraction(0),) * n)


def fraction_counter(monkeypatch):
    """Count every Fraction built from now until ``monkeypatch.undo()``;
    returns the one-element count list."""
    made = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def stop_phase_two_early(setattr):
    """Make every simplex stop right after phase 2 prices its start: the
    ``_run_simplex`` call whose ``cost`` is shorter than ``cols`` (no
    artificial column may enter) gets no pricing chunk, so it reports
    "optimal" at the basis phase 1 left.  ``setattr`` is
    ``monkeypatch.setattr``, or the builtin in a subprocess."""
    real = lp._run_simplex

    def early(C, basis, d, cols, chunks, w, cost):
        return real(C, basis, d, cols, [] if len(cost) < len(cols) else chunks, w, cost)

    setattr(lp, "_run_simplex", early)


def is_feasible(h, tau):
    """True iff some schedule of total duration <= 1 satisfies ``tau``."""
    return fractional_chromatic_number(h, tau).value <= 1


def intervals_to_schedule(assigned):
    """The schedule over link sets of a per-link interval assignment: cut
    [0, 1) at every endpoint and give each slot's active set its length.
    Idle slots are dropped, so the total can be below 1.  Quadratic; the
    differential oracle for ``validate_assignment``."""
    points = {x for js in assigned for piece in js.intervals for x in piece}
    cuts = sorted(points | {Fraction(0), Fraction(1)})
    durations = {}
    for a, b in zip(cuts, cuts[1:]):
        active = frozenset(
            i for i, js in enumerate(assigned) if any(lo <= a < hi for lo, hi in js.intervals)
        )
        if active:
            durations[active] = durations.get(active, Fraction(0)) + b - a
    return Schedule(tuple(durations.items()))


def brute_automorphisms(h):
    """Every link permutation mapping the edge family onto itself, as its
    image tuple, by scanning all N! permutations."""
    family = set(h.edge_sets)
    out = []
    for p in permutations(range(h.num_links)):
        if {frozenset(p[v] for v in es) for es in h.edge_sets} == family:
            out.append(p)
    return out


def order_and_orbits(auts, n):
    """``(order, orbits)`` of a group listed as image tuples on n links, in
    the form ``automorphisms`` returns."""
    orbits = {tuple(sorted({p[i] for p in auts})) for i in range(n)}
    return len(auts), tuple(sorted(orbits))


def permute_demand(perm, tau):
    """Demand vector with link perm[i] demanding what link i did."""
    out = [Fraction(0)] * len(perm)
    for i, v in enumerate(tau):
        out[perm[i]] = v
    return DemandVector(tuple(out))


def random_hypergraph(rng, max_links=10, max_edges=6, min_size=2, max_size=5,
                      min_links=2, min_edges=0):
    n = rng.randint(min_links, max_links)
    raw = []
    for _ in range(rng.randint(min_edges, max_edges)):
        size = rng.randint(min_size, min(max_size, n))
        raw.append(rng.sample(range(n), size))
    return minimalize(n, raw)


def wall_instance(n):
    """Random hypergraph of the size-wall measurements: ``random.Random(n)``,
    n to 2n edges of 2-4 links, minimalized."""
    rng = random.Random(n)
    raw = [rng.sample(range(n), rng.randint(2, 4)) for _ in range(rng.randint(n, 2 * n))]
    return minimalize(n, raw)


def built_star(petal_sizes):
    """Beta-star with center 0 and one edge of each given size."""
    edges = []
    nxt = 1
    for size in petal_sizes:
        edges.append((0,) + tuple(range(nxt, nxt + size - 1)))
        nxt += size - 1
    return Hypergraph(nxt, tuple(edges))


def random_graph(rng, max_links=10, max_edges=8):
    """2-uniform hypergraph with at least one edge."""
    n = rng.randint(2, max_links)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = rng.randint(1, min(max_edges, len(pairs)))
    return minimalize(n, rng.sample(pairs, count))


def random_demand(rng, n, small=False):
    if small:
        return DemandVector(tuple(Fraction(rng.randint(0, 3), 12) for _ in range(n)))
    den = rng.choice([2, 3, 4, 6])
    return DemandVector(tuple(Fraction(rng.randint(0, den), den) for _ in range(n)))


@pytest.fixture(scope="session")
def hypergraph_suite():
    """200 random minimalized hypergraphs, N <= 10, <= 6 edges of size 2..5."""
    rng = random.Random(0xBEEF)
    return [random_hypergraph(rng) for _ in range(200)]


@pytest.fixture(scope="session")
def pair_suite():
    """200 random (hypergraph, demand) pairs; smaller N keeps the exact LPs
    quick.  Half the demands are small so the sufficient conditions trigger."""
    rng = random.Random(0xCAFE)
    out = []
    for k in range(200):
        h = random_hypergraph(rng, max_links=7, max_edges=5)
        out.append((h, random_demand(rng, h.num_links, small=(k % 2 == 0))))
    return out


@pytest.fixture(scope="session")
def graph_suite():
    """50 random graphs encoded as 2-uniform hypergraphs."""
    rng = random.Random(0xF00D)
    return [random_graph(rng) for _ in range(50)]
