"""Interference metrics: per-link degrees, sigma, beta, stars, symmetrization.

The independent oracles here recompute everything from scratch: subset scans
over neighborhoods, direct evaluation of the per-link bound over all
independent sets, and a stand-alone induced-star-number search for graphs.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from hypersched import (
    DemandVector,
    Hypergraph,
    SizeLimitExceeded,
    b_bound,
    beta_by_enumeration,
    beta_star_formula,
    delta_i_doubleprime,
    delta_i_prime,
    delta_matrix,
    enumerate_independent_sets,
    fractional_chromatic_number,
    interference_metrics,
    is_beta_star,
    is_feasible,
    is_independent,
    neighbors,
    automorphisms,
    symmetrize_demand,
    StarProfile,
    metrics,
    minimalize,
)
from conftest import permute_demand, random_demand, random_graph, random_hypergraph, zeros

F = Fraction


def oracle_delta_prime(h, i):
    """Scan every subset of the neighborhood directly."""
    d = delta_matrix(h)
    nb = sorted(neighbors(h, i))
    best = F(0)
    for r in range(len(nb) + 1):
        for combo in combinations(nb, r):
            if is_independent(h, combo):
                best = max(best, sum((d[i, j] for j in combo), F(0)))
    return best


def oracle_delta_doubleprime(h, i):
    d = delta_matrix(h)
    nb = sorted(neighbors(h, i))
    best = F(1)
    for r in range(len(nb) + 1):
        for combo in combinations(nb, r):
            if is_independent(h, set(combo) | {i}):
                best = max(best, 1 + sum((d[i, j] for j in combo), F(0)))
    return best


def oracle_beta(h):
    """Directly evaluate the per-link bound at every 0/1 independent demand."""
    best = F(0)
    for s in enumerate_independent_sets(h):
        tau = DemandVector.characteristic(h.num_links, s)
        best = max(best, b_bound(h, tau).value)
    return best


def oracle_star_number(h):
    """Induced star number of a graph: the largest independent subset of a
    single neighborhood.  Recomputed without the Delta machinery."""
    adj = {i: set() for i in range(h.num_links)}
    for a, b in h.edges:
        adj[a].add(b)
        adj[b].add(a)
    pairs = {frozenset(e) for e in h.edges}
    best = 0
    for v in range(h.num_links):
        nb = sorted(adj[v])
        for r in range(len(nb), 0, -1):
            if r <= best:
                break
            for combo in combinations(nb, r):
                if not any(
                    frozenset((a, b)) in pairs for a, b in combinations(combo, 2)
                ):
                    best = max(best, r)
                    break
    return best


class TestBBound:
    def test_star_golden(self, star2x4, star_tau):
        value, per = b_bound(star2x4, star_tau)
        assert per[0] == F(13, 6)
        assert value == F(13, 6)
        assert per == (F(13, 6), F(5, 3), F(5, 3), F(4, 3), F(5, 3), F(5, 3), F(4, 3))

    def test_zero(self, star2x4):
        assert b_bound(star2x4, zeros(7)).value == 0

    def test_parametrized_uniform_demand(self, star2x4):
        # tau with center 9a and petals 6a+b gives bound 21a + 2b at the center
        rng = random.Random(79)
        for _ in range(10):
            a = F(rng.randint(0, 3), 27)
            b = F(rng.randint(0, 3), 9)
            if 9 * a > 1 or 6 * a + b > 1:
                continue
            tau = DemandVector((9 * a,) + (6 * a + b,) * 6)
            assert b_bound(star2x4, tau).per_link[0] == 21 * a + 2 * b


class TestPerLinkDegrees:
    def test_star_center_prime(self, star2x4):
        value, witness = delta_i_prime(star2x4, 0)
        assert value == 2
        assert witness == frozenset({1, 2, 3, 4, 5, 6})

    def test_star_petal_prime(self, star2x4):
        assert delta_i_prime(star2x4, 1).value == 1

    def test_star_center_doubleprime(self, star2x4):
        value, witness = delta_i_doubleprime(star2x4, 0)
        assert value == F(7, 3)
        assert value == oracle_delta_doubleprime(star2x4, 0)
        assert witness == frozenset({1, 2, 4, 5})

    def test_graph_doubleprime_is_one(self):
        rng = random.Random(83)
        for _ in range(15):
            h = random_graph(rng, max_links=8)
            for i in range(h.num_links):
                assert delta_i_doubleprime(h, i).value == 1

    def test_isolated_link(self):
        h = Hypergraph(3, ((1, 2),))
        assert delta_i_prime(h, 0) == (F(0), frozenset())
        assert delta_i_doubleprime(h, 0) == (F(1), frozenset())

    def test_graph_prime_is_neighborhood_independence(self):
        rng = random.Random(89)
        for _ in range(15):
            h = random_graph(rng, max_links=7)
            for i in range(h.num_links):
                assert delta_i_prime(h, i).value == oracle_delta_prime(h, i)

    def test_oracle_agreement_random_hypergraphs(self):
        rng = random.Random(97)
        for _ in range(15):
            h = random_hypergraph(rng, max_links=7)
            for i in range(h.num_links):
                assert delta_i_prime(h, i).value == oracle_delta_prime(h, i)
                assert delta_i_doubleprime(h, i).value == oracle_delta_doubleprime(h, i)


def brute_degree(h, i, double):
    """(value, witness) of the Delta' (or, with ``double``, Delta'') search
    by scanning every subset of the neighborhood; among equal values the
    subset first by sorted tuple wins."""
    d = delta_matrix(h)
    base, extra = (F(1), {i}) if double else (F(0), set())
    nb = sorted(neighbors(h, i))
    candidates = [
        (base + sum((d[i, j] for j in combo), F(0)), combo)
        for r in range(len(nb) + 1)
        for combo in combinations(nb, r)
        if is_independent(h, set(combo) | extra)
    ]
    best = max(v for v, _ in candidates)
    return best, frozenset(min(c for v, c in candidates if v == best))


class TestDegreeSearch:
    """The per-link searches against a brute-force maximizer, and the
    one-setup path of interference_metrics against the single-link calls."""

    def test_value_and_witness_match_brute_force(self):
        rng = random.Random(101)
        for _ in range(40):
            h = random_hypergraph(rng, max_links=9, max_edges=8)
            for i in range(h.num_links):
                assert tuple(delta_i_prime(h, i)) == brute_degree(h, i, False)
                assert tuple(delta_i_doubleprime(h, i)) == brute_degree(h, i, True)

    def test_ties_keep_the_lexicographically_first_witness(self, star2x4):
        # Center of two 4-edges: {1, 2, 4, 5}, {1, 2, 4, 6}, ... all weigh 4/3.
        assert delta_i_doubleprime(star2x4, 0).witness == frozenset({1, 2, 4, 5})
        assert brute_degree(star2x4, 0, True)[1] == frozenset({1, 2, 4, 5})

    def test_report_entries_equal_single_link_calls(self):
        rng = random.Random(103)
        for _ in range(30):
            h = random_hypergraph(rng, max_links=9, max_edges=8)
            rep = interference_metrics(h)
            for i in range(h.num_links):
                assert rep.per_link_prime[i] == delta_i_prime(h, i)
                assert rep.per_link_doubleprime[i] == delta_i_doubleprime(h, i)

    def test_one_delta_matrix_per_report(self, monkeypatch, star2x4):
        calls = []
        original = metrics.delta_matrix

        def counted(h):
            calls.append(h)
            return original(h)

        monkeypatch.setattr(metrics, "delta_matrix", counted)
        interference_metrics(star2x4)
        assert len(calls) == 1

    def test_size_limit(self):
        h = Hypergraph(5, ((0, 1),))
        for search in (delta_i_prime, delta_i_doubleprime):
            with pytest.raises(SizeLimitExceeded) as err:
                search(h, 0, limit=4)
            assert (err.value.n, err.value.limit) == (5, 4)
        with pytest.raises(SizeLimitExceeded) as err:
            interference_metrics(h, limit=4)
        assert (err.value.n, err.value.limit) == (5, 4)


class TestSigma:
    def test_star_report(self, star2x4):
        rep = interference_metrics(star2x4)
        assert rep.delta_prime == 2
        assert rep.delta_doubleprime == F(7, 3)
        assert rep.sigma == F(7, 3)
        assert rep.delta == 2

    def test_claw_graph(self):
        h = Hypergraph(4, ((0, 1), (0, 2), (0, 3)))
        rep = interference_metrics(h)
        assert rep.sigma == 3
        assert rep.delta_doubleprime == 1

    def test_single_edge_sizes(self):
        for m in range(2, 6):
            h = Hypergraph(m, (tuple(range(m)),))
            rep = interference_metrics(h)
            assert rep.delta_prime == 1 == oracle_delta_prime(h, 0)
            assert rep.delta_doubleprime == 1 + F(m - 2, m - 1)
            assert rep.delta_doubleprime == oracle_delta_doubleprime(h, 0)

    def test_edgeless(self):
        rep = interference_metrics(Hypergraph(4))
        assert rep.delta_prime == 0
        assert rep.delta_doubleprime == 1
        assert rep.sigma == 1
        assert rep.delta == 1

    def test_aggregates_consistent(self):
        rng = random.Random(101)
        for _ in range(20):
            h = random_hypergraph(rng, max_links=7)
            rep = interference_metrics(h)
            assert rep.delta_prime == max(m.value for m in rep.per_link_prime)
            assert rep.delta_doubleprime == max(m.value for m in rep.per_link_doubleprime)
            assert rep.sigma == max(rep.delta_prime, rep.delta_doubleprime)
            assert rep.delta == max(F(1), rep.delta_prime)


class TestBeta:
    def test_star_golden(self, star2x4):
        wit = beta_by_enumeration(star2x4)
        assert wit.beta == F(7, 3) == oracle_beta(star2x4)
        assert wit.link == 0
        assert wit.demand.values == (1, 1, 1, 0, 1, 1, 0)

    def test_triangle(self, triangle):
        wit = beta_by_enumeration(triangle)
        assert wit.beta == F(3, 2) == oracle_beta(triangle)

    def test_edgeless(self):
        assert beta_by_enumeration(Hypergraph(3)).beta == 1

    def test_witness_demand_attains_beta(self):
        rng = random.Random(103)
        for _ in range(20):
            h = random_hypergraph(rng, max_links=7)
            wit = beta_by_enumeration(h)
            assert b_bound(h, wit.demand).per_link[wit.link] == wit.beta
            assert is_feasible(h, wit.demand)

    def test_equals_sigma_random(self):
        rng = random.Random(107)
        for _ in range(30):
            h = random_hypergraph(rng, max_links=8)
            assert beta_by_enumeration(h).beta == interference_metrics(h).sigma


def reference_beta(h):
    """The links x independent sets scan, link-major: the first link and
    then the first set, in enumeration order, whose per-link bound beats
    everything seen before."""
    den, rows = metrics._delta_int_rows(h)
    sets = [sorted(s) for s in enumerate_independent_sets(h)]
    best, link, members = None, 0, []
    for i in range(h.num_links):
        row = rows[i]
        for s in sets:
            v = sum(row.get(j, 0) for j in s) + (den if i in s else 0)
            if best is None or v > best:
                best, link, members = v, i, s
    return F(best, den), link, DemandVector.characteristic(h.num_links, members).values


def built_star(petal_sizes):
    """Beta-star with center 0 and one edge of each given size."""
    edges = []
    nxt = 1
    for size in petal_sizes:
        edges.append((0,) + tuple(range(nxt, nxt + size - 1)))
        nxt += size - 1
    return Hypergraph(nxt, tuple(edges))


def assert_beta_matches_reference(h):
    wit = beta_by_enumeration(h)
    assert (wit.beta, wit.link, wit.demand.values) == reference_beta(h)


class TestBetaAgainstScan:
    """beta_by_enumeration packs every link's bound into one integer per
    set; value, witness link and witness demand must equal the plain scan."""

    def test_random_hypergraphs(self):
        rng = random.Random(137)
        for _ in range(200):
            assert_beta_matches_reference(random_hypergraph(rng))

    def test_tie_heavy(self, triangle, star2x4):
        assert_beta_matches_reference(triangle)
        assert_beta_matches_reference(star2x4)
        for petals in ((2, 2), (3, 3, 3), (2, 2, 2, 2, 2), (4, 4, 4), (2, 3, 4, 5)):
            assert_beta_matches_reference(built_star(petals))
        # 2^14 sets at 14 links: beyond that the reference scan dominates.
        for n in range(1, 15):
            assert_beta_matches_reference(Hypergraph(n))

    def test_mixed_edge_sizes_widen_the_fields(self):
        chain = Hypergraph(15, ((0, 1, 2, 3), (3, 4, 5, 6, 7), (7, 8, 9, 10, 11, 12), (12, 13)))
        assert metrics._delta_int_rows(chain)[0] == 60
        assert_beta_matches_reference(chain)
        rng = random.Random(139)
        wide = 0
        for _ in range(20):
            n = rng.randint(10, 14)
            sizes = [4, 5, 6] + [rng.randint(2, 7) for _ in range(rng.randint(0, 3))]
            h = minimalize(n, [rng.sample(range(n), k) for k in sizes])
            wide += metrics._delta_int_rows(h)[0] >= 60
            assert_beta_matches_reference(h)
        assert wide >= 10


    def test_twenty_links(self):
        h = Hypergraph(20, tuple((i, (i + 1) % 20) for i in range(20)) + ((0, 5, 10),))
        assert_beta_matches_reference(h)

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded) as err:
            beta_by_enumeration(Hypergraph(5, ((0, 1),)), limit=4)
        assert (err.value.n, err.value.limit) == (5, 4)
        with pytest.raises(SizeLimitExceeded) as err:
            beta_by_enumeration(Hypergraph(21))
        assert (err.value.n, err.value.limit) == (21, 20)


class TestRatioBounds:
    def test_chi_f_within_b_and_sigma_factor(self):
        rng = random.Random(109)
        nonzero = 0
        for _ in range(25):
            h = random_hypergraph(rng, max_links=6)
            tau = random_demand(rng, h.num_links)
            chi = fractional_chromatic_number(h, tau).value
            bound = b_bound(h, tau).value
            assert chi <= bound
            if not tau.is_zero:
                nonzero += 1
                assert bound <= interference_metrics(h).sigma * chi
        assert nonzero >= 15

    def test_star_counterexample_inequality(self, star2x4, star_tau):
        # feasible demand whose bound exceeds the degree-style estimate
        rep = interference_metrics(star2x4)
        assert is_feasible(star2x4, star_tau)
        assert b_bound(star2x4, star_tau).value == F(13, 6) > rep.delta == 2


class TestSymmetrize:
    def test_star_golden(self, star2x4, monkeypatch):
        auts = automorphisms(star2x4)

        def boom(*args):
            raise AssertionError("automorphisms searched again")

        monkeypatch.setattr(metrics, "automorphisms", boom)
        sym = symmetrize_demand(star2x4, DemandVector((1, 1, 1, 0, 1, 1, 0)), auts)
        assert sym.values == (1, F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3))

    def test_constant_fixed_point(self, star2x4):
        tau = DemandVector((F(1, 3),) * 7)
        assert symmetrize_demand(star2x4, tau, automorphisms(star2x4)) == tau

    def test_triangle_unit(self, triangle):
        sym = symmetrize_demand(triangle, DemandVector((1, 0, 0)), automorphisms(triangle))
        assert sym.values == (F(1, 3),) * 3

    def test_preserves_center_bound_and_feasibility(self, star2x4):
        tau = DemandVector((1, 1, 1, 0, 1, 1, 0))
        sym = symmetrize_demand(star2x4, tau, automorphisms(star2x4))
        assert b_bound(star2x4, tau).per_link[0] == b_bound(star2x4, sym).per_link[0]
        assert is_feasible(star2x4, tau) == is_feasible(star2x4, sym) is True

    def test_orbit_constant(self):
        rng = random.Random(113)
        for _ in range(10):
            h = random_hypergraph(rng, max_links=6)
            tau = random_demand(rng, h.num_links)
            auts = automorphisms(h)
            sym = symmetrize_demand(h, tau, auts)
            for perm in auts:
                assert permute_demand(perm, sym) == sym

    def test_equals_explicit_group_average(self):
        def group_average(auts, tau):
            acc = [F(0)] * len(tau)
            for perm in auts:
                for i, v in enumerate(tau):
                    acc[perm[i]] += v
            return tuple(v / len(auts) for v in acc)

        rng = random.Random(149)
        cases = [random_hypergraph(rng, max_links=9, min_edges=2) for _ in range(40)]
        cases += [built_star((2,) * p) for p in range(2, 9)]
        cases += [built_star(p) for p in ((2, 3), (3, 3, 4), (4, 4, 4), (5, 5), (3, 3, 3, 3))]
        for h in cases:
            tau = random_demand(rng, h.num_links)
            auts = automorphisms(h)
            assert symmetrize_demand(h, tau, auts).values == group_average(auts, tau)


class TestBetaStar:
    def test_star_recognized(self, star2x4):
        prof = is_beta_star(star2x4)
        assert prof == StarProfile(center=0, size_counts=((4, 2),))
        assert beta_star_formula(prof) == F(7, 3)

    def test_disjoint_edges(self):
        assert is_beta_star(Hypergraph(6, ((0, 1, 2), (3, 4, 5)))) is None

    def test_two_link_overlap(self):
        assert is_beta_star(Hypergraph(4, ((0, 1, 2), (0, 1, 3)))) is None

    def test_no_edges(self):
        assert is_beta_star(Hypergraph(3)) is None

    def test_single_edge_vacuous_center(self):
        prof = is_beta_star(Hypergraph(4, ((1, 2, 3),)))
        assert prof.center == 1
        assert prof.vacuous_center
        assert beta_star_formula(prof) == F(3, 2)

    def test_formula_graph_star(self):
        # (k-2)/(k-1) vanishes at k = 2, so a graph star is worth its degree
        for r in range(1, 6):
            prof = StarProfile(center=0, size_counts=((2, r),))
            assert beta_star_formula(prof) == r

    def test_formula_single_triple(self):
        prof = StarProfile(center=0, size_counts=((3, 1),))
        assert beta_star_formula(prof) == F(3, 2)
        h = Hypergraph(3, ((0, 1, 2),))
        assert interference_metrics(h).sigma == F(3, 2)

    def test_formula_matches_sigma_on_built_stars(self):
        rng = random.Random(127)
        for _ in range(15):
            sizes = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
            edges = []
            nxt = 1
            for size in sizes:
                edges.append((0,) + tuple(range(nxt, nxt + size - 1)))
                nxt += size - 1
            h = Hypergraph(nxt, tuple(edges))
            prof = is_beta_star(h)
            assert prof is not None
            assert beta_star_formula(prof) == interference_metrics(h).sigma
            assert beta_star_formula(prof) == beta_by_enumeration(h).beta

    def test_random_detection_consistency(self):
        rng = random.Random(131)
        for _ in range(40):
            h = random_hypergraph(rng, max_links=8)
            prof = is_beta_star(h)
            if prof is not None:
                assert beta_star_formula(prof) == interference_metrics(h).sigma


def all_pairs_star(h):
    """is_beta_star by its definition: every pair of edges meets in the same
    single link."""
    if not h.edges:
        return None
    counts = {}
    for e in h.edges:
        counts[len(e)] = counts.get(len(e), 0) + 1
    size_counts = tuple(sorted(counts.items()))
    if len(h.edges) == 1:
        return StarProfile(min(h.edges[0]), size_counts, vacuous_center=True)
    sets = h.edge_sets
    meets = {sets[a] & sets[b] for a in range(len(sets)) for b in range(a + 1, len(sets))}
    if len(meets) != 1:
        return None
    (meet,) = meets
    if len(meet) != 1:
        return None
    return StarProfile(min(meet), size_counts)


def relabelled(rng, h):
    perm = list(range(h.num_links))
    rng.shuffle(perm)
    return Hypergraph(h.num_links, tuple(tuple(perm[v] for v in e) for e in h.edges))


class TestBetaStarAgainstAllPairs:
    """is_beta_star reads the incidence index; the reference intersects
    every pair of edges."""

    def test_random_families_one_edge_and_no_edges(self):
        rng = random.Random(151)
        cases = [random_hypergraph(rng, max_links=9, max_edges=7) for _ in range(300)]
        cases += [Hypergraph(4, ((3, 1, 2),)), Hypergraph(2, ((0, 1),)), Hypergraph(5)]
        for h in cases:
            assert is_beta_star(h) == all_pairs_star(h)

    def test_relabelled_stars(self):
        rng = random.Random(157)
        for _ in range(100):
            sizes = [rng.randint(2, 4) for _ in range(rng.randint(1, 5))]
            h = relabelled(rng, built_star(sizes))
            prof = is_beta_star(h)
            assert prof is not None
            assert prof == all_pairs_star(h)

    def test_near_stars(self):
        """Stars with one edge changed: through a second shared link,
        missing the center, or meeting another petal away from it.  The
        first may swallow a 2-link petal, which minimalize then drops."""
        rng = random.Random(163)
        rejected = 0
        for _ in range(200):
            sizes = [rng.randint(2, 4) for _ in range(rng.randint(2, 5))]
            star = built_star(sizes)
            n = star.num_links
            edges = [list(e) for e in star.edges]
            k = rng.randrange(len(edges))
            kind = rng.randrange(3)
            if kind == 0:
                edges[k].append(rng.choice([v for v in range(1, n) if v not in edges[k]]))
            elif kind == 1:
                edges[k] = edges[k][1:] + [n]
                n += 1
            else:
                edges.append([rng.randrange(1, n), n])
                n += 1
            h = relabelled(rng, minimalize(n, edges))
            got = is_beta_star(h)
            assert got == all_pairs_star(h)
            rejected += got is None
        assert rejected >= 150

    def test_large_near_star_without_all_pairs(self):
        """A relabelled 10,000-petal star whose last two petals share a
        link is rejected without intersecting every pair of edges."""
        p = 10_000
        edges = [(0, 2 * k - 1, 2 * k) for k in range(1, p + 1)]
        edges[-1] = (0, 2 * p - 3, 2 * p)
        h = relabelled(random.Random(167), Hypergraph(2 * p + 1, tuple(edges)))
        start = time.perf_counter()
        assert is_beta_star(h) is None
        assert time.perf_counter() - start < 5.0


class TestGraphSpecialization:
    def test_sigma_is_induced_star_number(self):
        rng = random.Random(137)
        for _ in range(25):
            h = random_graph(rng, max_links=8)
            assert interference_metrics(h).sigma == oracle_star_number(h)
