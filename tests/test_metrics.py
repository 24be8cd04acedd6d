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
    SolverInvariantError,
    b_bound,
    beta_by_enumeration,
    beta_star_formula,
    delta_matrix,
    enumerate_independent_sets,
    fractional_chromatic_number,
    hypergraph,
    interference_metrics,
    is_beta_star,
    is_independent,
    neighbors,
    automorphisms,
    symmetrize_demand,
    StarProfile,
    metrics,
    minimalize,
)
from hypersched.metrics import delta_i_doubleprime, delta_i_prime
import beta_reference
from conftest import (
    brute_automorphisms,
    built_star,
    fraction_counter,
    is_feasible,
    permute_demand,
    random_demand,
    random_graph,
    random_hypergraph,
    zeros,
)

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

    @pytest.mark.parametrize(
        "degree, inside",
        [(delta_i_prime, (1, frozenset({0}))), (delta_i_doubleprime, (1, frozenset()))],
    )
    @pytest.mark.parametrize("i", [-1, 3])
    def test_link_outside_range(self, degree, inside, i):
        # Link 3 used to raise a bare IndexError, and link -1 read the last
        # delta row and then failed on a negative shift count.
        h = Hypergraph(3, ((0, 1),))
        with pytest.raises(ValueError, match=rf"^link {i} outside 0\.\.2$"):
            degree(h, i)
        assert degree(h, 1) == inside

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

    def test_one_walk_per_link(self, monkeypatch, star2x4):
        """Delta' and Delta'' of a link come from one walk of its neighbors."""
        pools = []
        original = metrics._independent_subsets

        def counted(pool, *args, **kwargs):
            pools.append(frozenset(pool))
            return original(pool, *args, **kwargs)

        monkeypatch.setattr(metrics, "_independent_subsets", counted)
        rng = random.Random(107)
        randoms = [random_hypergraph(rng, max_links=9, max_edges=8) for _ in range(10)]
        for h in [star2x4, *randoms]:
            pools.clear()
            interference_metrics(h)
            assert pools == [neighbors(h, i) for i in range(h.num_links)]

    def test_size_limit(self):
        h = Hypergraph(5, ((0, 1),))
        for search in (delta_i_prime, delta_i_doubleprime):
            with pytest.raises(SizeLimitExceeded) as err:
                search(h, 0, limit=4)
            assert (err.value.n, err.value.limit) == (5, 4)
        with pytest.raises(SizeLimitExceeded) as err:
            interference_metrics(h, limit=4)
        assert (err.value.n, err.value.limit) == (5, 4)


class TestDeltaRowPool:
    """The degree searches walk link i's scaled delta row as their pool, so
    its keys must be exactly the neighbors of i."""

    def test_row_keys_are_the_neighbors(self):
        rng = random.Random(131)
        randoms = [random_hypergraph(rng, max_links=14, max_edges=12) for _ in range(60)]
        stars = [built_star(sizes) for sizes in ([2], [2, 4], [3] * 12, [4] * 8, [2, 3, 4, 5, 6])]
        for h in randoms + stars:
            rows = delta_matrix(h).ints
            assert [set(row) for row in rows] == [neighbors(h, i) for i in range(h.num_links)]


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
    w = delta_matrix(h)
    den, rows = w.den, w.ints
    sets = [sorted(s) for s in enumerate_independent_sets(h)]
    best, link, members = None, 0, []
    for i in range(h.num_links):
        row = rows[i]
        for s in sets:
            v = sum(row.get(j, 0) for j in s) + (den if i in s else 0)
            if best is None or v > best:
                best, link, members = v, i, s
    return F(best, den), link, DemandVector.characteristic(h.num_links, members).values


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
        assert delta_matrix(chain).den == 60
        assert_beta_matches_reference(chain)
        rng = random.Random(139)
        wide = 0
        for _ in range(20):
            n = rng.randint(10, 14)
            sizes = [4, 5, 6] + [rng.randint(2, 7) for _ in range(rng.randint(0, 3))]
            h = minimalize(n, [rng.sample(range(n), k) for k in sizes])
            wide += delta_matrix(h).den >= 60
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


def beta_families():
    """The differential families of the beta and sigma tests: 300 random
    hypergraphs on up to 14 links, tie-heavy k-uniform ones and stars."""
    rng = random.Random(223)
    for _ in range(300):
        yield random_hypergraph(rng, max_links=14, max_edges=rng.randint(0, 20))
    for k in (2, 3, 4, 5):
        for _ in range(20):
            yield random_hypergraph(rng, max_links=12, max_edges=12, min_size=k,
                                    max_size=k, min_links=k + 2)
    for petals in ((2,), (2, 2), (3,) * 5, (4,) * 4, (2, 3, 4, 5), (3, 3, 5, 5), (5, 5, 5)):
        yield built_star(petals)


def work_antichains():
    """Ten seeded random antichains on 16-18 links for the work guards."""
    rng = random.Random(211)
    cases = []
    for _ in range(10):
        n = rng.randint(16, 18)
        raw = [rng.sample(range(n), rng.randint(2, 4)) for _ in range(rng.randint(n, 2 * n))]
        cases.append(minimalize(n, raw))
    return cases


class TestBetaAgainstFrozenOracle:
    """beta's walk cuts every branch on which no link's bound can beat its
    record; value, witness link and witness demand must be those of the
    frozen unbounded walk in ``beta_reference``."""

    def test_random_tie_heavy_and_star_families(self):
        for h in beta_families():
            assert beta_by_enumeration(h) == beta_reference.beta_by_enumeration(h)

    def test_cut_walk_yields_under_a_quarter_of_the_sets(self, monkeypatch):
        """Work counted, not timed: on ten random 16-18-link antichains the
        cut walk yields under a quarter of the sets of the uncut one."""
        cases = work_antichains()
        unbounded = counted_walks(monkeypatch, bounded=False)
        want = [beta_by_enumeration(h) for h in cases]
        bounded = counted_walks(monkeypatch, bounded=True)
        assert [beta_by_enumeration(h) for h in cases] == want
        assert 0 < 4 * bounded[0] < unbounded[0]


class TestSeededBeta:
    """``beta_by_enumeration`` seeds the walk's records just below its own
    sigma; for every sigma, right, off by a little or far off, the walk must
    find the frozen unbounded walk's answer, and return it only when sigma
    is right, raising with both values otherwise."""

    def test_any_seed_gives_the_unseeded_answer(self, monkeypatch):
        checked = 0
        for h in beta_families():
            want = beta_reference.beta_by_enumeration(h)
            sigma = metrics._sigma(h)
            w = delta_matrix(h)
            den, most = w.den, w.den + max(sum(row.values()) for row in w.ints)
            # sigma, a little off either way (on and off the den grid), far
            # off, and above every bound: just above, and so far above (or
            # below 0) that the start would not fit the packed fields.
            seeds = [sigma, sigma - F(1, den), sigma + F(1, den), sigma - F(1, 2 * den),
                     sigma + F(1, 2 * den), 1, 0, -1, 2 * sigma, F(most + 1, den),
                     F(most + 2, den), F(100 * most, den), F(10**9), F(-10 * most, den)]
            for s in seeds:
                monkeypatch.setattr(metrics, "_sigma", lambda h, limit=None: s)
                if s == sigma:
                    assert beta_by_enumeration(h) == want, (h, s)
                else:
                    with pytest.raises(SolverInvariantError) as err:
                        beta_by_enumeration(h)
                    assert str(err.value) == (
                        f"beta = {want.beta} differs from sigma = {s}; this is a library bug"
                    ), (h, s)
                checked += 1
            monkeypatch.undo()
        assert checked == 5418

    def test_seeded_walk_yields_under_a_fifth_of_the_sets(self, monkeypatch):
        """Work counted, not timed: seeded with sigma, ``_sigma``'s walks and
        the cut walk together yield under a fifth of the sets of the cut walk
        from 0, which a sigma of 0 starts and which then raises."""
        cases = work_antichains()
        count = counted_walks(monkeypatch, bounded=True)
        for h in cases:
            beta_by_enumeration(h)
        seeded, count[0] = count[0], 0
        monkeypatch.setattr(metrics, "_sigma", lambda h, limit=None: 0)
        for h in cases:
            with pytest.raises(SolverInvariantError):
                beta_by_enumeration(h)
        assert 0 < 5 * seeded < count[0]


class TestSharedRecordSigma:
    """``beta``'s cross-check takes sigma from the degree walks with one
    record shared across links; it must equal the report's sigma."""

    def test_equals_the_report_on_the_beta_families(self):
        for h in beta_families():
            assert metrics._sigma(h) == interference_metrics(h).sigma

    def test_edgeless_and_no_neighbor_inputs(self):
        for h in (Hypergraph(1), Hypergraph(6), Hypergraph(5, ((0, 1),))):
            assert metrics._sigma(h) == interference_metrics(h).sigma == 1
        assert metrics._sigma(Hypergraph(6, ((0, 1, 2),))) == F(3, 2)

    def test_one_record_for_both_degrees_cuts_more(self, monkeypatch):
        """Work counted: a Delta'' record lifts the Delta' one and back, so
        on the work antichains the sigma walks yield under a third of the
        sets of the report's walks; two separate records give about 0.38."""
        cases = work_antichains()
        count = counted_walks(monkeypatch, bounded=True)
        for h in cases:
            interference_metrics(h)
        report, count[0] = count[0], 0
        for h in cases:
            metrics._sigma(h)
        assert 0 < 3 * count[0] < report

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded) as err:
            metrics._sigma(Hypergraph(5, ((0, 1),)), limit=4)
        assert (err.value.n, err.value.limit) == (5, 4)


class TestSigmaWalk:
    """``_sigma`` walks with one int record of its own, not as a mode of the
    degree walks: the same sets as their shared record, and one Fraction."""

    def test_yields_the_shared_record_sets(self, monkeypatch):
        """Work counted: the sets that the degree walks with one shared
        record yield on the work antichains and the beta families when the
        links go in descending order of their root bound."""
        count = counted_walks(monkeypatch, bounded=True)
        for h in work_antichains():
            metrics._sigma(h)
        work, count[0] = count[0], 0
        for h in beta_families():
            metrics._sigma(h)
        assert (work, count[0]) == (778, 9333)

    def test_one_fraction_beyond_the_delta_matrix(self, monkeypatch):
        made = fraction_counter(monkeypatch)
        counts = []
        for h in work_antichains():
            made[0] = 0
            # An equal but distinct hypergraph, so that _sigma builds its own.
            delta_matrix(Hypergraph(h.num_links, h.edges))
            matrix, made[0] = made[0], 0
            metrics._sigma(h)
            counts.append((made[0], matrix + 1))
        monkeypatch.undo()
        assert all(got == want for got, want in counts)


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
        _, orbits = automorphisms(star2x4)

        def boom(*args):
            raise AssertionError("automorphisms searched again")

        monkeypatch.setattr(metrics, "automorphisms", boom)
        sym = symmetrize_demand(star2x4, DemandVector((1, 1, 1, 0, 1, 1, 0)), orbits)
        assert sym.values == (1, F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3))

    def test_constant_fixed_point(self, star2x4):
        tau = DemandVector((F(1, 3),) * 7)
        assert symmetrize_demand(star2x4, tau, automorphisms(star2x4)[1]) == tau

    def test_triangle_unit(self, triangle):
        sym = symmetrize_demand(triangle, DemandVector((1, 0, 0)), automorphisms(triangle)[1])
        assert sym.values == (F(1, 3),) * 3

    def test_preserves_center_bound_and_feasibility(self, star2x4):
        tau = DemandVector((1, 1, 1, 0, 1, 1, 0))
        sym = symmetrize_demand(star2x4, tau, automorphisms(star2x4)[1])
        assert b_bound(star2x4, tau).per_link[0] == b_bound(star2x4, sym).per_link[0]
        assert is_feasible(star2x4, tau) == is_feasible(star2x4, sym) is True

    def test_orbit_constant(self):
        rng = random.Random(113)
        for _ in range(10):
            h = random_hypergraph(rng, max_links=6)
            tau = random_demand(rng, h.num_links)
            sym = symmetrize_demand(h, tau, automorphisms(h)[1])
            for perm in brute_automorphisms(h):
                assert permute_demand(perm, sym) == sym

    def test_rejects_orbits_that_do_not_partition(self):
        # Overlapping orbits used to give (1/2, 1/4, 1/4), no group average;
        # an orbit past the links raised a bare IndexError.
        h = Hypergraph(3, ((0, 1), (1, 2)))
        tau = DemandVector((F(1, 2), F(1, 2), 0))
        assert symmetrize_demand(h, tau, ((0, 2), (1,))).values == (F(1, 4), F(1, 2), F(1, 4))
        for orbits in (
            ((0, 1), (1, 2)),
            ((0, 1), (2, 5)),
            ((0, 1),),
            ((0, 1), (2,), ()),
            ((0, 1.0), (2,)),  # passed the check, then raised a bare TypeError
        ):
            with pytest.raises(ValueError, match=r"orbits must partition the links 0\.\.2"):
                symmetrize_demand(h, tau, orbits)

    def test_equals_explicit_group_average(self):
        """Orbit means equal the average over the listed group, on inputs
        of at most 8 links, where the N! scan stays quick."""

        def group_average(auts, tau):
            acc = [F(0)] * len(tau)
            for perm in auts:
                for i, v in enumerate(tau):
                    acc[perm[i]] += v
            return tuple(v / len(auts) for v in acc)

        rng = random.Random(149)
        cases = [random_hypergraph(rng, max_links=8, min_edges=2) for _ in range(40)]
        cases += [built_star((2,) * p) for p in range(2, 8)]
        cases += [built_star(p) for p in ((2, 3), (3, 3, 4), (4, 4), (2, 2, 3), (3, 3, 3))]
        for h in cases:
            tau = random_demand(rng, h.num_links)
            orbits = automorphisms(h)[1]
            expected = group_average(brute_automorphisms(h), tau)
            assert symmetrize_demand(h, tau, orbits).values == expected


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


def roadmap_instance(n):
    """The random instance of the size-wall figures for ``metrics``:
    ``random.Random(n)``, 2n edges of 2-4 links, minimalized."""
    rng = random.Random(n)
    return minimalize(n, [rng.sample(range(n), rng.randint(2, 4)) for _ in range(2 * n)])


def counted_walks(monkeypatch, bounded):
    """Wrap the kernel that the degree searches call so that it counts the
    sets its walks yield; unless ``bounded``, the walks get no cut.  Returns
    the one-element count list."""
    count = [0]

    def counted(pool, completions, weights, cut=None):
        walk = hypergraph._independent_subsets(
            pool, completions, weights, cut=cut if bounded else None
        )
        for item in walk:
            count[0] += 1
            yield item

    monkeypatch.setattr(metrics, "_independent_subsets", counted)
    return count


class TestBoundedDegreeSearch:
    """The degree searches cut branches whose bound cannot beat a record;
    values and witnesses must be those of the full walk."""

    def test_n40_equals_the_unbounded_walk(self, monkeypatch):
        h = roadmap_instance(40)
        bounded = interference_metrics(h, limit=40)
        counted_walks(monkeypatch, bounded=False)
        unbounded = interference_metrics(h, limit=40)
        # Every per-link value and witness, and the aggregates.
        assert bounded == unbounded

    def test_n40_walks_a_tenth_of_the_sets(self, monkeypatch):
        """Work counted, not timed: the bounded walks of N = 40 yield
        under a tenth of the sets that the unbounded ones yield."""
        h = roadmap_instance(40)
        unbounded = counted_walks(monkeypatch, bounded=False)
        interference_metrics(h, limit=40)
        bounded = counted_walks(monkeypatch, bounded=True)
        interference_metrics(h, limit=40)
        assert 0 < 10 * bounded[0] < unbounded[0]

    @pytest.mark.parametrize("k, most", [(3, 12), (4, 8)])
    def test_uniform_stars_equal_the_closed_form(self, k, most):
        for p in range(2, most + 1):
            h = built_star((k,) * p)
            sigma = interference_metrics(h, limit=h.num_links).sigma
            assert sigma == beta_star_formula(is_beta_star(h))

    def test_tie_heavy_uniform_hypergraphs_match_brute_force(self):
        """All edges of one size give every neighbor the same Delta-weight,
        so many subsets tie and the first one must still win."""
        rng = random.Random(179)
        for k in (2, 3, 4):
            for _ in range(25):
                h = random_hypergraph(rng, max_links=9, max_edges=10, min_size=k,
                                      max_size=k, min_links=k + 2)
                rep = interference_metrics(h)
                for i in range(h.num_links):
                    assert tuple(rep.per_link_prime[i]) == brute_degree(h, i, False)
                    assert tuple(rep.per_link_doubleprime[i]) == brute_degree(h, i, True)
