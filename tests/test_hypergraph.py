"""Hypergraph core: validation, enumeration, automorphisms.

Brute-force oracles (filtering all 2^N subsets here, scanning all N!
permutations in conftest) are the references; derived expected values in the
golden tests were computed with them and are asserted against them again.
"""

import random
import time
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersched import (
    EdgeTooSmall,
    Hypergraph,
    LinkOutOfRange,
    NotAntichain,
    ParseError,
    SizeLimitExceeded,
    automorphisms,
    enumerate_independent_sets,
    enumerate_maximal_independent_sets,
    hypergraph,
    is_independent,
    minimalize,
    neighbors,
    validate_hypergraph,
)
from hypersched.formats import parse_hypergraph_text
import kernel_reference
from conftest import (
    brute_automorphisms,
    built_star,
    order_and_orbits,
    random_hypergraph,
    wall_instance,
)


def brute_independent_sets(h):
    out = []
    for r in range(h.num_links + 1):
        for combo in combinations(range(h.num_links), r):
            s = frozenset(combo)
            if not any(es <= s for es in h.edge_sets):
                out.append(s)
    return out


def brute_maximal_sets(h):
    ind = set(brute_independent_sets(h))
    return [
        s
        for s in ind
        if all(s | {v} not in ind for v in range(h.num_links) if v not in s)
    ]


def lexicographic(sets):
    """Sets in the order the enumerations promise: by sorted member list."""
    return sorted(sets, key=sorted)


def maximal_filter(h):
    """The maximal sets among enumerate_independent_sets, in its order."""
    sets = enumerate_independent_sets(h)
    known = set(sets)
    return [
        s
        for s in sets
        if all(s | {v} not in known for v in range(h.num_links) if v not in s)
    ]


def compose(p, q):
    """Image tuple of p after q."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def map_set(p, links):
    """Image of a link set under the image tuple p."""
    return frozenset(p[v] for v in links)


class TestValidate:
    def test_triangle_ok(self, triangle):
        validate_hypergraph(triangle)

    def test_subset_edge_rejected(self):
        h = Hypergraph(7, ((0, 1, 2, 3), (0, 1)))
        with pytest.raises(NotAntichain) as err:
            validate_hypergraph(h)
        assert err.value.edge == (0, 1)
        assert err.value.superset == (0, 1, 2, 3)

    def test_singleton_edge_rejected(self):
        with pytest.raises(EdgeTooSmall):
            validate_hypergraph(Hypergraph(2, ((0,),)))

    def test_out_of_range_link(self):
        with pytest.raises(LinkOutOfRange) as err:
            validate_hypergraph(Hypergraph(3, ((0, 5),)))
        assert err.value.link == 5

    def test_bad_num_links(self):
        with pytest.raises(ValueError):
            Hypergraph(0)

    def test_non_integral_link_id_rejected(self):
        # int() would truncate 1.9 and accept the edge (0, 1).
        with pytest.raises(ValueError, match="integer link ids"):
            Hypergraph(3, [(0, 1.9), (1, 2)])

    def test_constructor_dedups_and_sorts(self):
        h = Hypergraph(4, ((2, 0), (0, 2), (3, 1)))
        assert h.edges == ((0, 2), (1, 3))


class TestConstruction:
    """No Hypergraph holds an edge of fewer than 2 links or an id outside
    0..N-1: construction refuses it, so no library call meets one."""

    def test_singleton_edge(self):
        with pytest.raises(EdgeTooSmall) as err:
            Hypergraph(2, [(0,)])
        assert err.value.edge == (0,)

    @pytest.mark.parametrize("edge, link", [((-1, 0), -1), ((0, 5), 5), ((9, -2, 5, 0), -2), ((0, 7, 5), 5)])
    def test_link_out_of_range_names_the_lowest(self, edge, link):
        with pytest.raises(LinkOutOfRange) as err:
            Hypergraph(3, [edge])
        assert (err.value.edge, err.value.link, err.value.num_links) == (tuple(sorted(edge)), link, 3)

    def test_size_before_range(self):
        with pytest.raises(EdgeTooSmall) as err:
            Hypergraph(3, [(0, 1), (7,)])
        assert err.value.edge == (7,)

    def test_first_distinct_edge_named(self):
        with pytest.raises(LinkOutOfRange) as err:
            Hypergraph(4, [(0, 1), (1, 9), (2,), (1, 9)])
        assert err.value.edge == (1, 9)
        with pytest.raises(EdgeTooSmall) as err:
            Hypergraph(4, [(2, 2), (1, 9)])
        assert err.value.edge == (2,)

    def test_repeated_singleton_reported_once_at_its_first_occurrence(self):
        text = "links 3\nedge 1 2\nedge 2\nedge 2 3\nedge 2\n"
        with pytest.raises(ParseError) as err:
            parse_hypergraph_text(text, "h.hg")
        assert err.value.line == 3
        assert str(err.value) == "h.hg:3: edge 2 has fewer than 2 links"


def raw_family(rng, n, count):
    """Random edges of 2..4 links, with subsets and duplicates likely."""
    out = []
    for _ in range(count):
        if out and rng.random() < 0.3:
            base = rng.choice(out)
            out.append(tuple(rng.sample(base, rng.randint(2, len(base)))))
        else:
            out.append(tuple(rng.sample(range(n), rng.randint(2, min(4, n)))))
    return out


def hub_family(rng, n, count):
    """Random edges, most through one hub link anywhere in 0..n-1, with
    subsets, supersets and duplicates of earlier edges likely."""
    hub = rng.randrange(n)
    others = [v for v in range(n) if v != hub]
    out = []
    for _ in range(count):
        r = rng.random()
        if out and r < 0.2:
            base = rng.choice(out)
            out.append(tuple(rng.sample(base, rng.randint(min(2, len(base)), len(base)))))
        elif out and r < 0.35:
            grown = set(rng.choice(out)) | set(rng.sample(range(n), rng.randint(1, 2)))
            out.append(tuple(sorted(grown)))
        elif r < 0.85:
            out.append((hub, *rng.sample(others, rng.randint(1, min(3, len(others))))))
        else:
            out.append(tuple(rng.sample(range(n), rng.randint(2, min(4, n)))))
    return out


def all_pairs_containments(h):
    sets = h.edge_sets
    return [
        (h.edges[a], h.edges[b])
        for a in range(len(sets))
        for b in range(len(sets))
        if a != b and sets[a] <= sets[b]
    ]


def reference_minimalize(n, raw):
    """minimalize by its definition: canonicalize, dedupe, check sizes and
    ranges in that order, then keep the edges containing no other edge."""
    canon = list(dict.fromkeys(tuple(sorted(set(e))) for e in raw))
    for t in canon:
        if len(t) < 2:
            raise EdgeTooSmall(t)
        for v in t:
            if not 0 <= v < n:
                raise LinkOutOfRange(t, v, n)
    return tuple(a for a in canon if not any(b != a and set(b) <= set(a) for b in canon))


def outcome(f, *args):
    try:
        return f(*args)
    except (EdgeTooSmall, LinkOutOfRange) as e:
        return type(e), e.args


class TestAntichainScan:
    """The incidence-indexed antichain checks agree with all-pairs scans."""

    def test_first_pair_matches_all_pairs(self):
        rng = random.Random(11)
        rejected = 0
        for _ in range(300):
            h = Hypergraph(8, raw_family(rng, 8, rng.randint(2, 7)))
            sets = h.edge_sets
            pairs = [
                (h.edges[a], h.edges[b])
                for a in range(len(sets))
                for b in range(len(sets))
                if a != b and sets[a] <= sets[b]
            ]
            if not pairs:
                validate_hypergraph(h)
                continue
            rejected += 1
            with pytest.raises(NotAntichain) as err:
                validate_hypergraph(h)
            assert (err.value.edge, err.value.superset) == pairs[0]
        assert rejected >= 100

    def test_minimalize_matches_all_pairs(self):
        rng = random.Random(13)
        for _ in range(300):
            raw = raw_family(rng, 8, rng.randint(1, 8))
            canon = list(dict.fromkeys(tuple(sorted(e)) for e in raw))
            expected = tuple(
                a for a in canon if not any(b != a and set(b) <= set(a) for b in canon)
            )
            assert minimalize(8, raw).edges == expected

    def test_hub_heavy_families_match_all_pairs(self):
        """Families where the shortest incidence list of an edge is often
        not that of its smallest link: the shared scan yields every
        containment in all-pairs order, validation reports its first pair,
        and minimalize (singletons and out-of-range ids mixed in) agrees
        with its definition."""
        rng = random.Random(23)
        rejected = not_min = errors = 0
        for k in range(400):
            n = rng.randint(3, 9)
            raw = hub_family(rng, n, rng.randint(2, 9))
            h = Hypergraph(n, raw)
            inc = h.incidence
            not_min += any(len(inc[v]) < len(inc[e[0]]) for e in h.edges for v in e)
            pairs = all_pairs_containments(h)
            scanned = [(h.edges[a], h.edges[b]) for a, b in hypergraph._containments(h)]
            assert scanned == pairs
            if pairs:
                rejected += 1
                with pytest.raises(NotAntichain) as err:
                    validate_hypergraph(h)
                assert (err.value.edge, err.value.superset) == pairs[0]
            else:
                validate_hypergraph(h)

            if k % 5 == 0:
                raw.insert(rng.randint(0, len(raw)), (rng.randrange(n),))
            if k % 7 == 0:
                raw.insert(rng.randint(0, len(raw)), (rng.randrange(n), n + rng.randint(0, 2)))
            got = outcome(minimalize, n, raw)
            if isinstance(got, Hypergraph):
                got = got.edges
            else:
                errors += 1
            assert got == outcome(reference_minimalize, n, raw)
        assert rejected >= 100
        assert not_min >= 100
        assert errors >= 50

    def test_uniform_family_validates_fast(self):
        """Distinct edges of the largest size contain no other edge, so the
        scan skips them: every 5-subset of 18 links (8568 edges) validates
        in a fraction of a second."""
        h = Hypergraph(18, tuple(combinations(range(18), 5)))
        start = time.perf_counter()
        validate_hypergraph(h)
        assert time.perf_counter() - start < 0.3

    def test_incidence_in_edge_order(self, star2x4):
        assert star2x4.incidence == ((0, 1), (0,), (0,), (0,), (1,), (1,), (1,))
        assert Hypergraph(3).incidence == ((), (), ())


class TestMinimalize:
    def test_subset_absorbs_superset(self):
        h = minimalize(4, [(0, 1, 2, 3), (0, 1, 2)])
        assert h.edges == ((0, 1, 2),)

    def test_dedup(self):
        h = minimalize(2, [(0, 1), (0, 1)])
        assert h.edges == ((0, 1),)

    def test_antichain_unchanged(self):
        h = minimalize(7, [(0, 1, 2, 3), (0, 4, 5, 6)])
        assert h.edges == ((0, 1, 2, 3), (0, 4, 5, 6))
        validate_hypergraph(h)

    def test_rejects_singleton(self):
        with pytest.raises(EdgeTooSmall):
            minimalize(3, [(0,)])

    def test_rejects_out_of_range(self):
        with pytest.raises(LinkOutOfRange):
            minimalize(3, [(0, 7)])

    def test_result_always_validates(self):
        rng = random.Random(7)
        for _ in range(50):
            h = random_hypergraph(rng)
            validate_hypergraph(h)


class TestNeighbors:
    def test_star_center(self, star2x4):
        assert neighbors(star2x4, 0) == frozenset({1, 2, 3, 4, 5, 6})

    def test_star_petal(self, star2x4):
        assert neighbors(star2x4, 1) == frozenset({0, 2, 3})

    def test_no_edges(self):
        assert neighbors(Hypergraph(4), 2) == frozenset()

    @pytest.mark.parametrize("i", [-1, 4])
    def test_link_outside_range(self, i):
        h = Hypergraph(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError, match=rf"^link {i} outside 0\.\.3$"):
            neighbors(h, i)
        assert [neighbors(h, j) for j in range(4)] == [{1}, {0}, {3}, {2}]

    def test_matches_edges_containing(self, star2x4):
        for i in range(star2x4.num_links):
            union = set()
            for k in star2x4.incidence[i]:
                union |= set(star2x4.edges[k])
            union.discard(i)
            assert neighbors(star2x4, i) == union


class TestEdgesContaining:
    """``incidence[i]`` indexes the edges containing link i, in edge order."""

    def test_center_in_both(self, star2x4):
        assert star2x4.incidence[0] == (0, 1)

    def test_petal_in_one(self, star2x4):
        assert star2x4.incidence[1] == (0,)

    def test_triangle(self, triangle):
        assert triangle.incidence[2] == (0,)


class TestIsIndependent:
    def test_pair_in_triangle(self, triangle):
        assert is_independent(triangle, {0, 1})

    def test_full_triangle(self, triangle):
        assert not is_independent(triangle, {0, 1, 2})

    def test_empty_set(self, star2x4):
        assert is_independent(star2x4, set())


class TestEnumeration:
    def test_triangle_counts(self, triangle):
        sets = enumerate_independent_sets(triangle)
        brute = brute_independent_sets(triangle)
        assert sorted(map(sorted, sets)) == sorted(map(sorted, brute))
        assert len(sets) == 7

    def test_star_count_vs_brute_force(self, star2x4):
        sets = enumerate_independent_sets(star2x4)
        assert len(sets) == len(brute_independent_sets(star2x4)) == 113

    def test_edgeless(self):
        assert len(enumerate_independent_sets(Hypergraph(3))) == 8

    def test_lexicographic_order(self, triangle):
        sets = [tuple(sorted(s)) for s in enumerate_independent_sets(triangle)]
        assert sets == sorted(sets)
        assert sets[0] == ()

    def test_maximal_triangle(self, triangle):
        sets = enumerate_maximal_independent_sets(triangle)
        assert [tuple(sorted(s)) for s in sets] == [(0, 1), (0, 2), (1, 2)]

    def test_maximal_star(self, star2x4):
        expected = {frozenset({1, 2, 3, 4, 5, 6})}
        for j1 in (1, 2, 3):
            for j2 in (4, 5, 6):
                expected.add(frozenset({0, 1, 2, 3, 4, 5, 6}) - {j1, j2})
        got = enumerate_maximal_independent_sets(star2x4)
        assert set(got) == expected
        assert len(got) == 10

    def test_maximal_edgeless(self):
        for n in range(1, 7):
            assert enumerate_maximal_independent_sets(Hypergraph(n)) == [frozenset(range(n))]

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded) as err:
            enumerate_independent_sets(Hypergraph(25), limit=20)
        assert err.value.n == 25
        assert err.value.limit == 20

    def test_deterministic(self, star2x4):
        assert enumerate_independent_sets(star2x4) == enumerate_independent_sets(star2x4)

    def test_random_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            h = random_hypergraph(rng, max_links=8)
            assert enumerate_independent_sets(h) == sorted(
                brute_independent_sets(h), key=sorted
            )
            assert enumerate_maximal_independent_sets(h) == lexicographic(
                brute_maximal_sets(h)
            )

    def test_n12_matches_brute_force(self):
        rng = random.Random(12)
        for _ in range(3):
            h = random_hypergraph(rng, max_links=12, min_links=12)
            assert set(enumerate_independent_sets(h)) == set(
                brute_independent_sets(h)
            )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_downward_closure(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        h = random_hypergraph(rng, max_links=7)
        for s in enumerate_independent_sets(h):
            sub = frozenset(v for v in s if data.draw(st.booleans()))
            assert is_independent(h, sub)

    def test_maximal_sets_are_maximal(self):
        rng = random.Random(13)
        for _ in range(30):
            h = random_hypergraph(rng, max_links=8)
            for s in enumerate_maximal_independent_sets(h):
                assert is_independent(h, s)
                for v in range(h.num_links):
                    if v not in s:
                        assert not is_independent(h, s | {v})


class TestMaximalWalk:
    """The maximal-set walk cuts branches that cannot hold a maximal set; it
    must still return every maximal set, and only those, in lexicographic
    order."""

    @staticmethod
    def check(h):
        assert enumerate_maximal_independent_sets(h) == lexicographic(brute_maximal_sets(h))

    def test_random_up_to_12_links(self):
        rng = random.Random(21)
        for _ in range(120):
            self.check(random_hypergraph(rng, max_links=12, max_edges=10))

    def test_random_dense_up_to_12_links(self):
        rng = random.Random(22)
        for _ in range(40):
            self.check(random_hypergraph(rng, max_links=12, max_edges=24, max_size=3, min_links=6))

    def test_links_in_no_edge(self):
        for h in (
            Hypergraph(6, ((0, 2), (2, 4, 5))),
            Hypergraph(7, ((1, 2, 3),)),
            Hypergraph(9, ((0, 8), (3, 4), (4, 8, 5))),
        ):
            self.check(h)

    def test_one_edge_covering_every_link(self):
        for n in range(2, 10):
            got = enumerate_maximal_independent_sets(Hypergraph(n, (tuple(range(n)),)))
            assert got == [frozenset(range(n)) - {v} for v in reversed(range(n))]

    def test_star2x4(self, star2x4):
        self.check(star2x4)

    def test_hub_heavy(self):
        """Many edges through one link, with the hub at either end of the
        link order, and hubs with edges between the petals."""
        for petals, size in ((5, 2), (11, 2), (5, 3), (3, 4)):
            n = 1 + petals * (size - 1)
            edges = [(0, *range(1 + k * (size - 1), 1 + (k + 1) * (size - 1))) for k in range(petals)]
            self.check(Hypergraph(n, tuple(edges)))
            last = n - 1
            self.check(Hypergraph(n, tuple(tuple(last if v == 0 else v - 1 for v in e) for e in edges)))
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(6, 12)
            hub = rng.randrange(n)
            others = [v for v in range(n) if v != hub]
            raw = [[hub, *rng.sample(others, rng.randint(1, 2))] for _ in range(rng.randint(3, 8))]
            raw += [rng.sample(others, 2) for _ in range(rng.randint(0, 3))]
            self.check(minimalize(n, raw))

    @pytest.mark.parametrize("n", [18, 19, 20])
    def test_matches_filter_of_all_sets(self, n):
        h = wall_instance(n)
        assert enumerate_maximal_independent_sets(h) == maximal_filter(h)

    def test_hub_heavy_18_links_matches_filter(self):
        rng = random.Random(24)
        others = range(1, 18)
        raw = [[0, *rng.sample(others, 2)] for _ in range(8)]
        raw += [rng.sample(others, rng.randint(2, 3)) for _ in range(18)]
        h = minimalize(18, raw)
        assert max(len(ks) for ks in h.incidence) == len(h.incidence[0]) >= 6
        assert enumerate_maximal_independent_sets(h) == maximal_filter(h)


class CountingWeights(list):
    """Zero weights that count how often the walk reads one: once per set
    it steps into."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return 0


class TestMaximalWalkWork:
    """How many sets the maximal walk steps into.  Every skipped link is
    re-checked as the remaining pool shrinks; checking fewer of them keeps
    the answer but steps into about three times as many sets."""

    @pytest.mark.parametrize("n, maximal, steps", [(20, 303, 2666), (28, 813, 9204)])
    def test_steps_on_wall_instances(self, n, maximal, steps):
        h = wall_instance(n)
        weights = CountingWeights([0] * n)
        walk = hypergraph._independent_subsets(
            range(n), h.completions, weights, maximal=True
        )
        assert sum(1 for _ in walk) == maximal
        assert weights.reads <= steps


def filtered_subsets(pool, h):
    """The independent subsets of ``pool``, as sorted tuples in
    lexicographic order, by filtering every subset."""
    members = sorted(pool)
    return sorted(
        combo
        for r in range(len(members) + 1)
        for combo in combinations(members, r)
        if is_independent(h, combo)
    )


class TestWalkYields:
    """Every ``(J, total, blocked)`` the walk yields, checked from scratch:
    J runs over the pool's independent subsets in lexicographic order,
    ``total`` is J's weight, and ``blocked`` holds exactly the links u
    outside J for which J holds every other link of an edge through u."""

    def test_random_hypergraphs_every_link_and_each_neighborhood(self):
        rng = random.Random(113)
        for _ in range(40):
            h = random_hypergraph(rng, max_links=9, max_edges=8)
            n = h.num_links
            weights = [rng.randint(0, 9) for _ in range(n)]
            table = h.completions
            for pool in [range(n)] + [neighbors(h, i) for i in range(n)]:
                walk = list(hypergraph._independent_subsets(pool, table, weights))
                sets = [hypergraph._members(s) for s, _, _ in walk]
                assert [tuple(j) for j in sets] == filtered_subsets(pool, h)
                for j, (_, total, blocked) in zip(sets, walk):
                    assert total == sum(weights[v] for v in j)
                    assert blocked == sum(
                        1 << u
                        for u in range(n)
                        if u not in j
                        and any(u in es and es - {u} <= set(j) for es in h.edge_sets)
                    )


def reference_bounds(walk, pool, weights):
    """Per set of an uncut ``walk`` (pre-order, parents first), its bound:
    its total plus the weights of the pool links above its last member
    that its parent does not block."""
    blocked_by = {s: blocked for s, _, blocked in walk}
    bounds = {}
    for s, total, _ in walk:
        last = s.bit_length() - 1
        parent_blocked = blocked_by[s ^ 1 << last] if s else 0
        bounds[s] = total + sum(
            weights[v] for v in pool if v > last and not parent_blocked >> v & 1
        )
    return bounds


class TestWalkOrder:
    """Without ``cut`` the kernel yields the very sequence of the frozen
    kernel in ``kernel_reference``, in both modes: ``chi-f``'s witness
    schedules and ``beta``'s witness demand follow this order.  With
    ``cut``, each popped set's bound and the subtrees it drops are checked
    against that sequence."""

    @staticmethod
    def cases():
        rng = random.Random(173)
        for k in range(120):
            h = random_hypergraph(rng, max_links=12, max_edges=6 if k % 2 else 14)
            yield h, [rng.randint(0, 9) for _ in range(h.num_links)]

    def test_same_sequence_as_the_frozen_kernel(self):
        for h, weights in self.cases():
            n = h.num_links
            table = h.completions
            pools = [(range(n), False), (range(n), True)]
            pools += [(neighbors(h, i), False) for i in range(n)]
            for pool, maximal in pools:
                got = hypergraph._independent_subsets(pool, table, weights, maximal=maximal)
                want = kernel_reference.independent_subsets(pool, table, weights, maximal=maximal)
                assert list(got) == list(want)

    def test_maximal_walk_on_dense_families(self):
        """14-16 links with 2n-4n edges of 2-3 links: many skipped links
        per branch, so the sibling scan stops early at many sets."""
        rng = random.Random(181)
        for _ in range(12):
            n = rng.randint(14, 16)
            raw = [rng.sample(range(n), rng.randint(2, 3)) for _ in range(rng.randint(2 * n, 4 * n))]
            h = minimalize(n, raw)
            weights = [0] * n
            got = hypergraph._independent_subsets(range(n), h.completions, weights, maximal=True)
            want = kernel_reference.independent_subsets(
                range(n), h.completions, weights, maximal=True
            )
            assert list(got) == list(want)

    def test_bound_is_total_plus_the_pool_weights_above(self):
        """A child's bound is its total plus the weights of its parent's
        free links above its last member, the only pool links a set below
        it can add; the root's is the whole pool's weight.  ``cut`` is asked
        for each child, highest first, with its parent's ``blocked`` before
        the child is built, and again when the child is popped, with its
        own; no set below a popped set has a larger total than its bound."""
        for h, weights in self.cases():
            table = h.completions
            for pool in [range(h.num_links)] + [neighbors(h, i) for i in range(h.num_links)]:
                asks = []  # appending returns None, so nothing is cut
                walk, popped = [], []
                for item in hypergraph._independent_subsets(
                    pool, table, weights, cut=lambda bound, blocked: asks.append((bound, blocked))
                ):
                    walk.append(item)
                    popped.append(len(asks) - 1)
                assert walk == list(kernel_reference.independent_subsets(pool, table, weights))
                bounds = reference_bounds(walk, pool, weights)
                assert bounds[0] == sum(weights[v] for v in pool)
                below, children = {}, {}
                for s, total, _ in reversed(walk):
                    below[s] = max(below.get(s, total), total)
                    if s:
                        parent = s ^ 1 << (s.bit_length() - 1)
                        below[parent] = max(below.get(parent, 0), below[s])
                        children.setdefault(parent, []).append(s)
                for k, (s, total, blocked) in enumerate(walk):
                    end = popped[k + 1] if k + 1 < len(walk) else len(asks)
                    assert asks[popped[k]] == (bounds[s], blocked)
                    pushed = sorted(children.get(s, ()), reverse=True)
                    assert asks[popped[k] + 1:end] == [(bounds[c], blocked) for c in pushed]
                    assert below[s] <= bounds[s]

    def test_a_monotone_cut_drops_what_it_would_drop_at_pop(self):
        """A cut that stays true as the record rises, as the bound falls
        and as ``blocked`` grows, asked before each child is built and again
        at pop, yields the frozen kernel's sequence less every set that it,
        or an ancestor, fails when asked at pop alone: asking early drops
        only what the pop would."""
        for h, weights in list(self.cases())[:60]:
            n = h.num_links
            table = h.completions
            for pool in [range(n)] + [neighbors(h, i) for i in range(0, n, 3)]:
                want = list(kernel_reference.independent_subsets(pool, table, weights))
                bounds = reference_bounds(want, pool, weights)
                for x in range(0, n, 2):
                    for rule in (
                        lambda bound, blocked, record: bound <= record,
                        lambda bound, blocked, record: bound <= record or blocked >> x & 1,
                        lambda bound, blocked, record: bound <= record and blocked >> x & 1,
                        lambda bound, blocked, record: bound <= record + 3 and blocked >> x & 1,
                    ):
                        kept, dropped, record = [], set(), -1
                        for s, total, blocked in want:
                            if s and s ^ 1 << (s.bit_length() - 1) in dropped:
                                dropped.add(s)
                            elif rule(bounds[s], blocked, record):
                                dropped.add(s)
                            else:
                                kept.append((s, total, blocked))
                                record = max(record, total)
                        got, record = [], -1
                        for item in hypergraph._independent_subsets(
                            pool, table, weights,
                            cut=lambda bound, blocked: rule(bound, blocked, record),
                        ):
                            got.append(item)
                            record = max(record, item[1])
                        assert got == kept

    def test_a_cut_set_takes_its_subtree_along(self):
        """``blocked`` only grows down a branch, so cutting every set that
        blocks link x leaves exactly the sets that do not block x."""
        for h, weights in list(self.cases())[:40]:
            n = h.num_links
            table = h.completions
            for x in range(n):
                got = hypergraph._independent_subsets(
                    range(n), table, weights, cut=lambda bound, blocked: blocked >> x & 1
                )
                want = kernel_reference.independent_subsets(range(n), table, weights)
                assert list(got) == [item for item in want if not item[2] >> x & 1]


class TestSizeWall:
    """Past the default size limit, the maximal-set walk costs time in the
    number of maximal sets, not of all independent sets: the N = 28 wall
    instance (813 maximal sets) stays far below the bound."""

    def test_maximal_sets_n28(self):
        h = wall_instance(28)
        with pytest.raises(SizeLimitExceeded):
            enumerate_maximal_independent_sets(h)
        start = time.perf_counter()
        sets = enumerate_maximal_independent_sets(h, limit=28)
        elapsed = time.perf_counter() - start
        assert len(sets) == 813
        assert sets == lexicographic(sets)
        for s in sets:
            assert is_independent(h, s)
            assert all(not is_independent(h, s | {v}) for v in range(28) if v not in s)
        assert elapsed < 5.0


class TestAutomorphisms:
    def test_star_group(self, star2x4):
        brute = brute_automorphisms(star2x4)
        assert automorphisms(star2x4) == order_and_orbits(brute, 7)
        assert automorphisms(star2x4) == (72, ((0,), (1, 2, 3, 4, 5, 6)))

    def test_triangle_full_symmetry(self, triangle):
        brute = brute_automorphisms(triangle)
        assert automorphisms(triangle) == order_and_orbits(brute, 3) == (6, ((0, 1, 2),))

    def test_path_graph(self):
        h = Hypergraph(3, ((0, 1), (1, 2)))
        assert sorted(brute_automorphisms(h)) == [(0, 1, 2), (2, 1, 0)]
        assert automorphisms(h) == (2, ((0, 2), (1,)))

    def test_orbits_partition_the_links_and_each_automorphism_keeps_them(self):
        rng = random.Random(17)
        for _ in range(15):
            h = random_hypergraph(rng, max_links=6)
            _, orbits = automorphisms(h)
            assert sorted(v for o in orbits for v in o) == list(range(h.num_links))
            assert all(list(o) == sorted(o) for o in orbits)
            assert [o[0] for o in orbits] == sorted(o[0] for o in orbits)
            for p in brute_automorphisms(h):
                for o in orbits:
                    assert map_set(p, o) == frozenset(o)

    def test_star_order_formula(self):
        """A star with n_k petals of size k: the petals of one size permute,
        and so do the k - 1 leaves of each petal, so the order is the
        product of n_k! (k-1)!^n_k; the center is an orbit of its own."""
        for sizes in ((2, 2), (2, 3), (3, 3, 4), (4, 4, 4), (5, 5), (3, 3, 3, 3), (2,) * 8):
            h = built_star(sizes)
            order = 1
            for size in set(sizes):
                count = sizes.count(size)
                order *= factorial(count) * factorial(size - 1) ** count
            leaves = {
                size: tuple(v for e in h.edges if len(e) == size for v in e[1:])
                for size in set(sizes)
            }
            assert automorphisms(h) == (order, tuple(sorted([(0,), *leaves.values()])))

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            automorphisms(Hypergraph(11))

    def test_edgeless_ten_links(self):
        """The default limit admits an edgeless 10-link input, whose group
        of 10! maps is summarized without listing it."""
        start = time.perf_counter()
        assert automorphisms(Hypergraph(10)) == (3628800, (tuple(range(10)),))
        assert time.perf_counter() - start < 1.0

    def test_matches_brute_force_random(self):
        rng = random.Random(19)
        for _ in range(1000):
            h = random_hypergraph(rng, max_links=7, max_edges=rng.randint(0, 8))
            assert automorphisms(h) == order_and_orbits(brute_automorphisms(h), h.num_links)


class TestPermutation:
    def test_compose_inverse(self):
        p = (1, 2, 0)
        assert compose(p, inverse(p)) == (0, 1, 2)
        assert map_set(p, {0, 1}) == frozenset({1, 2})
