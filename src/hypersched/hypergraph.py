"""Conflict hypergraphs on a dense link set 0..N-1.

A hyperedge is a minimal set of links that cannot all be active at the same
time; a link set is independent when it contains no hyperedge.  Link ids are
0-based internally (file formats use 1-based labels).

Invariants enforced by :func:`validate_hypergraph`:
  - every edge has at least 2 links,
  - all link ids are in range,
  - the edge family is an antichain (no edge contains another).
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from operator import index
from typing import Iterable

from .errors import (
    EdgeTooSmall,
    LinkOutOfRange,
    NotAntichain,
    SizeLimitExceeded,
)

# Enumeration over all 2^N subsets gets out of hand quickly; operations that
# walk the independent-set lattice refuse larger inputs unless told otherwise.
DEFAULT_SIZE_LIMIT = 20
# Automorphism search is factorial in the worst case.
DEFAULT_AUTOMORPHISM_LIMIT = 10


@dataclasses.dataclass(frozen=True)
class Hypergraph:
    """Ground set of ``num_links`` links plus a family of forbidden edges.

    Edges are canonicalized to sorted tuples and deduplicated (first
    occurrence wins).  Construction does not run the semantic checks; call
    :func:`validate_hypergraph` for those.
    """

    num_links: int
    edges: tuple = ()

    def __post_init__(self):
        if not isinstance(self.num_links, int) or self.num_links < 1:
            raise ValueError(f"num_links must be a positive integer, got {self.num_links!r}")
        canon = []
        seen = set()
        for edge in self.edges:
            try:
                t = tuple(sorted(set(map(index, edge))))
            except TypeError:
                raise ValueError(f"edge {edge!r} is not a set of integer link ids") from None
            if t not in seen:
                seen.add(t)
                canon.append(t)
        object.__setattr__(self, "edges", tuple(canon))

    @cached_property
    def edge_sets(self) -> tuple:
        return tuple(frozenset(e) for e in self.edges)

    @cached_property
    def incidence(self) -> tuple:
        """Per link, the indices of the edges through it, in edge order.
        Needs every link id in range (see :func:`validate_hypergraph`)."""
        inc = [[] for _ in range(self.num_links)]
        for k, edge in enumerate(self.edges):
            for v in edge:
                inc[v].append(k)
        return tuple(tuple(ks) for ks in inc)

    @cached_property
    def completions(self) -> tuple:
        """Per link v, in edge order, the bitmask of each edge through v less
        v: the sets C with ``C ⊆ current ⟹ current + v dependent``.  Built
        on first use, so only the size-limited walks pay for its N-bit masks."""
        masks = [sum(1 << v for v in edge) for edge in self.edges]
        return tuple(tuple(masks[k] ^ (1 << v) for k in ks) for v, ks in enumerate(self.incidence))


def _check_edges(h: Hypergraph) -> None:
    for edge in h.edges:
        if len(edge) < 2:
            raise EdgeTooSmall(edge)
        for v in edge:
            if not 0 <= v < h.num_links:
                raise LinkOutOfRange(edge, v, h.num_links)


def _containments(h: Hypergraph):
    """Yield ``(a, b)`` for every edge b that contains edge a, a ascending
    and b in edge order.  Such a b lies in ``incidence[v]`` for every link v
    of a, so only the shortest of those lists is scanned.  Edges are
    distinct, so none contains one of the largest size: those are skipped."""
    sets = h.edge_sets
    inc = h.incidence
    top = max(map(len, h.edges), default=0)
    for a, edge in enumerate(h.edges):
        if len(edge) == top:
            continue
        shortest = inc[edge[0]]
        for v in edge:
            if len(inc[v]) < len(shortest):
                shortest = inc[v]
        sa = sets[a]
        for b in shortest:
            if b != a and sa <= sets[b]:
                yield a, b


def validate_hypergraph(h: Hypergraph) -> None:
    """Raise EdgeTooSmall / LinkOutOfRange / NotAntichain if ``h`` is malformed."""
    _check_edges(h)
    for a, b in _containments(h):
        raise NotAntichain(h.edges[a], h.edges[b])


def minimalize(num_links: int, raw_edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Keep only the inclusion-minimal edges of ``raw_edges`` and deduplicate.

    Input order of the surviving edges is preserved.  Singleton edges and
    out-of-range ids are rejected outright rather than silently dropped.
    """
    h = Hypergraph(num_links, raw_edges)
    _check_edges(h)
    supersets = {b for _, b in _containments(h)}
    return Hypergraph(num_links, tuple(e for k, e in enumerate(h.edges) if k not in supersets))


def neighbors(h: Hypergraph, i: int) -> frozenset:
    """Links that share at least one edge with link ``i``."""
    i = index(i)
    if not 0 <= i < h.num_links:
        raise ValueError(f"link {i} outside 0..{h.num_links - 1}")
    sets = h.edge_sets
    out = set()
    for k in h.incidence[i]:
        out |= sets[k]
    out.discard(i)
    return frozenset(out)


def is_independent(h: Hypergraph, links: Iterable[int]) -> bool:
    s = frozenset(links)
    return not any(es <= s for es in h.edge_sets)


def _members(mask: int) -> list:
    """The links of a bitmask (bit v is link v), ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _independent_subsets(pool, completions, weights, *, maximal=False, cut=None):
    """Walk the independent subsets J of ``pool``, in lexicographic order of
    their sorted member tuples (pre-order DFS).  Sets are bitmasks, bit v for
    link v; ``completions`` is :attr:`Hypergraph.completions`.

    Yields ``(J, sum of weights[v] over J, blocked)``, where ``blocked`` is
    the mask of the links u outside J for which J holds every other link of
    some edge through u.  Each step carries that mask, so a step costs the
    edges through the added link, not a scan of the whole pool.

    With ``maximal`` (pool = every link) only the maximal sets are yielded,
    and the walk cuts the branches that hold none.  A pool link the walk has
    skipped never joins a set below the branch, so such a set is maximal
    only if one of the link's completions lies inside it.  The child that
    adds sibling ``low`` keeps ``J`` plus the pool links from ``low`` up, so
    a completion C inside ``J | remaining pool`` stays inside that child's
    sets exactly when the lowest link of ``C - J`` is at least ``low``.
    Hence the *reach* of a skipped or free link: the largest lowest link of
    ``C - J`` over its completions C inside ``J | remaining pool``, 0 if
    there is none.  Sibling ``low`` has a maximal set below it only if every
    link skipped by then (the branch's skipped links, all below the
    siblings, and the siblings below ``low``) reaches ``low``.  So one
    upward scan of those links, each reach computed once per popped set,
    stops at the first sibling above the least reach so far; later siblings
    are cut too.  A set costs (skipped + siblings) x completions, and the
    walk yields the same sets as checking every skipped link at every
    sibling.

    With ``cut``, a branch-and-bound.  The child that adds v carries the
    bound ``total + weights[v] +`` the weights of its parent's free links
    above v (pool links above the parent's last member that it does not
    block): for nonnegative weights no set below the child exceeds it.
    ``cut(bound, blocked)`` is asked before the child is built, with the
    parent's ``blocked``, and when it is popped, with its own, so that it
    sees the records the caller took from the sets yielded in between; if
    either answer is true, the child and its subtree are dropped unyielded.
    Asking early needs a monotone ``cut``: one that stays true as records
    rise, as the bound falls and as ``blocked`` grows (down a branch it
    does).  A ``maximal`` walk takes no cut: its sibling scan drops links
    from ``free`` that sets below the remaining children may still hold.
    Without ``cut`` every set is yielded, in the same order.
    """
    pool_mask = sum(1 << v for v in pool)
    # (set, links it blocks, pool links above its last, total, skipped links
    # not yet blocked, bound)
    stack = [(0, 0, pool_mask, 0, 0, sum(weights[v] for v in pool) if cut is not None else 0)]
    push = stack.append
    while stack:
        current, blocked, above, total, skipped, bound = stack.pop()
        if cut is not None and cut(bound, blocked):
            continue
        if not maximal or current | blocked == pool_mask:
            yield current, total, blocked
        free = above & ~blocked
        skipped &= ~blocked
        if maximal and free:
            # The skipped links all lie below the siblings, so one upward
            # scan meets them first; it stops at the first link above the
            # least reach of the links before it.
            outside = ~(current | above)
            least = pool_mask + 1
            scan = skipped | free
            while scan:
                low = scan & -scan
                if low > least:
                    free &= low - 1
                    break
                scan ^= low
                if scan:
                    reach = 0
                    for c in completions[low.bit_length() - 1]:
                        if not c & outside:
                            c &= ~current
                            c &= -c
                            if c > reach:
                                reach = c
                    if reach < least:
                        least = reach
        # Children go on the stack highest link first, so the lowest pops
        # first; the links left in ``free`` are the ones each child skips.
        # Under a cut, ``rest`` sums the weights of v and the free links
        # above it; an uncut walk carries no bound.
        rest = bound = 0
        while free:
            v = free.bit_length() - 1
            low = 1 << v
            free ^= low
            w = weights[v]
            if cut is not None:
                rest += w
                bound = total + rest
                if cut(bound, blocked):
                    continue
            child = current | low
            child_blocked = blocked
            for c in completions[v]:
                rem = c & ~child
                if not rem & (rem - 1):
                    child_blocked |= rem
            push((child, child_blocked, above & -(low << 1), total + w, skipped | free, bound))


def _check_limit(h: Hypergraph, limit, default):
    lim = default if limit is None else limit
    if h.num_links > lim:
        raise SizeLimitExceeded(h.num_links, lim)


def _enumerate(h: Hypergraph, limit, maximal, masks) -> list:
    _check_limit(h, limit, DEFAULT_SIZE_LIMIT)
    n = h.num_links
    walk = _independent_subsets(range(n), h.completions, [0] * n, maximal=maximal)
    if masks:
        return [s for s, _, _ in walk]
    return [frozenset(_members(s)) for s, _, _ in walk]


def enumerate_independent_sets(h: Hypergraph, limit: int | None = None, *, masks: bool = False) -> list:
    """All independent sets of ``h`` (including the empty set), each once,
    in lexicographic order.  Backtracks with edge-completion pruning instead
    of filtering all 2^N subsets.  With ``masks``, each set is the int
    bitmask with bit ``i`` set for link ``i``, not a frozenset."""
    return _enumerate(h, limit, maximal=False, masks=masks)


def enumerate_maximal_independent_sets(
    h: Hypergraph, limit: int | None = None, *, masks: bool = False
) -> list:
    """The inclusion-maximal independent sets, in lexicographic order.  The
    walk cuts every branch that a skipped link proves non-maximal, and keeps
    a set only when it blocks every link outside it.  ``masks`` as in
    ``enumerate_independent_sets``."""
    return _enumerate(h, limit, maximal=True, masks=masks)


def automorphisms(h: Hypergraph, limit: int | None = None) -> tuple:
    """Order and orbits of the group of link permutations mapping the edge
    family onto itself, as ``(order, orbits)``; ``orbits`` holds sorted
    tuples, ordered by their least link.

    A stabilizer-chain search that lists no map: for k = n-1 down to 0, with
    links 0..k-1 fixed, it finds one map sending k to each candidate image
    not yet in k's orbit.  Orbits are those of the maps found; the order is
    the product of k's orbit lengths.  Candidates must match k's multiset of
    incident-edge sizes, and every fully assigned edge must land on an edge.
    """
    _check_limit(h, limit, DEFAULT_AUTOMORPHISM_LIMIT)
    n = h.num_links
    family = set(h.edge_sets)

    sigs = [tuple(sorted(len(h.edges[k]) for k in h.incidence[v])) for v in range(n)]
    candidates = [[w for w in range(n) if sigs[w] == sigs[v]] for v in range(n)]
    # Edges checkable once link k is assigned: those whose largest member is k.
    edges_closed_at = [[] for _ in range(n)]
    for es in h.edge_sets:
        edges_closed_at[max(es)].append(es)

    orbit = [frozenset((v,)) for v in range(n)]
    order = 1
    for k in range(n - 1, -1, -1):
        for w in candidates[k]:
            if w < k or w in orbit[k]:
                continue
            used = [v < k for v in range(n)]  # links 0..k-1 map to themselves
            found = _assign(k, (w,), list(range(n)), used, candidates, edges_closed_at, family)
            for v, u in enumerate(found or ()):
                merged = orbit[v] | orbit[u]
                for x in merged:
                    orbit[x] = merged
        order *= len(orbit[k])
    return order, tuple(sorted({tuple(sorted(o)) for o in orbit}))


def _assign(k, choices, image, used, candidates, closing, family):
    """The first map, as its image tuple, that extends ``image[:k]`` with
    ``image[k]`` in ``choices``; None if there is none.  ``closing[k]`` holds
    the edges whose largest link is k."""
    for w in choices:
        image[k] = w
        if not used[w] and all(frozenset(image[v] for v in es) in family for es in closing[k]):
            if k + 1 == len(image):
                return tuple(image)
            used[w] = True
            found = _assign(k + 1, candidates[k + 1], image, used, candidates, closing, family)
            used[w] = False
            if found:
                return found
    return None
