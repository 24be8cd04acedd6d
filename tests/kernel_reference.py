"""Reference oracle for the independent-set kernel: the walk without a cut.

A frozen copy of ``hypersched.hypergraph._independent_subsets`` as it was
before the kernel learned to cut branches by a weight bound.  The order in
which it yields sets fixes the ``chi-f`` witnesses (the LP's columns come in
this order) and ``beta``'s witness demand (the first set that beats a
record), so the differential tests require the kernel to yield the very same
sequence when no ``cut`` is given.  It is a test oracle, not a second search
path.
"""

from __future__ import annotations


def _members(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def independent_subsets(pool, completions, weights, *, maximal=False):
    """Yield ``(J, total, blocked)`` for the independent subsets J of
    ``pool`` in lexicographic order of their sorted member tuples; with
    ``maximal`` (pool = every link) only the maximal ones."""
    pool_mask = sum(1 << v for v in pool)
    stack = [(0, 0, pool_mask, 0, 0)]
    while stack:
        current, blocked, above, total, skipped = stack.pop()
        if not maximal or current | blocked == pool_mask:
            yield current, total, blocked
        free = above & ~blocked
        skipped &= ~blocked
        children = []
        while free:
            low = free & -free
            free ^= low
            if maximal:
                avail = current | (above & -low)
                if not all(any(c & avail == c for c in completions[u]) for u in _members(skipped)):
                    break
            v = low.bit_length() - 1
            child = current | low
            child_blocked = blocked
            for c in completions[v]:
                rem = c & ~child
                if not rem & (rem - 1):
                    child_blocked |= rem
            children.append(
                (child, child_blocked, above & -(low << 1), total + weights[v], skipped)
            )
            if maximal:
                skipped |= low
        children.reverse()
        stack += children
