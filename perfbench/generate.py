"""Seeded instance generator for the benchmark.

Everything here is plain Python on 0-based link ids and bitmasks; nothing
imports ``hypersched``, so the instances and their recorded properties do not
depend on the code under test.  Files are written in the package's own
1-based formats (``links``/``edge`` hypergraph files, ``demand`` lines, dense
weight rows).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from pathlib import Path

# Above this many links the independent-set counts are not recorded.
COUNT_LIMIT = 18


@dataclasses.dataclass
class Instance:
    """One generated input: a hypergraph, optionally a demand vector and a
    sparse symmetric weight matrix as rows {j: w} (link i's row is
    ``weights[i]``)."""

    name: str
    n: int
    edges: list
    demand: list | None = None
    weights: dict | None = None
    props: dict = dataclasses.field(default_factory=dict)


# --------------------------------------------------------------------------
# random structures


def random_antichain(rng, n, m, sizes=(2, 4)):
    """``m`` distinct edges on links 0..n-1 with sizes in ``sizes`` (inclusive
    range), no edge containing another.  Candidates that would break the
    antichain are redrawn, so the family has exactly ``m`` edges."""
    lo, hi = sizes
    edges = []
    sets = []
    for _ in range(200_000):
        if len(edges) == m:
            break
        k = rng.randint(lo, min(hi, n))
        cand = frozenset(rng.sample(range(n), k))
        if any(cand <= s or s <= cand for s in sets):
            continue
        sets.append(cand)
        edges.append(tuple(sorted(cand)))
    if len(edges) != m:
        raise ValueError(f"could not draw {m} antichain edges on {n} links")
    return edges


def star(petal_sizes):
    """Beta-star with center 0 and one petal per entry (edge size), petals
    otherwise disjoint.  Returns (n, edges)."""
    edges = []
    nxt = 1
    for k in petal_sizes:
        edges.append(tuple([0] + list(range(nxt, nxt + k - 1))))
        nxt += k - 1
    return nxt, edges


def random_demand(rng, n):
    """Each entry k/d with d drawn from {2, 3, 4, 6} and 0 <= k <= d."""
    out = []
    for _ in range(n):
        d = rng.choice((2, 3, 4, 6))
        out.append(Fraction(rng.randint(0, d), d))
    return out


def relabel(rng, n, edges):
    """Apply a random permutation of the link ids."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(sorted(perm[v] for v in e)) for e in edges]


# --------------------------------------------------------------------------
# properties


def independent_set_counts(n, edges, with_maximal=True):
    """(all independent sets incl. the empty set, maximal independent sets
    or None when not ``with_maximal``), by a bitmask DFS that adds links in
    increasing order."""
    closing = [[] for _ in range(n)]  # edges whose largest link is v, minus v
    through = [[] for _ in range(n)]  # for each v: masks of E - {v}, E through v
    for e in edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        closing[max(e)].append(mask & ~(1 << max(e)))
        for v in e:
            through[v].append(mask & ~(1 << v))
    total = 0
    maximal = 0
    full = (1 << n) - 1

    def is_maximal(s):
        rest = full & ~s
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if not any(c & ~s == 0 for c in through[v]):
                return False
            rest ^= low
        return True

    stack = [(0, 0)]
    while stack:
        s, start = stack.pop()
        total += 1
        if with_maximal and is_maximal(s):
            maximal += 1
        for v in range(n - 1, start - 1, -1):
            if all(c & ~s for c in closing[v]):
                stack.append((s | (1 << v), v + 1))
    return total, maximal if with_maximal else None


def properties(n, edges):
    props = {
        "n": n,
        "edges": len(edges),
        "sum_edge_sq": sum(len(e) ** 2 for e in edges),
    }
    if n <= COUNT_LIMIT:
        props["independent_sets"], props["maximal_sets"] = independent_set_counts(n, edges)
    return props


# --------------------------------------------------------------------------
# weights


def ones_rows(n, edges):
    """All-ones weights on neighbor pairs, as rows {j: w}: admissible because
    every edge row sums to |E| - 1 >= 1."""
    rows = [dict() for _ in range(n)]
    for e in edges:
        for i in e:
            for j in e:
                if i != j:
                    rows[i][j] = Fraction(1)
    return rows


# --------------------------------------------------------------------------
# files


def _fmt(v):
    return str(Fraction(v))


def write_instance(inst: Instance, directory: Path):
    """Write ``<name>.hg`` and, when present, ``<name>.demand`` and
    ``<name>.w``.  Returns a dict of the paths written."""
    paths = {}
    hg = directory / f"{inst.name}.hg"
    lines = [f"links {inst.n}"]
    lines += ["edge " + " ".join(str(v + 1) for v in e) for e in inst.edges]
    hg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["hg"] = hg
    if inst.demand is not None:
        dp = directory / f"{inst.name}.demand"
        dp.write_text("demand " + " ".join(_fmt(v) for v in inst.demand) + "\n", encoding="utf-8")
        paths["demand"] = dp
    if inst.weights is not None:
        wp = directory / f"{inst.name}.w"
        rows = [["0"] * inst.n for _ in range(inst.n)]
        for i, row in enumerate(inst.weights):
            for j, v in row.items():
                rows[i][j] = _fmt(v)
        wp.write_text("\n".join(" ".join(r) for r in rows) + "\n", encoding="utf-8")
        paths["w"] = wp
    return paths
