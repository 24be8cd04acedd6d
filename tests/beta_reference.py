"""Reference oracle for ``beta``: the packed walk over every independent set.

A frozen copy of ``hypersched.metrics.beta_by_enumeration`` as it was
before its walk learned to cut branches: every independent set is visited,
in the order of ``kernel_reference``, and a link's record changes only on a
strict ``>``, so its witness is the first set that attains its best value.
The scaling to ints is done here too, so an edit to ``src/`` cannot change
the oracle.  It is a test oracle, not a second search path.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from hypersched import DemandVector, delta_matrix
from hypersched.metrics import BetaWitness

import kernel_reference


def beta_by_enumeration(h):
    """Worst-case ratio, witness link and witness 0/1 demand of ``h``."""
    d = delta_matrix(h).rows
    den = lcm(1, *(v.denominator for row in d for v in row.values()))
    rows = [{j: int(v * den) for j, v in row.items()} for row in d]
    n = h.num_links
    width = (den + max(sum(row.values()) for row in rows) + 1).bit_length() + 1
    field = (1 << width) - 1
    weights = [0] * n
    for i, row in enumerate(rows):
        for j, v in row.items():
            weights[j] += v << (i * width)
        weights[i] += den << (i * width)
    guard = sum(1 << (i * width + width - 1) for i in range(n))
    best = [0] * n
    witness = [0] * n
    thr = sum(1 << (i * width) for i in range(n))
    for s, total, _ in kernel_reference.independent_subsets(range(n), h.completions, weights):
        beat = ((total | guard) - thr) & guard
        while beat:
            i = (beat.bit_length() - 1) // width
            shift = i * width
            beat ^= 1 << (shift + width - 1)
            v = (total >> shift) & field
            thr += (v - best[i]) << shift
            best[i] = v
            witness[i] = s
    top = max(best)
    link = best.index(top)
    return BetaWitness(
        beta=Fraction(top, den),
        link=link,
        demand=DemandVector.characteristic(n, kernel_reference._members(witness[link])),
    )
