"""The benchmark's workloads: seeded instance lists and the CLI calls made
on them.

Each builder takes a ``random.Random`` and returns a list of ``Call``.
Instance sizes are drawn inside fixed strata, and where the cost of a call
swings widely with the random structure the draw is repeated until a
recorded property (independent-set counts) lands in the stratum's band, so
that two seeds give inputs of comparable size.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from pathlib import Path

from generate import (
    Instance,
    independent_set_counts,
    ones_rows,
    properties,
    random_antichain,
    random_demand,
    relabel,
    star,
)
from verify import condition_sums, delta_weights


@dataclasses.dataclass
class Call:
    """One ``hypersched`` invocation: subcommand, instance and options
    (``rule``, ``w`` = weight kind or None, ``order`` = 0-based tuple or None)."""

    command: str
    inst: Instance
    opts: dict = dataclasses.field(default_factory=dict)
    argv: list = dataclasses.field(default_factory=list)

    @property
    def key(self):
        return (self.command, self.inst.name, tuple(sorted((k, str(v)) for k, v in self.opts.items())))


def _in(band, value):
    return band is None or band[0] <= value <= band[1]


def _banded(rng, n, all_band=None, maximal_band=None):
    """Random antichain on ``n`` links with n..2n edges whose counts of all
    and of maximal independent sets lie in the given (lo, hi) bands.  The
    cheap count of all sets is tested first."""
    for _ in range(10_000):
        edges = random_antichain(rng, n, rng.randint(n, 2 * n))
        if all_band is not None and not _in(all_band, independent_set_counts(n, edges, False)[0]):
            continue
        if maximal_band is None or _in(maximal_band, independent_set_counts(n, edges)[1]):
            return edges
    raise RuntimeError(f"no hypergraph on {n} links in bands {all_band}, {maximal_band}")


# --------------------------------------------------------------------------
# chi_f_lp

# (links, maximal-set band, all-set band, hypergraphs).  A call's simplex
# cost varies by about a third between random instances of one size, so the
# figures are steadied by the number of instances; these fill one pass of
# about 30 s.  With two calls per hypergraph and four golden calls, the
# median call falls among the 14-link calls (44) and the tail call (10
# calls above it) among the 15-link ones (28).  Single 17- and 18-link
# instances are left out: their simplex cost varies 3x between draws (0.7 s
# to 3 s per call), enough to move calls_per_s by a tenth from one seed to
# the next.  The 16-link ones also bound the count of all independent sets,
# which the maximal-set enumeration walks.
CHI_F_STRATA = (
    (12, (36, 50), None, 2),
    (13, (42, 60), None, 2),
    (14, (56, 72), None, 22),
    (15, (64, 82), None, 14),
    (16, (80, 110), (4500, 6500), 1),
)


def _chi_f_demand(rng, n):
    """1/d per link with d drawn from {2, 3, 4, 6}.  Of the demand shapes
    tried (k/d, k/12, all 1/2, zeros allowed) this one gives the narrowest
    spread of simplex cost between random instances of one size."""
    return [Fraction(1, rng.choice((2, 3, 4, 6))) for _ in range(n)]


def chi_f_lp(rng, data_dir):
    """`chi-f` and then `feasible` on each instance, with the same demand:
    every `feasible` verdict must then agree with a chi_f whose witness was
    checked."""
    instances = []
    for n, maximal_band, all_band, count in CHI_F_STRATA:
        for k in range(count):
            edges = _banded(rng, n, all_band, maximal_band)
            instances.append(Instance(f"chif_n{n}_{k}", n, edges, _chi_f_demand(rng, n)))
    instances += golden_instances(data_dir)
    return [Call(command, inst) for inst in instances for command in ("chi-f", "feasible")]


def golden_instances(data_dir: Path):
    """The bundled example files, read with a minimal parser of our own."""
    out = []
    for hg in sorted(data_dir.glob("*.hg")):
        n = None
        edges = []
        for raw in hg.read_text(encoding="utf-8").splitlines():
            tokens = raw.split("#", 1)[0].split()
            if tokens and tokens[0] == "links":
                n = int(tokens[1])
            elif tokens and tokens[0] == "edge":
                edges.append(tuple(sorted(int(t) - 1 for t in tokens[1:])))
        dfile = data_dir / f"{hg.stem}_demand.txt"
        demand = None
        for raw in dfile.read_text(encoding="utf-8").splitlines():
            tokens = raw.split("#", 1)[0].split()
            if tokens and tokens[0] == "demand":
                demand = [Fraction(t) for t in tokens[1:]]
        out.append(Instance(f"golden_{hg.stem}", n, edges, demand))
    return out


# --------------------------------------------------------------------------
# greedy_sparse


def _sparse_demand(rng, n):
    return [Fraction(rng.randint(0, 3), 24) for _ in range(n)]


def greedy_sparse(rng, data_dir):
    calls = []
    for idx, n in enumerate((100, 100, 100, 100, 100, 200)):
        inst = Instance(f"sparse_n{n}_{idx}", n, random_antichain(rng, n, 2 * n), _sparse_demand(rng, n))
        # Dense weight files alternate between the delta matrix and the
        # all-ones-on-neighbor-pairs matrix (also admissible).
        if idx % 2 == 0:
            inst.weights, wkind = delta_weights(inst), "delta"
        else:
            inst.weights, wkind = ones_rows(n, inst.edges), "ones"
        order = list(range(n))
        rng.shuffle(order)
        calls += [
            Call("check", inst, {"rule": "lemma1"}),
            Call("check", inst, {"rule": "cor4"}),
            Call("check", inst, {"rule": "thm3", "w": wkind}),
            Call("schedule", inst),
            Call("schedule", inst, {"order": tuple(order)}),
            Call("schedule", inst, {"w": wkind}),
        ]
    # The largest sizes get only the calls whose cost the dense N x N
    # delta matrix dominates; no weight files, which would cost seconds to
    # parse.
    n = 400
    inst = Instance(f"sparse_n{n}", n, random_antichain(rng, n, 2 * n), _sparse_demand(rng, n))
    order = list(range(n))
    rng.shuffle(order)
    calls += [
        Call("check", inst, {"rule": "lemma1"}),
        Call("check", inst, {"rule": "cor4"}),
        Call("schedule", inst, {"order": tuple(order)}),
    ]
    # Stand-in for a `links N` stress file: many links, a handful of edges.
    n = 500
    inst = Instance(f"links_n{n}", n, random_antichain(rng, n, rng.randint(1, 5)), _sparse_demand(rng, n))
    calls += [Call("check", inst, {"rule": "lemma1"}), Call("check", inst, {"rule": "cor4"})]
    return calls


# --------------------------------------------------------------------------
# worst_case

# (links, all-independent-set band, instances) for metrics + beta.  beta's
# cost is nearly proportional to the number of independent sets it
# enumerates, so narrow bands keep the cost of a stratum nearly fixed.  The
# strata are sized so that the median call falls among the 12-link beta
# calls, above the cheaper 12-link metrics calls: with 6 12-link and 3
# 14-link instances it fell where the one gives way to the other, and moved
# with the seed.  The tail call is the second cheapest of the seven 16-link
# beta calls; with eleven of them it was their median, whose cost varies
# more between seeds.
WORST_STRATA = (
    (12, (700, 850), 14),
    (14, (2000, 2400), 7),
    (16, (6000, 7200), 7),
    (18, (12000, 14500), 2),
)

# Petal-size tuples of the beta-stars for `star` + `beta`: 2-5 petals of
# 2-5 links, at most 2^15 + 7^5 independent sets.
BETA_STARS = (
    (2, 2),
    (3, 4),
    (5, 5),
    (2, 3, 4),
    (4, 4, 4),
    (3, 5, 5),
    (2, 2, 3, 3),
    (3, 3, 4, 4),
    (4, 4, 4, 4),
    (2, 3, 4, 5, 5),
    (4, 4, 4, 4, 4),
)

# Stars with at most 10 links for `symmetrize`; group orders from 4 to 40320.
SYM_STARS = (
    (2, 3),
    (3, 3, 4),
    (4, 4, 4),
    (5, 5),
    (3, 3, 3, 3),
    (2, 2, 2, 2, 2, 2, 2, 2),
)


def worst_case(rng, data_dir):
    calls = []
    for n, band, count in WORST_STRATA:
        for k in range(count):
            edges = _banded(rng, n, all_band=band)
            inst = Instance(f"worst_n{n}_{k}", n, edges)
            calls += [Call("metrics", inst), Call("beta", inst)]
    for petals in BETA_STARS:
        n, edges = star(petals)
        inst = Instance("star_" + "_".join(map(str, petals)), n, relabel(rng, n, edges), props={"star": True})
        calls += [Call("star", inst), Call("beta", inst)]
    # Symmetrized stars keep their canonical labels (center 1, petals in
    # order): the automorphism search's cost depends on the labelling by up
    # to 10x, which would make the seed, not the program, set the timings.
    for petals in SYM_STARS:
        n, edges = star(petals)
        inst = Instance("symstar_" + "_".join(map(str, petals)), n, edges, random_demand(rng, n), props={"star": True})
        calls.append(Call("symmetrize", inst))
    for k in range(4):
        n = rng.randint(7, 10)
        edges = random_antichain(rng, n, rng.randint(n // 2, n))
        inst = Instance(f"symrand_n{n}_{k}", n, edges, random_demand(rng, n))
        calls.append(Call("symmetrize", inst))
    return calls


WORKLOADS = {
    "chi_f_lp": chi_f_lp,
    "greedy_sparse": greedy_sparse,
    "worst_case": worst_case,
}


def record_properties(calls):
    """Fill each instance's ``props`` (size measures, and for instances with
    a demand whether the delta condition holds).  Returns the per-instance
    property table."""
    table = {}
    for call in calls:
        inst = call.inst
        if inst.name in table:
            continue
        inst.props.update(properties(inst.n, inst.edges))
        if inst.demand is not None and inst.edges:
            inst.props["cor4_holds"] = all(v <= 1 for v in condition_sums(inst, "cor4", False))
        table[inst.name] = dict(inst.props)
    return table
