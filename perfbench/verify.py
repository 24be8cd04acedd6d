"""Independent checks of ``hypersched --json`` reports.

The verifier works from the generated instance (0-based edges, demand and
sparse weights) and re-derives every property it checks with its own code;
it never calls the library's validators.  Each check raises ``Rejected``
with a reason; returning normally means the report is accepted.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

ONE = Fraction(1)


class Rejected(Exception):
    """A report failed verification."""


def _require(cond, reason):
    if not cond:
        raise Rejected(reason)


def _frac(text):
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise Rejected(f"bad rational {text!r}") from None


def _links(labels, n):
    """1-based labels from a report -> set of 0-based ids."""
    out = set()
    for lab in labels:
        _require(isinstance(lab, int) and 1 <= lab <= n, f"bad link label {lab!r}")
        out.add(lab - 1)
    return out


def _independent(edges, links):
    return not any(all(v in links for v in e) for e in edges)


def _incidence(inst):
    table = [[] for _ in range(inst.n)]
    for e in inst.edges:
        for v in e:
            table[v].append(e)
    return table


def delta_weights(inst):
    """Sparse canonical weights {i: {j: max 1/(|E|-1)}}."""
    rows = [dict() for _ in range(inst.n)]
    for e in inst.edges:
        val = Fraction(1, len(e) - 1)
        for i in e:
            for j in e:
                if i != j and rows[i].get(j, 0) < val:
                    rows[i][j] = val
    return rows


def weighted_sums(inst, rows):
    tau = inst.demand
    return [tau[i] + sum((w * tau[j] for j, w in rows[i].items()), Fraction(0)) for i in range(inst.n)]


def edge_min_sums(inst):
    tau = inst.demand
    return [
        tau[i] + sum((min(tau[j] for j in e if j != i) for e in through), Fraction(0))
        for i, through in enumerate(_incidence(inst))
    ]


def condition_sums(inst, rule, with_w):
    """Per-link sums of a sufficient condition, recomputed sparsely."""
    if rule == "lemma1":
        return edge_min_sums(inst)
    if rule == "thm3" and with_w:
        return weighted_sums(inst, inst.weights)
    return weighted_sums(inst, delta_weights(inst))


# --------------------------------------------------------------------------
# per-command checks; each gets (inst, call options, exit code, parsed JSON)


def check_chi_f(inst, opts, code, rep):
    _require(code == 0, f"chi-f exit code {code}")
    value = _frac(rep["chi_f"])
    n = inst.n
    cover = [Fraction(0)] * n
    total = Fraction(0)
    for entry in rep["schedule"]:
        links = _links(entry["set"], n)
        d = _frac(entry["duration"])
        _require(d > 0, f"non-positive duration {d}")
        _require(_independent(inst.edges, links), f"witness set {sorted(links)} contains an edge")
        for v in links:
            cover[v] += d
        total += d
    _require(total == value, f"witness total {total} != chi_f {value}")
    for i in range(n):
        _require(cover[i] >= inst.demand[i], f"link {i + 1} covered {cover[i]} < {inst.demand[i]}")
    _check_chi_f_bounds(inst, value)
    return value


def _check_chi_f_bounds(inst, value):
    # Serving each link alone is a schedule; links that pairwise conflict
    # can never share a slot.
    tau = inst.demand
    _require(value <= sum(tau), f"chi_f {value} above the all-singletons schedule")
    _require(value >= max(tau), f"chi_f {value} below a single demand")
    for e in inst.edges:
        if len(e) == 2:
            _require(value >= tau[e[0]] + tau[e[1]], f"chi_f {value} below edge {e} demand")


def check_feasible(inst, opts, code, rep):
    value = _frac(rep["chi_f"])
    _check_chi_f_bounds(inst, value)
    feasible = value <= 1
    _require(rep["feasible"] is feasible, "feasible flag disagrees with chi_f <= 1")
    _require(code == (0 if feasible else 1), f"feasible exit code {code} for chi_f {value}")
    return value


def check_condition(inst, opts, code, rep):
    expected = condition_sums(inst, opts["rule"], opts.get("w") is not None)
    got = [_frac(v) for v in rep["per_link"]]
    _require(rep["rule"] == opts["rule"], "rule echoed wrongly")
    _require(len(got) == inst.n, "per_link has the wrong length")
    for i, (a, b) in enumerate(zip(got, expected)):
        _require(a == b, f"link {i + 1}: per-link sum {a} != {b}")
    holds = all(v <= 1 for v in expected)
    _require(rep["holds"] is holds, "holds flag disagrees with the per-link sums")
    _require(code == (0 if holds else 1), f"check exit code {code}, holds={holds}")
    return holds


def _active_at_common_instant(interval_lists):
    """True when all the given unions of half-open intervals intersect."""
    acc = interval_lists[0]
    for other in interval_lists[1:]:
        out = []
        i = j = 0
        while i < len(acc) and j < len(other):
            lo = max(acc[i][0], other[j][0])
            hi = min(acc[i][1], other[j][1])
            if lo < hi:
                out.append((lo, hi))
            if acc[i][1] <= other[j][1]:
                i += 1
            else:
                j += 1
        acc = out
        if not acc:
            return False
    return True


def check_schedule(inst, opts, code, rep):
    rule = "thm3" if opts.get("w") is not None else "cor4"
    condition_holds = all(v <= 1 for v in condition_sums(inst, rule, rule == "thm3"))
    if code == 1:
        _require("stuck_at" in rep, "exit 1 without a stuck report")
        _require(not condition_holds, "greedy reported STUCK although the condition holds")
        return "stuck"
    _require(code == 0, f"schedule exit code {code}")
    per_link = rep["intervals"]
    _require(len(per_link) == inst.n, "interval list has the wrong length")
    assigned = []
    for i, entry in enumerate(per_link):
        _require(entry["link"] == i + 1, "links out of order")
        pieces = [(_frac(a), _frac(b)) for a, b in entry["intervals"]]
        last = Fraction(0)
        for a, b in pieces:
            _require(last <= a < b <= ONE, f"link {i + 1}: bad interval [{a},{b})")
            last = b
        measure = sum((b - a for a, b in pieces), Fraction(0))
        _require(measure == inst.demand[i], f"link {i + 1}: measure {measure} != {inst.demand[i]}")
        assigned.append(pieces)
    for e in inst.edges:
        lists = [assigned[v] for v in e]
        if all(lists):
            _require(not _active_at_common_instant(lists), f"edge {[v + 1 for v in e]} fully active")
    return "placed"


def _neighbor_sets(inst):
    out = [set() for _ in range(inst.n)]
    for e in inst.edges:
        for v in e:
            out[v].update(e)
    for v in range(inst.n):
        out[v].discard(v)
    return out


def check_metrics(inst, opts, code, rep):
    _require(code == 0, f"metrics exit code {code}")
    n = inst.n
    rows = delta_weights(inst)
    nbrs = _neighbor_sets(inst)
    _require(len(rep["per_link"]) == n, "per_link has the wrong length")
    primes, doubles = [], []
    for i, entry in enumerate(rep["per_link"]):
        _require(entry["link"] == i + 1, "links out of order")
        for key, with_self, acc in (("prime", False, primes), ("doubleprime", True, doubles)):
            j = _links(entry["witness_" + key], n)
            _require(j <= nbrs[i], f"link {i + 1}: Delta{key} witness holds a non-neighbor")
            members = j | {i} if with_self else j
            _require(_independent(inst.edges, members), f"link {i + 1}: Delta{key} witness is dependent")
            weight = sum((rows[i][v] for v in j), ONE if with_self else Fraction(0))
            value = _frac(entry["delta_" + key])
            _require(weight == value, f"link {i + 1}: Delta{key} {value} != witness weight {weight}")
            acc.append(value)
    dp, dpp = max(primes), max(doubles)
    _require(_frac(rep["delta_prime"]) == dp, "Delta' is not the per-link maximum")
    _require(_frac(rep["delta_doubleprime"]) == dpp, "Delta'' is not the per-link maximum")
    _require(_frac(rep["sigma"]) == max(dp, dpp), "sigma != max(Delta', Delta'')")
    _require(_frac(rep["delta"]) == max(ONE, dp), "Delta != max(1, Delta')")
    return _frac(rep["sigma"])


def check_beta(inst, opts, code, rep):
    _require(code == 0, f"beta exit code {code}")
    beta, sigma = _frac(rep["beta"]), _frac(rep["sigma"])
    _require(beta == sigma, f"beta {beta} != sigma {sigma}")
    demand = [_frac(v) for v in rep["witness_demand"]]
    _require(len(demand) == inst.n and all(v in (0, 1) for v in demand), "witness demand is not 0/1")
    members = {v for v, x in enumerate(demand) if x == 1}
    _require(_independent(inst.edges, members), "witness demand is not an independent set")
    link = rep["witness_link"] - 1
    _require(0 <= link < inst.n, "bad witness link")
    rows = delta_weights(inst)
    value = sum((rows[link].get(v, 0) for v in members), ONE if link in members else Fraction(0))
    _require(value == beta, f"witness attains {value}, not beta {beta}")
    return beta


def star_profile(inst):
    """(center, sorted edge sizes) if every two edges meet exactly in one
    common link, else None."""
    sets = [set(e) for e in inst.edges]
    if len(sets) < 2:
        return None
    common = sets[0] & sets[1]
    if len(common) != 1:
        return None
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if sets[a] & sets[b] != common:
                return None
    return next(iter(common)), sorted(len(s) for s in sets)


def star_value(sizes):
    return max(Fraction(len(sizes)), ONE + sum((Fraction(k - 2, k - 1) for k in sizes), Fraction(0)))


def check_star(inst, opts, code, rep):
    profile = star_profile(inst)
    _require(profile is not None, "star call on a non-star instance")
    _require(code == 0 and rep["is_star"] is True, f"star exit code {code}")
    center, sizes = profile
    _require(rep["center"] == center + 1, "wrong star center")
    value = _frac(rep["beta"])
    _require(value == star_value(sizes), f"star value {value} != closed form {star_value(sizes)}")
    return value


def star_automorphism_count(inst):
    """Group order of a star with >= 2 petals and no isolated links: permute
    petals of equal size, and the non-center links inside each petal."""
    _, sizes = star_profile(inst)
    order = 1
    for k in set(sizes):
        count = sizes.count(k)
        order *= factorial(count) * factorial(k - 1) ** count
    return order


def check_symmetrize(inst, opts, code, rep):
    _require(code == 0, f"symmetrize exit code {code}")
    out = [_frac(v) for v in rep["demand"]]
    _require(len(out) == inst.n, "demand has the wrong length")
    _require(all(0 <= v <= 1 for v in out), "symmetrized demand outside [0, 1]")
    _require(sum(out) == sum(inst.demand), "symmetrize changed the total demand")
    order = rep["aut_order"]
    _require(isinstance(order, int) and order >= 1, "bad automorphism group order")
    if inst.props.get("star") and star_profile(inst) is not None:
        _require(order == star_automorphism_count(inst), f"star group order {order} is wrong")
    return order


CHECKS = {
    "chi-f": check_chi_f,
    "feasible": check_feasible,
    "check": check_condition,
    "schedule": check_schedule,
    "metrics": check_metrics,
    "beta": check_beta,
    "star": check_star,
    "symmetrize": check_symmetrize,
}


def verify(command, inst, opts, code, stdout):
    """Check one call's exit code and ``--json`` stdout.  Returns the checked
    value (used for cross-call agreement); raises Rejected."""
    try:
        rep = json.loads(stdout)
    except ValueError:
        raise Rejected("stdout is not JSON") from None
    _require(isinstance(rep, dict), "report is not a JSON object")
    try:
        return CHECKS[command](inst, opts, code, rep)
    except (KeyError, TypeError, IndexError) as e:
        raise Rejected(f"malformed report: {e!r}") from None
