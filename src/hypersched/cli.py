"""Command-line front end.

Each command returns its exit code and report; ``main`` prints the report to
stdout once the command has returned, and diagnostics go to stderr.  Exit
codes: 0 success/holds, 1 semantic negative (infeasible / condition fails /
not a star / stuck), 2 input error or failed internal check, 3 size limit, or
a result with more digits than the interpreter will print (4300 by default).
Stdout stays empty on exit 2 or 3.  Link labels are 1-based in files, reports
and error messages, 0-based only inside the library.
HS_SIZE_LIMIT overrides the default size limits of the enumeration and
automorphism operations.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import (
    EdgeRowSumTooSmall,
    HyperschedError,
    InvalidWeightMatrix,
    NotAntichain,
    ParseError,
    ScheduleStuck,
    SizeLimitExceeded,
    SolverInvariantError,
    format_set,
)
from .feasibility import DemandVector, fractional_chromatic_number, validate_schedule
from .formats import (
    format_demand_line,
    format_interval_set,
    parse_demand_text,
    parse_hypergraph_text,
    parse_weight_text,
    weight_row_line,
)
from .greedy import (
    check_delta_condition,
    check_edge_min_condition,
    check_weighted_condition,
    delta_matrix,
    greedy_schedule,
    validate_assignment,
    validate_weight_matrix,
)
from .hypergraph import (
    _members,
    automorphisms,
    enumerate_independent_sets,
    enumerate_maximal_independent_sets,
    is_independent,
    minimalize,
    validate_hypergraph,
)
from .metrics import (
    b_bound,
    beta_by_enumeration,
    beta_star_formula,
    interference_metrics,
    is_beta_star,
    symmetrize_demand,
)


def _size_limit():
    raw = os.environ.get("HS_SIZE_LIMIT")
    if raw is None:
        return None
    try:
        val = int(raw)
        if val < 1:
            raise ValueError
    except ValueError:
        raise HyperschedError(f"HS_SIZE_LIMIT must be a positive integer, got {raw!r}") from None
    return val


def _read(path):
    """The text of the file at ``path``; bytes that are not UTF-8 are a
    ParseError at the line of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ParseError(path, line, f"not UTF-8 (byte 0x{data[e.start]:02x})") from None


def _load_hypergraph(path, do_minimalize=False):
    h, edge_lines = parse_hypergraph_text(_read(path), path)
    if do_minimalize:
        h = minimalize(h.num_links, h.edges)
    try:
        validate_hypergraph(h)
    except NotAntichain as e:
        raise ParseError(path, edge_lines[e.edge], f"{e} (run `validate --minimalize` to reduce)") from None
    return h


def _load_demand(path, h):
    values, lineno = parse_demand_text(_read(path), path)
    if len(values) != h.num_links:
        raise ParseError(path, lineno, f"expected {h.num_links} demand values, got {len(values)}")
    return DemandVector(values)


@contextlib.contextmanager
def _weights(path, h):
    """The weight matrix of the file at ``path``, or None when ``path`` is
    None.  A weight-matrix fault raised while parsing the file or inside the
    ``with`` block becomes a ParseError naming the file and the line of the
    offending row."""
    if path is None:
        yield None
        return
    text = _read(path)
    try:
        yield parse_weight_text(text, path, h.num_links)
    except InvalidWeightMatrix as e:
        row = e.link if isinstance(e, EdgeRowSumTooSmall) else e.i
        raise ParseError(path, weight_row_line(text, row), str(e)) from None


def cmd_validate(args, h):
    if args.json:
        return 0, {
            "ok": True,
            "links": h.num_links,
            "edges": [[v + 1 for v in e] for e in h.edges],
            "minimalized": bool(args.minimalize),
        }
    suffix = " (minimalized)" if args.minimalize else ""
    lines = [f"OK: {h.num_links} links, {len(h.edges)} edges{suffix}"]
    if args.minimalize:
        lines += ["edge " + format_set(e) for e in h.edges]
    return 0, lines


def cmd_indep_sets(args, h):
    limit = _size_limit()
    if args.maximal:
        sets = enumerate_maximal_independent_sets(h, limit, masks=True)
    else:
        sets = enumerate_independent_sets(h, limit, masks=True)
    if args.json:
        return 0, {"sets": [[v + 1 for v in _members(s)] for s in sets]}
    return 0, [format_set(_members(s)) for s in sets]


def _chi_f(h, tau):
    """chi_f of ``tau`` and its witness, re-checked to be a schedule of
    independent sets that covers ``tau`` and lasts exactly chi_f."""
    value, witness = fractional_chromatic_number(h, tau, _size_limit())
    validate_schedule(h, witness, tau, max_total=value)
    if witness.total_duration != value:
        raise SolverInvariantError(
            f"chi_f = {value} but its witness lasts {witness.total_duration}; this is a library bug"
        )
    return value, witness


def cmd_chi_f(args, h, tau):
    value, witness = _chi_f(h, tau)
    if args.json:
        return 0, {
            "chi_f": str(value),
            "schedule": [
                {"set": [v + 1 for v in sorted(s)], "duration": str(d)}
                for s, d in witness.entries
            ],
        }
    return 0, [
        f"chi_f = {value}",
        "schedule:",
        *(f"{format_set(s)} : {d}" for s, d in witness.entries),
    ]


def cmd_feasible(args, h, tau):
    value, _ = _chi_f(h, tau)
    feasible = value <= 1
    code = 0 if feasible else 1
    if args.json:
        return code, {"feasible": feasible, "chi_f": str(value)}
    word = "FEASIBLE" if feasible else "INFEASIBLE"
    return code, [f"{word} (chi_f = {value})"]


def _parse_order(text, n):
    try:
        labels = [int(t) for t in text.split(",")]
    except ValueError:
        raise HyperschedError(f"bad --order {text!r}: expected comma-separated labels") from None
    if sorted(labels) != list(range(1, n + 1)):
        raise HyperschedError(f"--order must be a permutation of 1..{n}")
    return tuple(v - 1 for v in labels)


def cmd_schedule(args, h, tau):
    with _weights(args.w, h) as w:
        order = _parse_order(args.order, h.num_links) if args.order is not None else None
        if w is not None:
            validate_weight_matrix(h, w)
    try:
        assigned = greedy_schedule(h, tau, order)
    except ScheduleStuck as e:
        if args.json:
            return 1, {
                "stuck_at": e.link + 1,
                "demanded": str(e.demanded),
                "available": str(e.available),
            }
        return 1, [f"STUCK at link {e.link + 1}"]
    validate_assignment(h, assigned, tau)
    if args.json:
        return 0, {
            "intervals": [
                {
                    "link": i + 1,
                    "intervals": [[str(a), str(b)] for a, b in js.intervals],
                }
                for i, js in enumerate(assigned)
            ]
        }
    return 0, [f"link {i + 1}: {format_interval_set(js)}" for i, js in enumerate(assigned)]


def cmd_check(args, h, tau):
    if args.rule == "lemma1":
        report = check_edge_min_condition(h, tau)
    elif args.rule == "cor4" or args.w is None:
        # thm3 with the delta matrix, admissible by construction, is cor4
        report = check_delta_condition(h, tau)
    else:
        with _weights(args.w, h) as w:
            report = check_weighted_condition(h, w, tau)
    code = 0 if report.holds else 1
    if args.json:
        return code, {
            "rule": args.rule,
            "holds": report.holds,
            "per_link": [str(v) for v in report.per_link],
        }
    return code, [
        *(f"link {i + 1}: {v}" for i, v in enumerate(report.per_link)),
        "HOLDS" if report.holds else "FAILS",
    ]


def _checked_metrics(h, limit):
    """interference_metrics of ``h`` with every witness re-checked: each J
    lies in its link's neighborhood and holds no edge, nor does J + i for
    Delta'', and the Delta-weight of J, summed in delta_matrix's ints
    (plus 1 for Delta''), is the reported value."""
    rep = interference_metrics(h, limit)
    d = delta_matrix(h)
    for i, row in enumerate(d.ints):
        for name, m, extra in (
            ("Delta'", rep.per_link_prime[i], ()),
            ("Delta''", rep.per_link_doubleprime[i], (i,)),
        ):
            fault = None
            if not m.witness <= row.keys():
                fault = "lies outside the link's neighborhood"
            elif not is_independent(h, m.witness.union(extra)):
                fault = "holds an edge" + (" with the link" if extra else "")
            else:
                weight = Fraction(d.den * len(extra) + sum(row[j] for j in m.witness), d.den)
                if weight != m.value:
                    fault = f"gives {weight}"
            if fault:
                raise SolverInvariantError(
                    f"{name} of link {i + 1} is {m.value} but its J = {format_set(m.witness)}"
                    f" {fault}; this is a library bug"
                )
    return rep


def cmd_metrics(args, h):
    rep = _checked_metrics(h, _size_limit())
    if args.json:
        return 0, {
            "per_link": [
                {
                    "link": i + 1,
                    "delta_prime": str(p.value),
                    "witness_prime": [v + 1 for v in sorted(p.witness)],
                    "delta_doubleprime": str(q.value),
                    "witness_doubleprime": [v + 1 for v in sorted(q.witness)],
                }
                for i, (p, q) in enumerate(
                    zip(rep.per_link_prime, rep.per_link_doubleprime)
                )
            ],
            "delta_prime": str(rep.delta_prime),
            "delta_doubleprime": str(rep.delta_doubleprime),
            "sigma": str(rep.sigma),
            "delta": str(rep.delta),
        }
    return 0, [
        *(
            f"link {i + 1}: Delta' = {p.value} (J = {format_set(p.witness)}),"
            f" Delta'' = {q.value} (J = {format_set(q.witness)})"
            for i, (p, q) in enumerate(zip(rep.per_link_prime, rep.per_link_doubleprime))
        ),
        f"Delta' = {rep.delta_prime}",
        f"Delta'' = {rep.delta_doubleprime}",
        f"sigma = {rep.sigma}",
        f"Delta = {rep.delta}",
    ]


def _checked_beta(h, limit):
    """beta_by_enumeration of ``h``, which checks beta = sigma, with its
    witness re-checked: the demand is the 0/1 vector of an independent set,
    and the per-link bound at the witness link equals beta."""
    wit = beta_by_enumeration(h, limit)
    members = [v for v, x in enumerate(wit.demand) if x]
    if any(x not in (0, 1) for x in wit.demand) or not is_independent(h, members):
        raise SolverInvariantError(
            f"beta's witness {format_demand_line(wit.demand)} is not the 0/1 vector"
            " of an independent set; this is a library bug"
        )
    bound = b_bound(h, wit.demand).per_link[wit.link]
    if bound != wit.beta:
        raise SolverInvariantError(
            f"beta = {wit.beta} but its witness bounds link {wit.link + 1} at {bound};"
            " this is a library bug"
        )
    return wit


def cmd_beta(args, h):
    wit = _checked_beta(h, _size_limit())
    if args.json:
        return 0, {
            "beta": str(wit.beta),
            "sigma": str(wit.beta),
            "witness_link": wit.link + 1,
            "witness_demand": [str(v) for v in wit.demand],
        }
    return 0, [
        f"beta = {wit.beta}",
        f"sigma = {wit.beta}",
        f"witness link: {wit.link + 1}",
        format_demand_line(wit.demand),
    ]


def cmd_star(args, h):
    profile = is_beta_star(h)
    if profile is None:
        return 1, {"is_star": False} if args.json else ["not a beta-star"]
    value = beta_star_formula(profile)
    if args.json:
        return 0, {
            "is_star": True,
            "center": profile.center + 1,
            "size_counts": {str(k): c for k, c in profile.size_counts},
            "beta": str(value),
            "vacuous_center": profile.vacuous_center,
        }
    lines = [f"beta-star: center {profile.center + 1}"]
    lines += [f"n_{k} = {c}" for k, c in profile.size_counts]
    lines.append(f"beta = {value}")
    if profile.vacuous_center:
        lines.append("note: single edge, any of its links is a valid center")
    return 0, lines


def cmd_symmetrize(args, h, tau):
    order, orbits = automorphisms(h, _size_limit())
    avg = symmetrize_demand(h, tau, orbits)
    if args.json:
        return 0, {"aut_order": order, "demand": [str(v) for v in avg]}
    return 0, [f"aut_order = {order}", format_demand_line(avg)]


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypersched",
        description="Exact-arithmetic scheduling analysis on conflict hypergraphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, demand=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", help="hypergraph file")
        if demand:
            sp.add_argument("--demand", required=True, metavar="DFILE", help="demand file")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(func=func)
        return sp

    sp = add("validate", cmd_validate, "check hypergraph invariants")
    sp.add_argument("--minimalize", action="store_true", help="reduce to minimal edges first")
    sp = add("indep-sets", cmd_indep_sets, "enumerate independent sets")
    sp.add_argument("--maximal", action="store_true", help="only inclusion-maximal sets")
    add("chi-f", cmd_chi_f, "fractional chromatic number and witness schedule", demand=True)
    add("feasible", cmd_feasible, "test feasibility of a demand vector", demand=True)
    sp = add("schedule", cmd_schedule, "greedy interval assignment", demand=True)
    sp.add_argument("--order", metavar="p1,p2,...", help="1-based processing order")
    sp.add_argument(
        "--w", metavar="WFILE", help="weight matrix file, checked for admissibility only"
    )
    sp = add("check", cmd_check, "evaluate a sufficient feasibility condition", demand=True)
    sp.add_argument("--rule", required=True, choices=["lemma1", "cor4", "thm3"])
    sp.add_argument("--w", metavar="WFILE", help="weight matrix for --rule thm3")
    add("metrics", cmd_metrics, "per-link and aggregate interference metrics")
    add("beta", cmd_beta, "worst-case performance ratio by enumeration")
    add("star", cmd_star, "beta-star detection and closed-form value")
    add("symmetrize", cmd_symmetrize, "average a demand over the automorphism group", demand=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        h = _load_hypergraph(args.file, getattr(args, "minimalize", False))
        if getattr(args, "demand", None) is None:
            code, report = args.func(args, h)
        else:
            code, report = args.func(args, h, _load_demand(args.demand, h))
        # The report is a JSON object under --json, else a list of lines.  It
        # is written inside the try, so a closed pipe is an exit-2 error line.
        lines = [json.dumps(report, indent=2)] if args.json else report
        print(*lines, sep="\n")
        return code
    except (HyperschedError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, SizeLimitExceeded) else 2
    except ValueError as e:
        # Only the interpreter's refusal to write out an int of more digits
        # than its limit; any other ValueError is a bug and keeps its traceback.
        if "for integer string conversion; use sys.set_int_max_str_digits()" not in str(e):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has more than {limit} digits, too many to print", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
