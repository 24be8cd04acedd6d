"""Command-line front end.

Reports go to stdout, diagnostics to stderr.  Exit codes: 0 success/holds,
1 semantic negative (infeasible / condition fails / not a star / stuck),
2 input error or failed internal check, 3 size limit.  Link labels are
1-based in files and reports, 0-based only inside the library.
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

from . import __version__
from .errors import (
    EdgeRowSumTooSmall,
    EdgeTooSmall,
    EntryOutOfRange,
    HyperschedError,
    InvalidWeightMatrix,
    NonzeroDiagonal,
    NotAntichain,
    NotSymmetric,
    ParseError,
    ScheduleStuck,
    SizeLimitExceeded,
    SolverInvariantError,
)
from .feasibility import DemandVector, fractional_chromatic_number
from .formats import (
    format_demand_line,
    format_interval_set,
    format_set,
    parse_demand_text,
    parse_hypergraph_text,
    parse_weight_text,
    weight_row_line,
)
from .greedy import (
    check_delta_condition,
    check_edge_min_condition,
    check_weighted_condition,
    # Unused here; kept because perfbench/tracing.py wraps this name.
    delta_matrix,  # noqa: F401
    greedy_schedule,
    validate_weight_matrix,
)
from .hypergraph import (
    automorphisms,
    enumerate_independent_sets,
    enumerate_maximal_independent_sets,
    minimalize,
    validate_hypergraph,
)
from .metrics import (
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
    try:
        if do_minimalize:
            h = minimalize(h.num_links, h.edges)
        validate_hypergraph(h)
    except EdgeTooSmall as e:
        line = edge_lines.get(tuple(e.edge), 1)
        raise ParseError(path, line, f"edge {format_set(e.edge)} has fewer than 2 links") from None
    except NotAntichain as e:
        line = edge_lines.get(tuple(e.edge), 1)
        raise ParseError(
            path,
            line,
            f"edge {format_set(e.edge)} is contained in edge {format_set(e.superset)}"
            " (run `validate --minimalize` to reduce)",
        ) from None
    return h


def _load_demand(path, h):
    values, lineno = parse_demand_text(_read(path), path)
    if len(values) != h.num_links:
        raise ParseError(path, lineno, f"expected {h.num_links} demand values, got {len(values)}")
    return DemandVector(values)


def _weight_fault(e):
    """(0-based row, message with 1-based labels) of a weight-matrix fault."""
    if isinstance(e, EdgeRowSumTooSmall):
        return e.link, (
            f"sum of W[{e.link + 1}][j] over edge {format_set(e.edge)} is {e.total}, must be >= 1"
        )
    if isinstance(e, NonzeroDiagonal):
        return e.i, f"W[{e.i + 1}][{e.i + 1}] = {e.value}, diagonal must be zero"
    i, j = e.i + 1, e.j + 1
    if isinstance(e, NotSymmetric):
        return e.i, f"W[{i}][{j}] != W[{j}][{i}]"
    if isinstance(e, EntryOutOfRange):
        return e.i, f"W[{i}][{j}] = {e.value} is outside [0, 1]"
    return e.i, f"W[{i}][{j}] = {e.value} but links {i} and {j} share no edge"


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
        row, message = _weight_fault(e)
        raise ParseError(path, weight_row_line(text, row), message) from None


def _emit_json(obj):
    print(json.dumps(obj, indent=2))


def cmd_validate(args):
    h = _load_hypergraph(args.file, do_minimalize=args.minimalize)
    if args.json:
        _emit_json(
            {
                "ok": True,
                "links": h.num_links,
                "edges": [[v + 1 for v in e] for e in h.edges],
                "minimalized": bool(args.minimalize),
            }
        )
        return 0
    suffix = " (minimalized)" if args.minimalize else ""
    print(f"OK: {h.num_links} links, {len(h.edges)} edges{suffix}")
    if args.minimalize:
        for e in h.edges:
            print("edge " + format_set(e))
    return 0


def cmd_indep_sets(args):
    h = _load_hypergraph(args.file)
    limit = _size_limit()
    if args.maximal:
        sets = enumerate_maximal_independent_sets(h, limit)
    else:
        sets = enumerate_independent_sets(h, limit)
    if args.json:
        _emit_json({"sets": [[v + 1 for v in sorted(s)] for s in sets]})
        return 0
    for s in sets:
        print(format_set(s))
    return 0


def cmd_chi_f(args):
    h = _load_hypergraph(args.file)
    tau = _load_demand(args.demand, h)
    value, witness = fractional_chromatic_number(h, tau, _size_limit())
    if args.json:
        _emit_json(
            {
                "chi_f": str(value),
                "schedule": [
                    {"set": [v + 1 for v in sorted(s)], "duration": str(d)}
                    for s, d in witness.entries
                ],
            }
        )
        return 0
    print(f"chi_f = {value}")
    print("schedule:")
    for s, d in witness.entries:
        print(f"{format_set(s)} : {d}")
    return 0


def cmd_feasible(args):
    h = _load_hypergraph(args.file)
    tau = _load_demand(args.demand, h)
    value, _ = fractional_chromatic_number(h, tau, _size_limit())
    feasible = value <= 1
    if args.json:
        _emit_json({"feasible": feasible, "chi_f": str(value)})
    else:
        word = "FEASIBLE" if feasible else "INFEASIBLE"
        print(f"{word} (chi_f = {value})")
    return 0 if feasible else 1


def _parse_order(text, n):
    try:
        labels = [int(t) for t in text.split(",")]
    except ValueError:
        raise HyperschedError(f"bad --order {text!r}: expected comma-separated labels") from None
    if sorted(labels) != list(range(1, n + 1)):
        raise HyperschedError(f"--order must be a permutation of 1..{n}")
    return tuple(v - 1 for v in labels)


def cmd_schedule(args):
    h = _load_hypergraph(args.file)
    tau = _load_demand(args.demand, h)
    with _weights(args.w, h) as w:
        order = _parse_order(args.order, h.num_links) if args.order else None
        if w is not None:
            validate_weight_matrix(h, w)
    try:
        assigned = greedy_schedule(h, tau, order)
    except ScheduleStuck as e:
        if args.json:
            _emit_json(
                {
                    "stuck_at": e.link + 1,
                    "demanded": str(e.demanded),
                    "available": str(e.available),
                }
            )
        else:
            print(f"STUCK at link {e.link + 1}")
        return 1
    if args.json:
        _emit_json(
            {
                "intervals": [
                    {
                        "link": i + 1,
                        "intervals": [[str(a), str(b)] for a, b in js.intervals],
                    }
                    for i, js in enumerate(assigned)
                ]
            }
        )
        return 0
    for i, js in enumerate(assigned):
        print(f"link {i + 1}: {format_interval_set(js)}")
    return 0


def cmd_check(args):
    h = _load_hypergraph(args.file)
    tau = _load_demand(args.demand, h)
    if args.rule == "lemma1":
        report = check_edge_min_condition(h, tau)
    elif args.rule == "cor4" or args.w is None:
        # thm3 with the delta matrix, admissible by construction, is cor4
        report = check_delta_condition(h, tau)
    else:
        with _weights(args.w, h) as w:
            report = check_weighted_condition(h, w, tau)
    if args.json:
        _emit_json(
            {
                "rule": args.rule,
                "holds": report.holds,
                "per_link": [str(v) for v in report.per_link],
            }
        )
    else:
        for i, v in enumerate(report.per_link):
            print(f"link {i + 1}: {v}")
        print("HOLDS" if report.holds else "FAILS")
    return 0 if report.holds else 1


def cmd_metrics(args):
    h = _load_hypergraph(args.file)
    rep = interference_metrics(h, _size_limit())
    if args.json:
        _emit_json(
            {
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
        )
        return 0
    for i, (p, q) in enumerate(zip(rep.per_link_prime, rep.per_link_doubleprime)):
        print(
            f"link {i + 1}: Delta' = {p.value} (J = {format_set(p.witness)}),"
            f" Delta'' = {q.value} (J = {format_set(q.witness)})"
        )
    print(f"Delta' = {rep.delta_prime}")
    print(f"Delta'' = {rep.delta_doubleprime}")
    print(f"sigma = {rep.sigma}")
    print(f"Delta = {rep.delta}")
    return 0


def cmd_beta(args):
    h = _load_hypergraph(args.file)
    limit = _size_limit()
    wit = beta_by_enumeration(h, limit)
    rep = interference_metrics(h, limit)
    if wit.beta != rep.sigma:
        raise SolverInvariantError(
            f"beta = {wit.beta} differs from sigma = {rep.sigma}; this is a library bug"
        )
    if args.json:
        _emit_json(
            {
                "beta": str(wit.beta),
                "sigma": str(rep.sigma),
                "witness_link": wit.link + 1,
                "witness_demand": [str(v) for v in wit.demand],
            }
        )
    else:
        print(f"beta = {wit.beta}")
        print(f"sigma = {rep.sigma}")
        print(f"witness link: {wit.link + 1}")
        print(format_demand_line(wit.demand))
    return 0


def cmd_star(args):
    h = _load_hypergraph(args.file)
    profile = is_beta_star(h)
    if profile is None:
        if args.json:
            _emit_json({"is_star": False})
        else:
            print("not a beta-star")
        return 1
    value = beta_star_formula(profile)
    if args.json:
        _emit_json(
            {
                "is_star": True,
                "center": profile.center + 1,
                "size_counts": {str(k): c for k, c in profile.size_counts},
                "beta": str(value),
                "vacuous_center": profile.vacuous_center,
            }
        )
        return 0
    print(f"beta-star: center {profile.center + 1}")
    for k, c in profile.size_counts:
        print(f"n_{k} = {c}")
    print(f"beta = {value}")
    if profile.vacuous_center:
        print("note: single edge, any of its links is a valid center")
    return 0


def cmd_symmetrize(args):
    h = _load_hypergraph(args.file)
    tau = _load_demand(args.demand, h)
    auts = automorphisms(h, _size_limit())
    avg = symmetrize_demand(h, tau, auts)
    if args.json:
        _emit_json({"aut_order": len(auts), "demand": [str(v) for v in avg]})
    else:
        print(f"aut_order = {len(auts)}")
        print(format_demand_line(avg))
    return 0


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
        return args.func(args)
    except SizeLimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (HyperschedError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
