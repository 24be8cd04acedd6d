"""Text formats: hypergraph / demand / weight-matrix files; demand and interval lines.

Files use 1-based link labels; `#` starts a comment anywhere on a line.
All rationals are written `p/q` in lowest terms (integers without `/1`),
which is exactly what ``fractions.Fraction`` parses back.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EdgeTooSmall, ParseError
from .greedy import WeightMatrix
from .hypergraph import Hypergraph
from .intervals import IntervalSet
from .lp import _over_lcm

_MAX_DIGITS = 4300  # int() reads and prints no integer with more digits
_TOO_LONG = 10**_MAX_DIGITS


def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_fraction(token, path, lineno):
    try:
        exponent = token.lower().partition("e")[2]
        if exponent and abs(int(exponent)) > _MAX_DIGITS:  # before Fraction expands it
            raise ValueError(token)
        v = Fraction(token)
        if max(abs(v.numerator), v.denominator) >= _TOO_LONG:
            raise ValueError(token)
        return v
    except (ValueError, ZeroDivisionError):
        raise ParseError(path, lineno, f"bad rational {token!r}") from None


def parse_hypergraph_text(text, path="<input>"):
    """Parse `links N` + `edge a b ...` lines (1-based labels).

    Returns (hypergraph, edge_lines) where edge_lines maps each 0-based edge
    tuple to the line it came from, for later diagnostics.  A singleton edge
    is a ParseError at its first line, raised after the last line is read.
    """
    num_links = None
    edges = []
    edge_lines = {}
    for lineno, line in _significant_lines(text):
        tokens = line.split()
        if tokens[0] == "links":
            if num_links is not None:
                raise ParseError(path, lineno, "duplicate links line")
            count = tokens[1] if len(tokens) == 2 else ""
            if not count.isdecimal() or len(count) > _MAX_DIGITS or int(count) < 1:
                raise ParseError(path, lineno, "expected `links N` with N >= 1")
            num_links = int(count)
        elif tokens[0] == "edge":
            if num_links is None:
                raise ParseError(path, lineno, "edge before links line")
            labels = []
            for tok in tokens[1:]:
                if not tok.isdecimal() or len(tok) > _MAX_DIGITS:
                    raise ParseError(path, lineno, f"bad link label {tok!r}")
                lab = int(tok)
                if not 1 <= lab <= num_links:
                    raise ParseError(path, lineno, f"label {lab} outside 1..{num_links}")
                labels.append(lab - 1)
            if not labels:
                raise ParseError(path, lineno, "edge line with no links")
            edge = tuple(sorted(set(labels)))
            edges.append(edge)
            edge_lines.setdefault(edge, lineno)
        else:
            raise ParseError(path, lineno, f"unknown directive {tokens[0]!r}")
    if num_links is None:
        raise ParseError(path, 1, "missing links line")
    try:
        return Hypergraph(num_links, tuple(edges)), edge_lines
    except EdgeTooSmall as e:
        raise ParseError(path, edge_lines[e.edge], str(e)) from None


def parse_demand_text(text, path="<input>"):
    """Parse the single `demand v1 ... vN` line; returns (values, lineno).
    Each distinct token is parsed and range-checked once."""
    found = None
    for lineno, line in _significant_lines(text):
        tokens = line.split()
        if tokens[0] != "demand":
            raise ParseError(path, lineno, f"unknown directive {tokens[0]!r}")
        if found is not None:
            raise ParseError(path, lineno, "duplicate demand line")
        parsed = {}
        for t in tokens[1:]:
            if t not in parsed:
                parsed[t] = _parse_fraction(t, path, lineno)
        # In first-occurrence order, so the first bad value in the line is
        # the one reported.
        for v in parsed.values():
            if not 0 <= v <= 1:
                raise ParseError(path, lineno, f"demand {v} outside [0, 1]")
        found = (tuple(parsed[t] for t in tokens[1:]), lineno)
    if found is None:
        raise ParseError(path, 1, "missing demand line")
    return found


def parse_weight_text(text, path="<input>", n=None):
    """Parse a weight matrix: one row of rationals per line.  Only nonzero
    entries are kept (a `0` token is skipped without being parsed)."""
    rows = []
    widths = set()
    # Weight files repeat a few values many times: each distinct token is
    # parsed once, in first-occurrence order, and gets its int over the lcm
    # of all of them once, after the last line.
    parsed = {}
    for lineno, line in _significant_lines(text):
        tokens = line.split()
        widths.add(len(tokens))
        row = {j: t for j, t in enumerate(tokens) if t != "0"}
        for t in dict.fromkeys(row.values()):
            if t not in parsed:
                parsed[t] = _parse_fraction(t, path, lineno)
        rows.append(row)
    if not rows:
        raise ParseError(path, 1, "empty weight matrix")
    width = widths.pop() if len(widths) == 1 else None
    if width != len(rows):
        raise ParseError(path, 1, f"weight matrix must be square, got {len(rows)} rows")
    if n is not None and width != n:
        raise ParseError(path, 1, f"weight matrix is {width}x{width}, hypergraph has {n} links")
    den, ints = _over_lcm(parsed.values())
    int_of = dict(zip(parsed, ints)).__getitem__
    return WeightMatrix(den, [dict(zip(row, map(int_of, row.values()))) for row in rows])


def weight_row_line(text, row):
    """Line number of the 0-based ``row`` of a weight file (1 if missing)."""
    for k, (lineno, _) in enumerate(_significant_lines(text)):
        if k == row:
            return lineno
    return 1


def format_demand_line(values) -> str:
    return "demand " + " ".join(str(Fraction(v)) for v in values)


def format_interval_set(js: IntervalSet) -> str:
    if not js.intervals:
        return "∅"
    return " ∪ ".join(f"[{a},{b})" for a, b in js.intervals)

