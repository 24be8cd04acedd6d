"""The exit-code contract under seeded, property-based fuzzing.

Most draws are a valid input (an antichain on at most 6 links, with demand,
weight and ``--order`` text written correctly) with one field mutated from a
token grammar of known edge cases.  Every subcommand runs on it, with and
without ``--json``, and the contract must hold:

- no exception escapes ``main``, and the exit code is in 0-3;
- on exit 2 or 3, stdout is empty and stderr is one ``error:`` line;
- on exit 0 or 1, stderr is empty, and with ``--json`` stdout parses;
- ``schedule`` exits 0 or 1 only when ``--order`` is a permutation of 1..N.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypersched.cli import main
from hypersched.formats import parse_hypergraph_text

VALID_VALUES = ["0", "1", "1/2", "1/3", "2/7", "0.25", "5e-3", "3/10"]
# Out-of-range, malformed, non-ASCII and over-long replacements for a token.
BAD_TOKENS = [
    "", "0", "-1", "-1/2", "3/2", "1/0", "0/0", "x", "7", "99", "1,2",
    "١", "٣/٤", "²", "1" * 4301, "1/" + "9" * 4301,
]
EXPONENTS = ["1e-5000", "1e-4300", "1E-4301", "1e-4299", "5e-3"]
# 1501-digit denominators: each fits int()'s 4300-digit bound, but the
# sums and averages of three or more do not.
HUGE = [f"1/{10**1500 + k}" for k in (1, 3, 7)]
ENV_LIMITS = [None, None, None, "3", "0", "x"]


def _antichain(raw):
    edges = {frozenset(e) for e in raw if len(e) >= 2}
    return sorted(sorted(e) for e in edges if not any(f < e for f in edges))


@st.composite
def cases(draw):
    """(fields, env): the token rows of each input file, and the
    HS_SIZE_LIMIT value (None for unset)."""
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.sets(st.integers(1, n), min_size=min(n, 2), max_size=n), max_size=6))
    edges = _antichain(raw)
    share = {(i, j) for e in edges for i in e for j in e if i != j}
    fields = {
        "hypergraph": [["links", str(n)]] + [["edge", *map(str, e)] for e in edges],
        "demand": [
            ["demand"] + draw(st.lists(st.sampled_from(VALID_VALUES), min_size=n, max_size=n))
        ],
        "weights": [
            ["1" if (i, j) in share else "0" for j in range(1, n + 1)] for i in range(1, n + 1)
        ],
        "order": [[str(v) for v in draw(st.permutations(range(1, n + 1)))]],
    }
    kinds = ["none", "token", "exponent", "huge", "long", "drop", "repeat", "clear", "row"]
    kind = draw(st.sampled_from(kinds))
    name = draw(st.sampled_from(sorted(fields)))
    rows = fields[name]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    pos = draw(st.integers(0, len(row) - 1)) if row else 0
    if kind == "token" and row:
        row[pos] = draw(st.sampled_from(BAD_TOKENS))
    elif kind == "exponent":
        row = fields[draw(st.sampled_from(["demand", "weights"]))][0]
        row[draw(st.integers(len(row) - n, len(row) - 1))] = draw(st.sampled_from(EXPONENTS))
    elif kind == "huge":
        values = fields["demand"][0]
        for v, value in zip(draw(st.permutations(range(1, n + 1))), HUGE):
            values[v] = value
    elif kind == "long":  # a link count or label with more digits than int() reads
        rows = fields["hypergraph"]
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(1, len(row) - 1))] = "0" * 4300 + "1"
    elif kind == "drop" and row:
        del row[pos]
    elif kind == "repeat" and row:
        row.insert(pos, row[pos])
    elif kind == "clear":
        row.clear()
    elif kind == "row":
        rows.insert(draw(st.integers(0, len(rows))), list(row))
    return fields, draw(st.sampled_from(ENV_LIMITS))


def _argvs(hg, demand, weights, order):
    d = ["--demand", demand]
    calls = [
        ["validate", hg],
        ["validate", hg, "--minimalize"],
        ["indep-sets", hg],
        ["indep-sets", hg, "--maximal"],
        ["chi-f", hg, *d],
        ["feasible", hg, *d],
        ["schedule", hg, *d],
        ["schedule", hg, *d, f"--order={order}"],
        ["schedule", hg, *d, "--w", weights],
        ["check", hg, *d, "--rule", "lemma1"],
        ["check", hg, *d, "--rule", "cor4"],
        ["check", hg, *d, "--rule", "thm3"],
        ["check", hg, *d, "--rule", "thm3", "--w", weights],
        ["metrics", hg],
        ["beta", hg],
        ["star", hg],
        ["symmetrize", hg, *d],
    ]
    return [argv + extra for argv in calls for extra in ([], ["--json"])]


def _is_permutation(text, n):
    try:
        return sorted(int(t) for t in text.split(",")) == list(range(1, n + 1))
    except ValueError:
        return False


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cases())
def test_exit_code_contract(case):
    fields, env = case
    joins = {"hypergraph": " ", "demand": " ", "weights": " ", "order": ","}
    texts = {k: "\n".join(joins[k].join(row) for row in rows) + "\n" for k, rows in fields.items()}
    order = texts.pop("order").rstrip("\n")
    saved = os.environ.pop("HS_SIZE_LIMIT", None)
    if env is not None:
        os.environ["HS_SIZE_LIMIT"] = env
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for k, text in texts.items():
                paths[k] = str(Path(tmp) / k)
                Path(paths[k]).write_text(text, encoding="utf-8")
            for argv in _argvs(paths["hypergraph"], paths["demand"], paths["weights"], order):
                code, out, err = _run(argv)
                assert code in (0, 1, 2, 3), argv
                if code >= 2:
                    assert out == "", argv
                    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                    assert err.endswith("\n"), (argv, err)
                    continue
                assert err == "", (argv, err)
                if "--json" in argv:
                    json.loads(out)
                if any(a.startswith("--order=") for a in argv):
                    h, _ = parse_hypergraph_text(texts["hypergraph"])
                    assert _is_permutation(order, h.num_links), (argv, order)
    finally:
        os.environ.pop("HS_SIZE_LIMIT", None)
        if saved is not None:
            os.environ["HS_SIZE_LIMIT"] = saved
