"""Sparse weight matrices against dense N x N references written here.

The references follow the definitions literally: full row scans for the
weighted sums, every edge scanned for the blocked time, and the row-major
admissibility scan (diagonal, range and symmetry, then support, then edge
row sums) whose first fault is the one reported.  A matrix keeps its
weights as ints over one denominator, however it was built (sparse
Fraction rows, dense rows, weight-file text or ``delta_matrix``); the same
references hold on mixed denominators, and the sums build no Fraction per
term.
"""

import contextlib
import io
import math
import random
from fractions import Fraction

import pytest

from hypersched import (
    EdgeRowSumTooSmall,
    EntryOutOfRange,
    Hypergraph,
    NonNeighborNonzero,
    NonzeroDiagonal,
    NotSymmetric,
    ScheduleStuck,
    WeightMatrix,
    b_bound,
    check_delta_condition,
    check_weighted_condition,
    delta_matrix,
    greedy_schedule,
    greedy_step_bound,
    validate_weight_matrix,
)
from hypersched.cli import main
from hypersched.formats import parse_weight_text
from hypersched.intervals import intersect_all, union_all
from conftest import random_demand, random_hypergraph, wall_instance

F = Fraction


def dense_neighbors(h, i):
    return {j for es in h.edge_sets if i in es for j in es} - {i}


def dense_delta(h):
    n = h.num_links
    rows = [[F(0)] * n for _ in range(n)]
    for es in h.edge_sets:
        for i in es:
            for j in es:
                if i != j:
                    rows[i][j] = max(rows[i][j], F(1, len(es) - 1))
    return rows


def dense_sums(rows, tau):
    n = len(rows)
    return tuple(tau[i] + sum(rows[i][j] * tau[j] for j in range(n) if j != i) for i in range(n))


def dense_validate(h, rows):
    n = h.num_links
    for i in range(n):
        if rows[i][i] != 0:
            raise NonzeroDiagonal(i, rows[i][i])
        for j in range(n):
            v = rows[i][j]
            if not 0 <= v <= 1:
                raise EntryOutOfRange(i, j, v)
            if v != rows[j][i]:
                raise NotSymmetric(i, j)
    for i in range(n):
        nbr = dense_neighbors(h, i)
        for j in range(n):
            if i != j and rows[i][j] != 0 and j not in nbr:
                raise NonNeighborNonzero(i, j, rows[i][j])
    for edge in h.edges:
        for i in edge:
            total = sum((rows[i][j] for j in edge), F(0))
            if total < 1:
                raise EdgeRowSumTooSmall(edge, i, total)


def dense_blocked(h, assigned, link):
    pieces = [
        intersect_all([assigned[j] for j in es if j != link])
        for es in h.edge_sets
        if link in es and all(assigned[j] is not None for j in es if j != link)
    ]
    return union_all(pieces)


def random_admissible(rng, h):
    """Dense rows at or above the delta matrix on neighbor pairs (so every
    edge row sum stays >= 1), symmetric, zero elsewhere."""
    rows = dense_delta(h)
    for i in range(h.num_links):
        for j in range(i + 1, h.num_links):
            if rows[i][j] and rng.random() < 0.5:
                rows[i][j] = rows[j][i] = max(rows[i][j], rng.choice([F(2, 3), F(3, 4), F(1)]))
    return rows


def instances(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        h = random_hypergraph(rng, max_links=9, max_edges=6)
        if h.edges:
            out.append((rng, h))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_entries_and_sums_match_dense(seed):
    for rng, h in instances(seed, 25):
        dense = random_admissible(rng, h)
        w = WeightMatrix.from_rows(dense)
        n = h.num_links
        assert all(w[i, j] == dense[i][j] for i in range(n) for j in range(n))
        validate_weight_matrix(h, w)
        tau = random_demand(rng, n, small=rng.random() < 0.5)
        assert check_weighted_condition(h, w, tau).per_link == dense_sums(dense, tau)
        delta_sums = dense_sums(dense_delta(h), tau)
        assert check_delta_condition(h, tau).per_link == delta_sums
        assert b_bound(h, tau).per_link == delta_sums
        d = delta_matrix(h)
        assert all(d[i, j] == dense_delta(h)[i][j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("seed", range(4))
def test_step_bound_matches_dense(seed):
    for rng, h in instances(100 + seed, 20):
        dense = random_admissible(rng, h)
        w = WeightMatrix.from_rows(dense)
        tau = random_demand(rng, h.num_links)
        order = tuple(rng.sample(range(h.num_links), h.num_links))
        steps = []
        try:
            greedy_schedule(h, tau, order, step_callback=lambda k, a: steps.append((k, a)))
        except ScheduleStuck:
            pass
        assert steps
        for link, assigned in steps:
            lhs, rhs = greedy_step_bound(h, w, assigned, link)
            assert lhs == dense_blocked(h, assigned, link).measure
            assert rhs == sum(
                (dense[link][j] * assigned[j].measure for j in range(h.num_links)
                 if j != link and assigned[j] is not None),
                F(0),
            )


def inject(rng, h, rows, fault):
    """Put one fault of the named kind into admissible dense ``rows``;
    returns False when ``h`` has no place for it."""
    n = h.num_links
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
    if fault in ("range", "asymmetric") and not pairs:  # earlier faults zeroed them all
        return False
    if fault == "diagonal":
        i = rng.randrange(n)
        rows[i][i] = F(1, 2)
    elif fault == "range":
        i, j = rng.choice(pairs)
        rows[i][j] = rows[j][i] = rng.choice([F(3, 2), F(-1, 2)])
    elif fault == "asymmetric":
        i, j = rng.choice(pairs)
        if rng.random() < 0.5:
            i, j = j, i
        rows[i][j] = rng.choice([v for v in (F(0), F(1, 2), F(1)) if v != rows[i][j]])
    elif fault == "support":
        off = [(i, j) for i in range(n) for j in range(i + 1, n)
               if j not in dense_neighbors(h, i)]
        if not off:
            return False
        i, j = rng.choice(off)
        rows[i][j] = rows[j][i] = F(1, 2)
    else:
        edge = rng.choice(h.edges)
        i = rng.choice(edge)
        for j in edge:
            if j != i:
                rows[i][j] = rows[j][i] = F(0)
    return True


FAULTS = ["diagonal", "range", "asymmetric", "support", "row_sum"]


@pytest.mark.parametrize("fault", FAULTS)
def test_single_fault_reported_as_dense_scan(fault):
    checked = 0
    for rng, h in instances(200 + FAULTS.index(fault), 40):
        rows = random_admissible(rng, h)
        if not inject(rng, h, rows, fault):
            continue
        with pytest.raises(Exception) as expected:
            dense_validate(h, rows)
        with pytest.raises(type(expected.value)) as got:
            validate_weight_matrix(h, WeightMatrix.from_rows(rows))
        assert vars(got.value) == vars(expected.value)
        checked += 1
    assert checked >= 20


def test_zero_entries_dropped():
    w = WeightMatrix.from_rows([[0, F(1, 2), 0], [F(1, 2), 0, 0], [0, 0, 0]])
    assert w.rows == ({1: F(1, 2)}, {0: F(1, 2)}, {})
    assert w[2, 0] == 0 and w[0, 1] == F(1, 2)


@pytest.mark.parametrize("ij, bad", [((-1, 0), -1), ((0, 5), 5), ((0, -1), -1), ((2, 0), 2)])
def test_entry_outside_the_links_refused(ij, bad):
    # w[-1, 0] used to read W[1][0], w[0, 5] and w[0, -1] gave 0, and
    # w[2, 0] raised a bare IndexError.
    w = WeightMatrix.from_rows([{1: F(1)}, {0: F(1)}])
    with pytest.raises(ValueError, match=rf"^link {bad} outside 0\.\.1$"):
        w[ij]
    assert (w[0, 1], w[True, False], w[1, 1]) == (1, 1, 0)


def test_sparse_construction_checks_symmetry():
    with pytest.raises(NotSymmetric) as err:
        WeightMatrix.from_rows(({}, {}, {0: F(1)}))
    assert (err.value.i, err.value.j) == (0, 2)
    with pytest.raises(NonzeroDiagonal):
        WeightMatrix.from_rows(({0: F(1)}, {}))


@pytest.mark.parametrize(
    "n, den, ints, message",
    [
        # Accepted with a column -1 when only a row's first and last keys
        # were range-checked.
        (3, 1, [{1: 1, -1: 1, 2: 1}, {0: 1}, {0: 1}], r"column -1 outside 0\.\.2"),
        # A bare IndexError from the symmetry check, likewise.
        (3, 1, [{1: 1, 5: 1, 2: 1}, {0: 1}, {0: 1}], r"column 5 outside 0\.\.2"),
        (3, 1, [{2: 1, 7: 1, -4: 1}, {}, {0: 1}], r"column -4 outside 0\.\.2"),
        # den = 0 made w[0, 1] raise ZeroDivisionError; den = -1 read -1.
        (2, 0, [{1: 1}, {0: 1}], r"weight denominator 0 is not positive"),
        (2, -1, [{1: 1}, {0: 1}], r"weight denominator -1 is not positive"),
        (3, 1, [{1: 1}, {0: 1}], r"weight matrix has 2 rows, expected 3"),
    ],
    ids=["unordered-negative", "unordered-past-end", "several-outside", "den-0", "den-negative", "rows"],
)
def test_stored_form_refused(n, den, ints, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        WeightMatrix(n, den, ints)


@pytest.mark.parametrize("rows", [[[0, 1], [1, 0, 0]], [[0, 1, 1], [1, 0, 1]], [[0], {}]])
def test_from_rows_refuses_non_square_dense_rows(rows):
    with pytest.raises(ValueError, match="^weight matrix must be square$"):
        WeightMatrix.from_rows(rows)


def test_stored_form_keeps_rows_in_any_order():
    w = WeightMatrix(3, 6, [{2: 3, 1: 2}, {0: 2, 2: 0}, {0: 3}])
    assert w.ints == ({2: 3, 1: 2}, {0: 2}, {0: 3})
    assert w == WeightMatrix.from_rows([[0, F(1, 3), F(1, 2)], [F(1, 3), 0, 0], [F(1, 2), 0, 0]])


def test_matrix_size_must_match_hypergraph():
    w = WeightMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match=r"^matrix is 2x2, hypergraph has 3 links$"):
        validate_weight_matrix(Hypergraph(3, ((0, 1, 2),)), w)


def random_mixed(rng, h):
    """Dense admissible rows on mixed denominators: the delta matrix plus
    p/q, q in 2..7, on random neighbor pairs, capped at 1."""
    rows = dense_delta(h)
    for i in range(h.num_links):
        for j in range(i + 1, h.num_links):
            if rows[i][j] and rng.random() < 0.5:
                q = rng.randint(2, 7)
                rows[i][j] = rows[j][i] = min(F(1), rows[i][j] + F(rng.randint(1, q), q))
    return rows


def weight_text(dense):
    return "".join(" ".join(map(str, row)) + "\n" for row in dense)


def three_ways(dense):
    """The matrix of ``dense`` from sparse Fraction rows, dense rows and
    weight-file text."""
    sparse = tuple({j: v for j, v in enumerate(row) if v} for row in dense)
    return [
        WeightMatrix.from_rows(sparse),
        WeightMatrix.from_rows(dense),
        parse_weight_text(weight_text(dense)),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_int_base_agrees_four_ways(seed):
    for rng, h in instances(300 + seed, 20):
        n = h.num_links
        delta, mixed = dense_delta(h), random_mixed(rng, h)
        for dense, ways in ((delta, three_ways(delta) + [delta_matrix(h)]), (mixed, three_ways(mixed))):
            for w in ways:
                assert w.n == n
                assert w.rows == tuple({j: v for j, v in enumerate(row) if v} for row in dense)
                assert all(w[i, j] == dense[i][j] for i in range(n) for j in range(n))
                for row, ints in zip(w.rows, w.ints):
                    assert ints.keys() == row.keys()
                    assert all(type(v) is int and v == row[j] * w.den for j, v in ints.items())


@pytest.mark.parametrize("seed", range(3))
def test_mixed_denominators_match_dense(seed):
    for rng, h in instances(400 + seed, 20):
        dense = random_mixed(rng, h)
        tau = random_demand(rng, h.num_links)
        order = tuple(rng.sample(range(h.num_links), h.num_links))
        steps = []
        try:
            greedy_schedule(h, tau, order, step_callback=lambda k, a: steps.append((k, a)))
        except ScheduleStuck:
            pass
        for w in three_ways(dense):
            validate_weight_matrix(h, w)
            assert check_weighted_condition(h, w, tau).per_link == dense_sums(dense, tau)
            for link, assigned in steps:
                assert greedy_step_bound(h, w, assigned, link)[1] == sum(
                    (dense[link][j] * assigned[j].measure for j in range(h.num_links)
                     if j != link and assigned[j] is not None),
                    F(0),
                )


@pytest.mark.parametrize("fault", FAULTS)
def test_mixed_denominator_fault_reported_three_ways(fault):
    checked = 0
    for rng, h in instances(500 + FAULTS.index(fault), 40):
        rows = random_mixed(rng, h)
        if not inject(rng, h, rows, fault):
            continue
        with pytest.raises(Exception) as expected:
            dense_validate(h, rows)
        for build in (
            lambda: WeightMatrix.from_rows(tuple(dict(enumerate(row)) for row in rows)),
            lambda: WeightMatrix.from_rows(rows),
            lambda: parse_weight_text(weight_text(rows)),
        ):
            with pytest.raises(type(expected.value)) as got:
                validate_weight_matrix(h, build())
            assert vars(got.value) == vars(expected.value)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("fault", FAULTS)
def test_faults_in_shuffled_rows_reported_as_dense_scan(fault):
    """Rows in no order, one to three faults of one kind, so a row may hold
    two: the fault reported is the dense scan's first, whether the matrix
    is built from shuffled Fraction maps or from the stored int form."""
    checked = 0
    for rng, h in instances(600 + FAULTS.index(fault), 40):
        rows = random_mixed(rng, h)
        if not all([inject(rng, h, rows, fault) for _ in range(rng.randint(1, 3))]):
            continue
        try:
            dense_validate(h, rows)
            continue  # a later fault undid an earlier one
        except Exception as e:
            expected = e
        maps = []
        for row in rows:
            items = [(j, v) for j, v in enumerate(row) if v]
            rng.shuffle(items)
            maps.append(dict(items))
        den = math.lcm(*(v.denominator for row in maps for v in row.values()))
        stored = [{j: int(v * den) for j, v in row.items()} for row in maps]
        for build in (lambda: WeightMatrix.from_rows(maps), lambda: WeightMatrix(len(rows), den, stored)):
            with pytest.raises(type(expected)) as got:
                validate_weight_matrix(h, build())
            assert vars(got.value) == vars(expected)
        checked += 1
    assert checked >= 20


# (weight file for the triangle, the CLI's error line after the path)
MALFORMED = [
    ("0 1/2 1/2\n1/2 0 x\n1/2 1/2 0\n", ":2: bad rational 'x'"),
    ("0 1/0 1\n1/0 0 1\n1 1 0\n", ":1: bad rational '1/0'"),
    ("0 1e-5000 1\n1 0 1\n1 1 0\n", ":1: bad rational '1e-5000'"),
    ("0 1 1\n1 0 1\n", ":1: weight matrix must be square, got 2 rows"),
    ("0 1 1\n1 0\n1 1 0\n", ":1: weight matrix must be square, got 3 rows"),
    ("# only a comment\n", ":1: empty weight matrix"),
    ("0 1 1 0\n1 0 1 0\n1 1 0 0\n0 0 0 0\n", ":1: weight matrix is 4x4, hypergraph has 3 links"),
    ("1/2 1/2 1/2\n1/2 0 1/2\n1/2 1/2 0\n", ":1: W[1][1] = 1/2, diagonal must be zero"),
    ("0 1/2 1/3\n1/2 0 1/2\n1/2 1/2 0\n", ":1: W[1][3] != W[3][1]"),
    ("0 3/2 1\n3/2 0 1\n1 1 0\n", ":1: W[1][2] = 3/2 is outside [0, 1]"),
    ("0 -1/2 1\n-1/2 0 1\n1 1 0\n", ":1: W[1][2] = -1/2 is outside [0, 1]"),
    ("0 1/3 1/3\n1/3 0 1/3\n1/3 1/3 0\n", ":1: sum of W[1][j] over edge 1 2 3 is 2/3, must be >= 1"),
    ("# h\n0 2/5 3/7\n\n2/5 0 1/2 # x\n3/7 1/2 0\n", ":2: sum of W[1][j] over edge 1 2 3 is 29/35, must be >= 1"),
]


@pytest.mark.parametrize("text, line", MALFORMED)
def test_malformed_weight_file_error_line(tmp_path, text, line):
    (tmp_path / "h").write_text("links 3\nedge 1 2 3\n")
    (tmp_path / "d").write_text("demand 1/4 1/4 1/4\n")
    (tmp_path / "w").write_text(text)
    for command in (["check", "--rule", "thm3"], ["schedule"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(tmp_path / "h"), "--demand", str(tmp_path / "d"),
                         *command[1:], "--w", str(tmp_path / "w")])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {tmp_path / 'w'}{line}\n")


def test_weight_sums_build_one_fraction_per_link(monkeypatch):
    """Work guard, counted: on an admissible matrix the admissibility check
    builds no Fraction, and the weighted condition one per link (the
    demand is already a DemandVector of Fractions)."""
    h = wall_instance(200)
    rng = random.Random(200)
    w = parse_weight_text(weight_text(random_mixed(rng, h)), n=h.num_links)
    tau = random_demand(rng, h.num_links, small=True)
    made = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    validate_weight_matrix(h, w)
    assert made[0] == 0
    report = check_weighted_condition(h, w, tau)
    assert 0 < made[0] <= h.num_links
    monkeypatch.undo()
    assert report.per_link == dense_sums(
        [[w[i, j] for j in range(h.num_links)] for i in range(h.num_links)], tau
    )
