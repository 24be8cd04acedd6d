"""CLI contract: byte-exact reports, exit codes, round-trips, --json."""

import dataclasses
import functools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hypersched import (
    DemandVector,
    Hypergraph,
    IntervalSet,
    LpSolution,
    LpStatus,
    ParseError,
    cli,
    feasibility,
    greedy,
    metrics,
)
from hypersched.cli import main
from hypersched.formats import (
    format_demand_line,
    format_interval_set,
    parse_demand_text,
    parse_hypergraph_text,
    parse_weight_text,
)
from conftest import stop_phase_two_early, wall_instance

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def parse_interval_set(text):
    """Inverse of format_interval_set."""
    text = text.strip()
    if text == "∅":
        return IntervalSet(())
    pieces = []
    for part in text.split("∪"):
        part = part.strip()
        if not (part.startswith("[") and part.endswith(")")):
            raise ValueError(f"bad interval {part!r}")
        a, b = part[1:-1].split(",")
        pieces.append((F(a), F(b)))
    return IntervalSet(tuple(pieces))


TRIANGLE_FILE = """\
links 3
edge 1 2 3
"""

STAR_FILE = """\
# two 4-edges sharing link 1
links 7
edge 1 2 3 4
edge 1 5 6 7
"""

STAR_DEMAND = "demand 1/2 1 1 1/2 1 1 1/2\n"

PAIRS_TRIANGLE_FILE = """\
links 3
edge 1 2
edge 1 3
edge 2 3
"""


@pytest.fixture
def files(tmp_path):
    tri = tmp_path / "triangle.hg"
    tri.write_text(TRIANGLE_FILE)
    star = tmp_path / "star.hg"
    star.write_text(STAR_FILE)
    dem = tmp_path / "star.demand"
    dem.write_text(STAR_DEMAND)
    return {"triangle": str(tri), "star": str(star), "demand": str(dem), "dir": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_beta(self, files, capsys):
        code, out, err = run(capsys, "beta", files["star"])
        assert out == (
            "beta = 7/3\n"
            "sigma = 7/3\n"
            "witness link: 1\n"
            "demand 1 1 1 0 1 1 0\n"
        )
        assert code == 0
        assert err == ""

    def test_check_cor4(self, files, capsys):
        code, out, err = run(
            capsys, "check", files["star"], "--demand", files["demand"], "--rule", "cor4"
        )
        assert out == (
            "link 1: 13/6\n"
            "link 2: 5/3\n"
            "link 3: 5/3\n"
            "link 4: 4/3\n"
            "link 5: 5/3\n"
            "link 6: 5/3\n"
            "link 7: 4/3\n"
            "FAILS\n"
        )
        assert code == 1

    def test_check_thm3_without_w_is_cor4(self, files, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("delta matrix built or checked for thm3")

        monkeypatch.setattr(cli, "delta_matrix", boom)
        monkeypatch.setattr(greedy, "validate_weight_matrix", boom)
        argv = ["check", files["star"], "--demand", files["demand"], "--rule"]
        thm3 = run(capsys, *argv, "thm3")
        assert thm3 == run(capsys, *argv, "cor4")
        assert thm3[0] == 1
        assert thm3[1].endswith("link 7: 4/3\nFAILS\n")

    def test_indep_sets_maximal(self, files, capsys):
        code, out, err = run(capsys, "indep-sets", files["triangle"], "--maximal")
        assert out == "1 2\n1 3\n2 3\n"
        assert code == 0

    def test_chi_f(self, files, capsys):
        code, out, err = run(
            capsys, "chi-f", files["star"], "--demand", files["demand"]
        )
        assert out == (
            "chi_f = 1\n"
            "schedule:\n"
            "1 2 3 5 6 : 1/2\n"
            "2 3 4 5 6 7 : 1/2\n"
        )
        assert code == 0

    def test_metrics_summary_lines(self, files, capsys):
        code, out, err = run(capsys, "metrics", files["star"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "link 1: Delta' = 2 (J = 2 3 4 5 6 7), Delta'' = 7/3 (J = 2 3 5 6)"
        assert lines[-4:] == ["Delta' = 2", "Delta'' = 7/3", "sigma = 7/3", "Delta = 2"]

    def test_star(self, files, capsys):
        code, out, err = run(capsys, "star", files["star"])
        assert out == "beta-star: center 1\nn_4 = 2\nbeta = 7/3\n"
        assert code == 0

    def test_symmetrize(self, files, capsys):
        dfile = files["dir"] / "ones.demand"
        dfile.write_text("demand 1 1 1 0 1 1 0\n")
        code, out, err = run(
            capsys, "symmetrize", files["star"], "--demand", str(dfile)
        )
        assert out == "aut_order = 72\ndemand 1 2/3 2/3 2/3 2/3 2/3 2/3\n"
        assert code == 0

    def test_symmetrize_searches_the_group_once(self, files, capsys, monkeypatch):
        calls = []
        for module in (cli, metrics):
            real = module.automorphisms

            def counted(*args, real=real):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(module, "automorphisms", counted)
        dfile = files["dir"] / "ones.demand"
        dfile.write_text("demand 1 1 1 0 1 1 0\n")
        code, out, _ = run(capsys, "symmetrize", files["star"], "--demand", str(dfile))
        assert (code, out) == (0, "aut_order = 72\ndemand 1 2/3 2/3 2/3 2/3 2/3 2/3\n")
        assert len(calls) == 1

    def test_beta_builds_one_completion_table(self, files, capsys, monkeypatch):
        """beta's full walk and its sigma cross-check share the table that
        the hypergraph caches."""
        built = []
        real = Hypergraph.completions.func

        def counted(h):
            built.append(h)
            return real(h)

        prop = functools.cached_property(counted)
        prop.__set_name__(Hypergraph, "completions")
        monkeypatch.setattr(Hypergraph, "completions", prop)
        code, out, _ = run(capsys, "beta", files["star"])
        assert (code, out.splitlines()[0]) == (0, "beta = 7/3")
        assert len(built) == 1

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["beta"], 0),
            (["metrics"], 0),
            (["check", "--rule", "cor4", "--demand", "star_2x4_demand.txt"], 1),
        ],
        ids=["beta", "metrics", "check-cor4"],
    )
    def test_one_delta_matrix_per_call(self, capsys, monkeypatch, argv, code):
        """Every layer of a call reads the one delta matrix that the
        hypergraph keeps: beta's sigma walk, its all-set walk and its
        witness re-check; the metrics walks and their Delta-weight re-check;
        the cor4 sums."""
        built = []

        class Counted(greedy.WeightMatrix):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(greedy, "WeightMatrix", Counted)
        command, *rest = argv
        rest = [str(ROOT / "data" / a) if a.endswith(".txt") else a for a in rest]
        got, out, err = run(capsys, command, str(ROOT / "data" / "star_2x4.hg"), *rest)
        assert (got, err) == (code, "")
        assert out
        assert len(built) == 1

    def test_symmetrize_edgeless_ten_links(self, files, capsys):
        """The default automorphism limit admits 10 links; the group of an
        edgeless file (10! maps) is summarized, not listed."""
        hg = files["dir"] / "edgeless10.hg"
        hg.write_text("links 10\n")
        dfile = files["dir"] / "one.demand"
        dfile.write_text("demand 1" + " 0" * 9 + "\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "symmetrize", str(hg), "--demand", str(dfile))
        assert (code, out) == (0, "aut_order = 3628800\ndemand" + " 1/10" * 10 + "\n")
        assert time.perf_counter() - start < 5.0

    def test_schedule(self, files, capsys):
        dfile = files["dir"] / "tri.demand"
        dfile.write_text("demand 1/2 1/2 1/2\n")
        code, out, err = run(
            capsys, "schedule", files["triangle"], "--demand", str(dfile)
        )
        assert out == "link 1: [0,1/2)\nlink 2: [0,1/2)\nlink 3: [1/2,1)\n"
        assert code == 0

    def test_validate_minimalize(self, files, capsys):
        raw = files["dir"] / "raw.hg"
        raw.write_text("links 4\nedge 1 2 3 4\nedge 1 2\n")
        code, out, err = run(capsys, "validate", str(raw), "--minimalize")
        assert out == "OK: 4 links, 1 edges (minimalized)\nedge 1 2\n"
        assert code == 0

    def test_validate_plain(self, files, capsys):
        code, out, err = run(capsys, "validate", files["star"])
        assert out == "OK: 7 links, 2 edges\n"
        assert code == 0

    def test_indep_sets_full_listing_starts_empty(self, files, capsys):
        code, out, err = run(capsys, "indep-sets", files["triangle"])
        lines = out.splitlines()
        assert lines[0] == "-"  # the empty set
        assert len(lines) == 7
        assert code == 0

    def test_schedule_zero_demand_link(self, files, capsys):
        hg = files["dir"] / "pair.hg"
        hg.write_text("links 2\nedge 1 2\n")
        dfile = files["dir"] / "pair.demand"
        dfile.write_text("demand 1/2 0\n")
        code, out, err = run(capsys, "schedule", str(hg), "--demand", str(dfile))
        assert out == "link 1: [0,1/2)\nlink 2: ∅\n"
        assert code == 0

    def test_star_single_edge_vacuous_note(self, files, capsys):
        hg = files["dir"] / "one.hg"
        hg.write_text("links 3\nedge 1 2 3\n")
        code, out, err = run(capsys, "star", str(hg))
        assert code == 0
        assert out == (
            "beta-star: center 1\n"
            "n_3 = 1\n"
            "beta = 3/2\n"
            "note: single edge, any of its links is a valid center\n"
        )


class TestExitCodes:
    def test_feasible_yes(self, files, capsys):
        code, out, _ = run(capsys, "feasible", files["star"], "--demand", files["demand"])
        assert code == 0
        assert out == "FEASIBLE (chi_f = 1)\n"

    def test_feasible_no(self, files, capsys):
        dfile = files["dir"] / "full.demand"
        dfile.write_text("demand 1 1 1\n")
        code, out, _ = run(capsys, "feasible", files["triangle"], "--demand", str(dfile))
        assert code == 1
        assert out == "INFEASIBLE (chi_f = 3/2)\n"

    def test_schedule_stuck(self, files, capsys):
        dfile = files["dir"] / "full.demand"
        dfile.write_text("demand 1 1 1\n")
        code, out, _ = run(capsys, "schedule", files["triangle"], "--demand", str(dfile))
        assert code == 1
        assert out == "STUCK at link 3\n"

    def test_check_holds(self, files, capsys):
        dfile = files["dir"] / "thirds.demand"
        dfile.write_text("demand 1/3 1/3 1/3\n")
        code, out, _ = run(
            capsys, "check", files["triangle"], "--demand", str(dfile), "--rule", "lemma1"
        )
        assert code == 0
        assert out.endswith("HOLDS\n")

    def test_not_a_star(self, files, capsys):
        hg = files["dir"] / "two.hg"
        hg.write_text("links 6\nedge 1 2 3\nedge 4 5 6\n")
        code, out, _ = run(capsys, "star", str(hg))
        assert code == 1
        assert out == "not a beta-star\n"

    def test_parse_error_line_numbered(self, files, capsys):
        bad = files["dir"] / "bad.hg"
        bad.write_text("links 3\nedge 1 9\n")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert out == ""
        assert f"{bad}:2:" in err

    @pytest.mark.parametrize(
        "name, text, argv, line, message",
        [
            ("a.hg", "edge 1 2\nlinks 3\n", [], 1, "edge before links line"),
            ("b.hg", "links 3\nedge\n", [], 2, "edge line with no links"),
            ("d.txt", "# no demand\n", ["check", "--rule", "cor4"], 1, "missing demand line"),
        ],
        ids=["edge-before-links", "empty-edge", "no-demand"],
    )
    def test_parse_refusals(self, files, capsys, name, text, argv, line, message):
        bad = files["dir"] / name
        bad.write_text(text)
        if argv:
            argv = [argv[0], files["triangle"], "--demand", str(bad), *argv[1:]]
        else:
            argv = ["validate", str(bad)]
        assert run(capsys, *argv) == (2, "", f"error: {bad}:{line}: {message}\n")

    def test_non_antichain_rejected_without_flag(self, files, capsys):
        raw = files["dir"] / "raw.hg"
        raw.write_text("links 4\nedge 1 2 3 4\nedge 1 2\n")
        code, out, err = run(capsys, "validate", str(raw))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {raw}:3: edge 1 2 is contained in edge 1 2 3 4"
            " (run `validate --minimalize` to reduce)\n"
        )

    def test_edge_too_small_line(self, files, capsys):
        raw = files["dir"] / "small.hg"
        raw.write_text("links 3\nedge 1 2 3\nedge 2\n")
        code, out, err = run(capsys, "validate", str(raw))
        assert (code, out) == (2, "")
        assert err == f"error: {raw}:3: edge 2 has fewer than 2 links\n"

    @pytest.mark.parametrize("flags", [[], ["--minimalize"]], ids=["plain", "minimalize"])
    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("links 3\nedge 1 2\nedge 3\n", 3, "edge 3 has fewer than 2 links"),
            # Named once, at the line of its first occurrence.
            ("links 3\nedge 1 2\nedge 2\nedge 2 3\nedge 2\n", 3, "edge 2 has fewer than 2 links"),
            # A fault of a later line is still met first: the edges are
            # checked once every line has been read.
            ("links 3\nedge 2\nedge 1 9\n", 3, "label 9 outside 1..3"),
            # The edge sizes are checked before the antichain.
            ("links 4\nedge 1 2 3\nedge 1 2\nedge 4\n", 4, "edge 4 has fewer than 2 links"),
            ("links 4\nedge 4 # lone\nedge 1 2\nedge 1 2 3\n", 2, "edge 4 has fewer than 2 links"),
        ],
        ids=["singleton", "repeated", "later-label", "after-contained", "before-contained"],
    )
    def test_singleton_edge_files(self, files, capsys, text, line, message, flags):
        raw = files["dir"] / "small.hg"
        raw.write_text(text)
        assert run(capsys, "validate", str(raw), *flags) == (2, "", f"error: {raw}:{line}: {message}\n")

    def test_size_limit_exit(self, files, capsys, monkeypatch):
        monkeypatch.setenv("HS_SIZE_LIMIT", "5")
        code, out, err = run(capsys, "beta", files["star"])
        assert code == 3
        assert "limit" in err

    def test_size_limit_env_raises_automorphism_limit(self, files, capsys, monkeypatch):
        # star has 7 links: over the default automorphism limit? no (10), so
        # check the other direction: a tiny limit breaks symmetrize
        monkeypatch.setenv("HS_SIZE_LIMIT", "6")
        dfile = files["dir"] / "d.demand"
        dfile.write_text("demand 1 1 1 0 1 1 0\n")
        code, _, err = run(capsys, "symmetrize", files["star"], "--demand", str(dfile))
        assert code == 3

    def test_bad_env_value(self, files, capsys, monkeypatch):
        monkeypatch.setenv("HS_SIZE_LIMIT", "zero")
        code, _, err = run(capsys, "indep-sets", files["star"])
        assert code == 2
        assert "HS_SIZE_LIMIT" in err

    def test_solver_invariant_exit(self, files, capsys, monkeypatch):
        monkeypatch.setattr(
            feasibility, "solve_lp", lambda lp, sense: LpSolution(LpStatus.INFEASIBLE)
        )
        code, out, err = run(capsys, "chi-f", files["star"], "--demand", files["demand"])
        assert code == 2
        assert out == ""
        assert "coverage LP" in err

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    @pytest.mark.parametrize(
        "last, message",
        [
            (IntervalSet(((0, F(1, 2)),)), "error: set 1 2 3 contains a forbidden edge\n"),
            (IntervalSet(((F(1, 2), F(3, 4)),)), "error: link 3 covered for 1/4, demand is 1/2\n"),
        ],
        ids=["overlap", "measure"],
    )
    def test_corrupted_schedule_exits_2(self, files, capsys, monkeypatch, extra, last, message):
        half = IntervalSet(((0, F(1, 2)),))
        monkeypatch.setattr(cli, "greedy_schedule", lambda h, tau, order=None: (half, half, last))
        dfile = files["dir"] / "tri.demand"
        dfile.write_text("demand 1/2 1/2 1/2\n")
        code, out, err = run(capsys, "schedule", files["triangle"], "--demand", str(dfile), *extra)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    @pytest.mark.parametrize(
        "command, value, entries, message",
        [
            pytest.param(command, value, entries, message,
                         id=name if command == "chi-f" else f"{command}-{name}")
            for command in ("chi-f", "feasible")
            for name, value, entries, message in [
                ("dependent", F(1), (({0, 1, 2}, F(1)),),
                 "error: set 1 2 3 contains a forbidden edge\n"),
                ("uncovered", F(1), (({0, 1}, F(1, 2)),),
                 "error: link 3 covered for 0, demand is 1/2\n"),
                ("over-value", F(1, 2), (({0, 1}, F(1, 2)), ({2}, F(1, 2))),
                 "error: total duration 1 exceeds budget 1/2\n"),
                ("under-value", F(3, 2), (({0, 1}, F(1, 2)), ({2}, F(1, 2))),
                 "error: chi_f = 3/2 but its witness lasts 1; this is a library bug\n"),
            ]
        ],
    )
    def test_corrupted_chi_f_witness_exits_2(
        self, files, capsys, monkeypatch, extra, command, value, entries, message
    ):
        bad = feasibility.ChiFResult(value, feasibility.Schedule(entries))
        monkeypatch.setattr(cli, "fractional_chromatic_number", lambda h, tau, limit=None: bad)
        dfile = files["dir"] / "tri.demand"
        dfile.write_text("demand 1/2 1/2 1/2\n")
        code, out, err = run(capsys, command, files["triangle"], "--demand", str(dfile), *extra)
        assert (code, out, err) == (2, "", message)

    @pytest.fixture
    def wall8(self, tmp_path):
        """wall_instance(8) and demand 1/7 on every link, as files: chi_f is
        2/7, and a phase 2 stopped at its start reports 3/7."""
        hg = tmp_path / "wall8.hg"
        edges = ("edge" + "".join(f" {v + 1}" for v in e) + "\n" for e in wall_instance(8).edges)
        hg.write_text("links 8\n" + "".join(edges))
        dfile = tmp_path / "wall8.demand"
        dfile.write_text("demand" + " 1/7" * 8 + "\n")
        return str(hg), str(dfile)

    @pytest.mark.parametrize("command", ["chi-f", "feasible"])
    def test_chi_f_stopped_early_exits_2(self, wall8, capsys, monkeypatch, command):
        hg, dfile = wall8
        code, out, _ = run(capsys, command, hg, "--demand", dfile)
        assert (code, "chi_f = 2/7" in out.splitlines()[0]) == (0, True)
        stop_phase_two_early(monkeypatch.setattr)
        code, out, err = run(capsys, command, hg, "--demand", dfile)
        assert (code, out, err) == (2, "", "error: column 3 prices below its cost at the optimum\n")

    def test_chi_f_stopped_early_exits_2_under_optimize(self, wall8):
        """The optimality re-check is no assert: ``python -O`` keeps it."""
        hg, dfile = wall8
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
        script = (
            "import sys\n"
            "from conftest import stop_phase_two_early\n"
            "from hypersched import cli\n"
            "stop_phase_two_early(setattr)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "chi-f", hg, "--demand", dfile],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: column 3 prices below its cost at the optimum\n"
        )

    def test_beta_differing_from_sigma_exits_2(self, files, capsys, monkeypatch):
        real = metrics._sigma

        def off_by_one(h, limit=None):
            return real(h, limit) + 1

        monkeypatch.setattr(metrics, "_sigma", off_by_one)
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "beta", files["star"], *extra)
            assert (code, out) == (2, "")
            assert err == "error: beta = 7/3 differs from sigma = 10/3; this is a library bug\n"

    def test_beta_above_a_low_sigma_exits_2(self, files, capsys, monkeypatch):
        """A sigma below beta seeds beta's walk too low: the walk still finds
        the larger beta, so the cross-check fails in this direction too."""
        real = metrics._sigma

        def a_third_low(h, limit=None):
            return real(h, limit) - F(1, 3)

        monkeypatch.setattr(metrics, "_sigma", a_third_low)
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, "beta", files["star"], *extra)
            assert (code, out) == (2, "")
            assert err == "error: beta = 7/3 differs from sigma = 2; this is a library bug\n"

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    @pytest.mark.parametrize(
        "text, field, link, value, witness, message",
        [
            (STAR_FILE, "per_link_prime", 0, F(2), {1, 4},
             "Delta' of link 1 is 2 but its J = 2 5 gives 2/3"),
            (STAR_FILE, "per_link_doubleprime", 0, F(5, 3), {1, 2, 3},
             "Delta'' of link 1 is 5/3 but its J = 2 3 4 holds an edge with the link"),
            (STAR_FILE, "per_link_prime", 1, F(1, 3), {4},
             "Delta' of link 2 is 1/3 but its J = 5 lies outside the link's neighborhood"),
            (PAIRS_TRIANGLE_FILE, "per_link_prime", 0, F(1), {1, 2},
             "Delta' of link 1 is 1 but its J = 2 3 holds an edge"),
        ],
        ids=["value", "dependent", "outside", "prime-dependent"],
    )
    def test_corrupted_metrics_witness_exits_2(
        self, files, capsys, monkeypatch, extra, text, field, link, value, witness, message
    ):
        real = cli.interference_metrics

        def corrupted(h, limit=None):
            rep = real(h, limit)
            entries = list(getattr(rep, field))
            entries[link] = metrics.LinkMetric(value, frozenset(witness))
            return dataclasses.replace(rep, **{field: tuple(entries)})

        monkeypatch.setattr(cli, "interference_metrics", corrupted)
        path = files["dir"] / "metrics.hg"
        path.write_text(text)
        code, out, err = run(capsys, "metrics", str(path), *extra)
        assert (code, out, err) == (2, "", f"error: {message}; this is a library bug\n")

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    @pytest.mark.parametrize(
        "beta, link, demand, message",
        [
            (F(3, 2), 0, (1, 1, 1),
             "beta's witness demand 1 1 1 is not the 0/1 vector of an independent set"),
            (F(3, 2), 0, (F(1, 2), 1, 0),
             "beta's witness demand 1/2 1 0 is not the 0/1 vector of an independent set"),
            (F(3, 2), 2, (1, 1, 0), "beta = 3/2 but its witness bounds link 3 at 1"),
        ],
        ids=["dependent", "fractional", "bound"],
    )
    def test_corrupted_beta_witness_exits_2(
        self, files, capsys, monkeypatch, extra, beta, link, demand, message
    ):
        bad = metrics.BetaWitness(beta, link, DemandVector(tuple(F(v) for v in demand)))
        monkeypatch.setattr(cli, "beta_by_enumeration", lambda h, limit=None, **_: bad)
        code, out, err = run(capsys, "beta", files["triangle"], *extra)
        assert (code, out, err) == (2, "", f"error: {message}; this is a library bug\n")

    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, "metrics", str(files["dir"] / "nope.hg"))
        assert code == 2

    def test_demand_length_mismatch(self, files, capsys):
        dfile = files["dir"] / "short.demand"
        dfile.write_text("demand 1/2 1/2\n")
        code, _, err = run(capsys, "feasible", files["star"], "--demand", str(dfile))
        assert code == 2
        assert "expected 7" in err

    def test_check_thm3_with_weight_file(self, files, capsys):
        wfile = files["dir"] / "w.txt"
        rows = [["0"] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                if i != j:
                    rows[i][j] = "1/2"
        wfile.write_text("\n".join(" ".join(r) for r in rows) + "\n")
        dfile = files["dir"] / "d.demand"
        dfile.write_text("demand 1/2 1/2 1/2\n")
        code, out, _ = run(
            capsys,
            "check",
            files["triangle"],
            "--demand",
            str(dfile),
            "--rule",
            "thm3",
            "--w",
            str(wfile),
        )
        assert code == 0
        assert out == "link 1: 1\nlink 2: 1\nlink 3: 1\nHOLDS\n"

    def test_inadmissible_weight_file(self, files, capsys):
        wfile = files["dir"] / "w.txt"
        wfile.write_text("0 0 0\n0 0 0\n0 0 0\n")
        dfile = files["dir"] / "d.demand"
        dfile.write_text("demand 0 0 0\n")
        code, _, err = run(
            capsys,
            "check",
            files["triangle"],
            "--demand",
            str(dfile),
            "--rule",
            "thm3",
            "--w",
            str(wfile),
        )
        assert code == 2


class TestJson:
    def test_symmetrize_json(self, files, capsys):
        dfile = files["dir"] / "ones.demand"
        dfile.write_text("demand 1 1 1 0 1 1 0\n")
        code, out, err = run(
            capsys, "symmetrize", files["star"], "--demand", str(dfile), "--json"
        )
        assert out == """\
{
  "aut_order": 72,
  "demand": [
    "1",
    "2/3",
    "2/3",
    "2/3",
    "2/3",
    "2/3",
    "2/3"
  ]
}
"""
        assert (code, err) == (0, "")

    def test_beta_json(self, files, capsys):
        code, out, _ = run(capsys, "beta", files["star"], "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "beta": "7/3",
            "sigma": "7/3",
            "witness_link": 1,
            "witness_demand": ["1", "1", "1", "0", "1", "1", "0"],
        }

    def test_chi_f_json_roundtrip(self, files, capsys):
        code, out, _ = run(
            capsys, "chi-f", files["star"], "--demand", files["demand"], "--json"
        )
        data = json.loads(out)
        assert F(data["chi_f"]) == 1
        total = sum(F(entry["duration"]) for entry in data["schedule"])
        assert total == 1

    def test_star_json(self, files, capsys):
        code, out, _ = run(capsys, "star", files["star"], "--json")
        data = json.loads(out)
        assert data == {
            "is_star": True,
            "center": 1,
            "size_counts": {"4": 2},
            "beta": "7/3",
            "vacuous_center": False,
        }

    def test_schedule_json(self, files, capsys):
        dfile = files["dir"] / "tri.demand"
        dfile.write_text("demand 1/2 1/2 1/2\n")
        code, out, _ = run(
            capsys, "schedule", files["triangle"], "--demand", str(dfile), "--json"
        )
        data = json.loads(out)
        assert data["intervals"][2] == {"link": 3, "intervals": [["1/2", "1"]]}

    def test_schedule_json_stuck_with_room_left(self, files, capsys):
        """Link 4 is blocked by link 1 on [0, 1/2) and by link 3 on
        [1/3, 7/12); 5/12 of the time is free, less than its demand."""
        hg = files["dir"] / "two_pairs.hg"
        hg.write_text("links 4\nedge 1 2 3\nedge 1 4\nedge 3 4\n")
        dfile = files["dir"] / "two_pairs.demand"
        dfile.write_text("demand 1/2 1/3 1/4 1/2\n")
        code, out, err = run(capsys, "schedule", str(hg), "--demand", str(dfile), "--json")
        assert out == """\
{
  "stuck_at": 4,
  "demanded": "1/2",
  "available": "5/12"
}
"""
        assert (code, err) == (1, "")

    def test_validate_json(self, files, capsys):
        code, out, _ = run(capsys, "validate", files["star"], "--json")
        assert json.loads(out) == {
            "ok": True,
            "links": 7,
            "edges": [[1, 2, 3, 4], [1, 5, 6, 7]],
            "minimalized": False,
        }


class TestRoundTrips:
    def test_demand_line(self):
        tau = DemandVector((1, F(2, 3), F(1, 6)))
        line = format_demand_line(tau)
        values, _ = parse_demand_text(line)
        assert DemandVector(values) == tau

    def test_interval_set(self):
        js = IntervalSet(((F(0), F(1, 3)), (F(1, 2), F(5, 6))))
        assert parse_interval_set(format_interval_set(js)) == js
        assert parse_interval_set(format_interval_set(IntervalSet(()))) == IntervalSet(())

    def test_symmetrize_output_reparses(self, files, capsys):
        dfile = files["dir"] / "d.demand"
        dfile.write_text("demand 1 1 1 0 1 1 0\n")
        code, out, _ = run(capsys, "symmetrize", files["star"], "--demand", str(dfile))
        demand_line = out.splitlines()[1]
        values, _ = parse_demand_text(demand_line)
        assert values == (1, F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3), F(2, 3))

    def test_schedule_output_reparses(self, files, capsys):
        dfile = files["dir"] / "tri.demand"
        dfile.write_text("demand 1/2 1/2 1/2\n")
        code, out, _ = run(capsys, "schedule", files["triangle"], "--demand", str(dfile))
        for line in out.splitlines():
            _, text = line.split(": ", 1)
            parse_interval_set(text)

    def test_chi_f_schedule_lines_reparse(self, files, capsys):
        code, out, _ = run(capsys, "chi-f", files["star"], "--demand", files["demand"])
        lines = out.splitlines()
        assert lines[0] == "chi_f = 1"
        total = F(0)
        for line in lines[2:]:
            labels, duration = line.split(" : ")
            assert all(1 <= int(tok) <= 7 for tok in labels.split())
            total += F(duration)
        assert total == F(lines[0].split(" = ")[1])

    def test_hypergraph_reparse_of_minimalize_output(self, files, capsys):
        raw = files["dir"] / "raw.hg"
        raw.write_text("links 4\nedge 1 2 3 4\nedge 1 2\n")
        code, out, _ = run(capsys, "validate", str(raw), "--minimalize")
        body = "links 4\n" + "\n".join(out.splitlines()[1:]) + "\n"
        h, _ = parse_hypergraph_text(body)
        assert h.edges == ((0, 1),)


class TestDemandParsing:
    """Demand lines repeat a few values many times; each distinct token is
    parsed once, and faults are reported as if every token were parsed in
    turn."""

    def test_repeated_tokens_give_equal_fractions(self):
        values, lineno = parse_demand_text("# hub\ndemand 1/2 1/3 1/2 2/4 1/3 0 0\n")
        assert lineno == 2
        assert values == (F(1, 2), F(1, 3), F(1, 2), F(1, 2), F(1, 3), F(0), F(0))
        assert all(type(v) is Fraction for v in values)
        assert values[0] is values[2]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("demand 1/2 x 1/2 x 2", "bad rational 'x'"),
            # Every token is parsed before any is range-checked.
            ("demand 1/2 2 1/0 2", "bad rational '1/0'"),
            ("demand 1/2 1/2 1/0 1/2", "bad rational '1/0'"),
            ("demand 1/3 -1/3 1/3 5/4 -1/3", "demand -1/3 outside [0, 1]"),
            ("demand 1/2 1/2 3/2 1/2 3/2", "demand 3/2 outside [0, 1]"),
        ],
    )
    def test_fault_line_and_text(self, line, message, files, capsys):
        with pytest.raises(ParseError) as err:
            parse_demand_text("\n" + line + "\n", "D")
        assert err.value.line == 2
        assert str(err.value) == f"D:2: {message}"
        dfile = files["dir"] / "bad.demand"
        dfile.write_text("\n" + line + "\n")
        code, out, stderr = run(
            capsys, "check", files["star"], "--demand", str(dfile), "--rule", "cor4"
        )
        assert (code, out) == (2, "")
        assert stderr == f"error: {dfile}:2: {message}\n"


class TestRationalDigitBound:
    """int() reads and prints no integer of more than 4300 digits.  A
    written-out literal past that is a bad rational, and so is an
    exponent-form token whose value would be one: its exponent is bounded
    before Fraction expands it."""

    @pytest.mark.parametrize(
        "token",
        ["1e-5000", "1e-4300", "1E-4301", "0.5e-4300", "0e4301"]
        + ["1" * 4000 + "e301", "1/1" + "0" * 4300],
        ids=["1e-5000", "1e-4300", "1E-4301", "0.5e-4300", "0e4301", "e301_4301_digits", "4301_digits"],
    )
    def test_refused_in_demand_and_weight_files(self, token):
        with pytest.raises(ParseError) as err:
            parse_demand_text(f"demand {token} 1/2\n", "D")
        assert str(err.value) == f"D:1: bad rational {token!r}"
        with pytest.raises(ParseError) as err:
            parse_weight_text(f"0 {token}\n{token} 0\n", "W")
        assert str(err.value) == f"W:1: bad rational {token!r}"

    def test_4300_digits_accepted(self):
        values, _ = parse_demand_text("demand 1e-4299 1/" + "9" * 4300 + "\n")
        assert values == (F(1, 10**4299), F(1, 10**4300 - 1))

    def test_huge_exponent_refused_before_it_is_expanded(self):
        """At 10**999999999 Fraction would build a billion-digit integer."""
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_demand_text("demand 1e-999999999\n", "D")
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == "D:1: bad rational '1e-999999999'"


PATH_FILE = """\
links 3
edge 1 2
edge 2 3
"""


class TestWeightFileErrors:
    """Weight-matrix faults name the file, the line of the offending row and
    1-based links, like every other diagnostic; the exit code is 2."""

    def run_weights(self, capsys, files, text, command="check"):
        hg = files["dir"] / "path.hg"
        hg.write_text(PATH_FILE)
        dfile = files["dir"] / "zero.demand"
        dfile.write_text("demand 0 0 0\n")
        wfile = files["dir"] / "w.txt"
        wfile.write_text(text)
        argv = [command, str(hg), "--demand", str(dfile), "--w", str(wfile)]
        if command == "check":
            argv += ["--rule", "thm3"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        return err.replace(str(wfile), "W")

    def test_off_support(self, files, capsys):
        err = self.run_weights(capsys, files, "# weights\n0 1 1/2\n1 0 1\n1/2 1 0\n")
        assert err == "error: W:2: W[1][3] = 1/2 but links 1 and 3 share no edge\n"

    def test_row_sum(self, files, capsys):
        err = self.run_weights(capsys, files, "0 1 0\n1 0 0\n0 0 0\n", "schedule")
        assert err == "error: W:2: sum of W[2][j] over edge 2 3 is 0, must be >= 1\n"

    def test_out_of_range(self, files, capsys):
        err = self.run_weights(capsys, files, "0 2 0\n2 0 1\n0 1 0\n")
        assert err == "error: W:1: W[1][2] = 2 is outside [0, 1]\n"

    def test_asymmetric(self, files, capsys):
        err = self.run_weights(capsys, files, "0 1 0\n1/2 0 1\n0 1 0\n", "schedule")
        assert err == "error: W:1: W[1][2] != W[2][1]\n"

    def test_nonzero_diagonal(self, files, capsys):
        err = self.run_weights(capsys, files, "0 1 0\n1 0 1\n0 1 1/3\n")
        assert err == "error: W:3: W[3][3] = 1/3, diagonal must be zero\n"

    def test_symmetry_named_before_an_earlier_entry_out_of_range(self, files, capsys):
        """Each kind of fault is checked over the whole matrix before the
        next: W[1][2] = 2 comes first in a dense scan, but the symmetry
        fault of row 2 is the one named."""
        err = self.run_weights(capsys, files, "0 2 0\n2 0 1\n0 1/2 0\n")
        assert err == "error: W:2: W[2][3] != W[3][2]\n"


class TestScheduleWeights:
    """The greedy placement reads no weights: `schedule` builds none without
    --w, and a --w file is only checked for admissibility."""

    @pytest.fixture
    def tri(self, files):
        dfile = files["dir"] / "tri.demand"
        dfile.write_text("demand 1/2 1/2 1/2\n")
        return ["schedule", files["triangle"], "--demand", str(dfile)]

    def test_no_weight_matrix_without_w(self, tri, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("weights built or checked")

        for module, name in [
            (cli, "delta_matrix"),
            (cli, "validate_weight_matrix"),
            (greedy, "validate_weight_matrix"),
        ]:
            monkeypatch.setattr(module, name, boom)
        code, out, err = run(capsys, *tri)
        assert (code, err) == (0, "")
        assert out == "link 1: [0,1/2)\nlink 2: [0,1/2)\nlink 3: [1/2,1)\n"

    def test_admissible_w_does_not_change_the_schedule(self, tri, files, capsys):
        wfile = files["dir"] / "ones.w"
        wfile.write_text("0 1 1\n1 0 1\n1 1 0\n")
        for extra in ([], ["--json"]):
            plain = run(capsys, *tri, *extra)
            assert run(capsys, *tri, *extra, "--w", str(wfile)) == plain
            assert plain[0] == 0

    def test_empty_order_refused(self, tri, capsys):
        """An empty --order is refused, not read as the default order."""
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, *tri, *extra, "--order", "")
            assert (code, out) == (2, "")
            assert err == "error: bad --order '': expected comma-separated labels\n"

    def test_order_fault_before_admissibility_fault(self, tri, files, capsys):
        wfile = files["dir"] / "zeros.w"
        wfile.write_text("0 0 0\n0 0 0\n0 0 0\n")
        code, out, err = run(capsys, *tri, "--w", str(wfile), "--order", "1,1,2")
        assert (code, out) == (2, "")
        assert err == "error: --order must be a permutation of 1..3\n"


class TestLargeSparse:
    """A file with many links and one tiny edge costs time in the number of
    links, not its square: each call stays far below the bound."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--rule", "cor4"],
            ["check", "--rule", "thm3"],
            ["schedule"],
        ],
    )
    def test_links_3000_single_edge(self, files, capsys, argv):
        hg = files["dir"] / "big.hg"
        hg.write_text("links 3000\nedge 1 2 3\n")
        dfile = files["dir"] / "big.demand"
        dfile.write_text("demand " + " ".join(["1/3"] * 3000) + "\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, argv[0], str(hg), "--demand", str(dfile), *argv[1:])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert len(out.splitlines()) == 3000 + (argv[0] == "check")
        assert elapsed < 5.0

    @pytest.fixture(scope="class")
    def hub_star(self, tmp_path_factory):
        """10,000 3-link edges through link 1 (20,001 links), with a demand
        of 1/2 at the center and 1/20000 elsewhere: the center's cor4 sum is
        exactly 1."""
        d = tmp_path_factory.mktemp("hub")
        petals = 10_000
        n = 2 * petals + 1
        hg = d / "hub.hg"
        hg.write_text(
            f"links {n}\n" + "".join(f"edge 1 {2 * k} {2 * k + 1}\n" for k in range(1, petals + 1))
        )
        dfile = d / "hub.demand"
        dfile.write_text("demand 1/2 " + " ".join(["1/20000"] * (n - 1)) + "\n")
        return str(hg), str(dfile)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["validate"], 0),
            (["validate", "--minimalize"], 0),
            (["star"], 0),
            (["check", "--rule", "cor4"], 0),
            (["schedule"], 0),
            (["indep-sets"], 3),
            (["chi-f"], 3),
            (["feasible"], 3),
            (["metrics"], 3),
            (["beta"], 3),
            (["symmetrize"], 3),
        ],
    )
    def test_hub_star_10000_petals(self, hub_star, capsys, argv, expected):
        """Validation, minimalization and star detection cost the sum of the
        edge sizes, not (edges through the hub)^2; every enumeration is
        refused by its size limit."""
        hg, dfile = hub_star
        demand = ["--demand", dfile] if argv[0] in ("check", "schedule", "chi-f", "feasible", "symmetrize") else []
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], hg, *demand, *argv[1:])
        elapsed = time.perf_counter() - start
        assert code == expected, err
        if argv[0] == "star":
            assert out.splitlines()[:2] == ["beta-star: center 1", "n_3 = 10000"]
        assert elapsed < 5.0


def _subcommands(hg, demand, weights):
    """Every subcommand's argv on the given files."""
    d = ["--demand", demand]
    return [
        ["validate", hg],
        ["validate", hg, "--minimalize"],
        ["indep-sets", hg],
        ["indep-sets", hg, "--maximal"],
        ["chi-f", hg, *d],
        ["feasible", hg, *d],
        ["schedule", hg, *d],
        ["schedule", hg, *d, "--w", weights],
        ["check", hg, *d, "--rule", "lemma1"],
        ["check", hg, *d, "--rule", "cor4"],
        ["check", hg, *d, "--rule", "thm3", "--w", weights],
        ["metrics", hg],
        ["beta", hg],
        ["star", hg],
        ["symmetrize", hg, *d],
    ]


class TestExitCodeContract:
    """A malformed input file exits 2 on every subcommand, with or without
    --json, with a single `error: FILE:LINE: ...` line on stderr."""

    BAD_HYPERGRAPHS = {
        # `²` passes str.isdigit() but int() rejects it.
        "superscript_links": ("links ²\n".encode(), 1),
        "superscript_label": ("links 3\nedge 1 ²\n".encode(), 2),
        "not_utf8": (b"links 3\n# caf\xe9\nedge 1 2 3\n", 2),
        # More digits than int() reads.
        "long_links_count": (b"links " + b"1" * 4301 + b"\n", 1),
        "long_label": (b"links 3\nedge 1 2 " + b"0" * 4300 + b"3\n", 2),
    }

    @pytest.fixture
    def good(self, tmp_path):
        hg = tmp_path / "t.hg"
        hg.write_text(TRIANGLE_FILE)
        dem = tmp_path / "t.demand"
        dem.write_text("demand 1/2 1/2 1/2\n")
        w = tmp_path / "t.w"
        w.write_text("0 1 1\n1 0 1\n1 1 0\n")
        return str(hg), str(dem), str(w)

    def assert_input_error(self, capsys, argv, path, line):
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 2, (argv, err)
            assert out == ""
            assert err.startswith(f"error: {path}:{line}: ")
            assert err.count("\n") == 1
            assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(BAD_HYPERGRAPHS))
    def test_bad_hypergraph(self, tmp_path, capsys, good, name):
        data, line = self.BAD_HYPERGRAPHS[name]
        bad = tmp_path / "bad.hg"
        bad.write_bytes(data)
        _, dem, w = good
        for argv in _subcommands(str(bad), dem, w):
            self.assert_input_error(capsys, argv, bad, line)

    def test_undecodable_demand(self, tmp_path, capsys, good):
        hg, _, w = good
        bad = tmp_path / "bad.demand"
        bad.write_bytes(b"# demand\ndemand 1/2 \xff 1/2\n")
        for argv in _subcommands(hg, str(bad), w):
            if "--demand" in argv:
                self.assert_input_error(capsys, argv, bad, 2)

    @pytest.mark.parametrize("name", sorted(BAD_HYPERGRAPHS))
    def test_hypergraph_fault_before_demand_fault(self, tmp_path, capsys, good, name):
        data, line = self.BAD_HYPERGRAPHS[name]
        bad = tmp_path / "bad.hg"
        bad.write_bytes(data)
        dem = tmp_path / "bad.demand"
        dem.write_text("demand 1/2 x\n")
        _, _, w = good
        for argv in _subcommands(str(bad), str(dem), w):
            if "--demand" in argv:
                self.assert_input_error(capsys, argv, bad, line)

    def test_undecodable_weights(self, tmp_path, capsys, good):
        hg, dem, _ = good
        bad = tmp_path / "bad.w"
        bad.write_bytes(b"0 1 1\n1 0 1\n1 1 \xc3\n")
        for argv in _subcommands(hg, dem, str(bad)):
            if "--w" in argv:
                self.assert_input_error(capsys, argv, bad, 3)

    def test_exponent_demand_past_digit_bound(self, tmp_path, capsys, good):
        """A demand whose denominator would have 5001 digits, more than any
        report can print, is refused on every --demand subcommand."""
        hg, _, w = good
        bad = tmp_path / "bad.demand"
        bad.write_text("demand 1e-5000 1/2 1/2\n")
        for argv in _subcommands(hg, str(bad), w):
            if "--demand" in argv:
                self.assert_input_error(capsys, argv, bad, 1)

    def test_exponent_weight_past_digit_bound(self, tmp_path, capsys, good):
        """Such a weight is refused by `check --rule thm3` and also by
        `schedule --w`, which only checks the file."""
        hg, dem, _ = good
        bad = tmp_path / "bad.w"
        bad.write_text("0 1 1\n1 0 1e-5000\n1 1e-5000 0\n")
        for argv in _subcommands(hg, dem, str(bad)):
            if "--w" in argv:
                self.assert_input_error(capsys, argv, bad, 2)

    @pytest.fixture
    def huge(self, tmp_path):
        """The triangle with demands whose denominators have 1501 digits:
        every input fits int()'s 4300-digit bound, but some results do not."""
        hg = tmp_path / "t.hg"
        hg.write_text(TRIANGLE_FILE)
        dem = tmp_path / "huge.demand"
        d = [F(1, 10**1500 + k) for k in (1, 3, 7)]
        dem.write_text(format_demand_line(d) + "\n")
        return str(hg), str(dem), d

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [["check", "--rule", "cor4"], ["chi-f"], ["feasible"], ["symmetrize"]],
        ids=lambda argv: argv[-1],
    )
    def test_result_too_large_to_print(self, huge, capsys, argv, json_flag):
        hg, dem, _ = huge
        code, out, err = run(capsys, argv[0], hg, "--demand", dem, *argv[1:], *json_flag)
        assert (code, out) == (3, "")
        assert err == "error: a result has more than 4300 digits, too many to print\n"

    def test_other_value_errors_escape(self, good, monkeypatch):
        """Only the int-digits refusal becomes exit 3; any other ValueError
        is a bug and leaves main with its traceback."""

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "enumerate_independent_sets", boom)
        with pytest.raises(ValueError, match="^boom$"):
            main(["indep-sets", good[0]])

    def test_large_results_that_fit_still_print(self, huge, capsys):
        hg, dem, (d1, d2, d3) = huge
        code, out, _ = run(capsys, "check", hg, "--demand", dem, "--rule", "lemma1")
        assert code == 0
        assert out == f"link 1: {d1 + d3}\nlink 2: {d2 + d3}\nlink 3: {d2 + d3}\nHOLDS\n"
        code, out, _ = run(capsys, "schedule", hg, "--demand", dem)
        assert code == 0
        assert out == f"link 1: [0,{d1})\nlink 2: [0,{d2})\nlink 3: [{d2},{d2 + d3})\n"

    def test_failed_write_exits_2(self, good, capsys, monkeypatch):
        """The report is written inside main's fault handling: a reader
        that went away is an `error:` line and exit 2, not a traceback."""

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        hg, _, _ = good
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["indep-sets", hg])
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_no_traceback_from_the_module_entry_point(self, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_bytes(b"links 3\nedge 1 \xb2\n")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hypersched", "validate", str(bad)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {bad}:2: not UTF-8 (byte 0xb2)\n"

    def test_decimal_digits_still_accepted(self, tmp_path, capsys):
        """Labels in any decimal script parse as before."""
        hg = tmp_path / "arabic.hg"
        hg.write_text("links \u0663\nedge 1 2 \u0663\n")
        code, out, _ = run(capsys, "validate", str(hg))
        assert code == 0
        assert out == "OK: 3 links, 1 edges\n"
