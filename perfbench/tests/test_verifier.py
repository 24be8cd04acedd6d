"""Self-test of the benchmark's output verifier and failure counting.

    python3 -m pytest perfbench/tests -q

Real ``hypersched`` outputs must be accepted; corrupted outputs (an edge
fully active, a dependent witness set, a wrong per-link sum, ...) must be
rejected and counted as failed calls by the closed loop, so a failure count
of zero means every output was checked correct.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from generate import Instance, independent_set_counts, ones_rows, random_antichain, star, write_instance  # noqa: E402
from verify import Rejected, verify  # noqa: E402
from workloads import WORKLOADS, Call, record_properties  # noqa: E402

from hypersched import cli  # noqa: E402

TRIANGLE = Instance("triangle", 3, [(0, 1, 2)], [Fraction(1, 2)] * 3)
PATH = Instance("path", 4, [(0, 1), (1, 2), (2, 3)], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)])
PATH_W = Instance("path_w", 4, PATH.edges, PATH.demand, ones_rows(4, PATH.edges))


def _star(petals, demand=None):
    n, edges = star(petals)
    inst = Instance("star", n, edges, demand or [Fraction(1, 2)] * n, props={"star": True})
    record_properties([Call("star", inst)])
    return inst


def set_argv(tmp_path, call):
    """Write the call's instance files and give it the benchmark's argv."""
    call.argv = run.build_argv(call, write_instance(call.inst, tmp_path))


def real_output(tmp_path, call):
    """Run the real CLI on ``call``; returns (exit code, stdout)."""
    set_argv(tmp_path, call)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(call.argv)
    return code, out.getvalue()


def counted(call, code, stdout):
    """Feed a fixed (code, stdout) through the closed loop; returns the
    loop result, whose ``failed`` must count a rejected output."""
    call.argv = ["ignored"]

    def fake_main(argv):
        print(stdout, end="")
        return code

    return run.closed_loop(fake_main, [call], 0, run.Checker())


GOOD = [
    Call("chi-f", PATH),
    Call("feasible", PATH),
    Call("check", PATH, {"rule": "lemma1"}),
    Call("check", PATH, {"rule": "cor4"}),
    Call("schedule", PATH),
    Call("check", PATH_W, {"rule": "thm3", "w": "ones"}),
    Call("schedule", PATH_W, {"w": "ones"}),
    Call("metrics", PATH),
    Call("beta", PATH),
    Call("chi-f", TRIANGLE),
    Call("schedule", TRIANGLE),
]


@pytest.mark.parametrize("call", GOOD, ids=lambda c: f"{c.command}-{c.inst.name}-{c.opts}")
def test_real_outputs_are_accepted(tmp_path, call):
    code, stdout = real_output(tmp_path, call)
    verify(call.command, call.inst, call.opts, code, stdout)
    res = counted(call, code, stdout)
    assert (res.attempted, res.failed) == (1, 0)


def test_star_outputs_are_accepted(tmp_path):
    inst = _star((3, 3, 4))
    for command in ("star", "beta", "symmetrize"):
        code, stdout = real_output(tmp_path, Call(command, inst))
        verify(command, inst, {}, code, stdout)


def _corruptions(tmp_path):
    """(name, call, exit code, corrupted stdout)."""
    half = "1/2"
    out = []
    # Every link of the triangle's single edge active on [0, 1/2).
    out.append(
        (
            "edge fully active",
            Call("schedule", TRIANGLE),
            0,
            json.dumps({"intervals": [{"link": i, "intervals": [["0", half]]} for i in (1, 2, 3)]}),
        )
    )
    # The whole edge as one witness set: coverage and total are right.
    out.append(
        (
            "dependent witness set",
            Call("chi-f", TRIANGLE),
            0,
            json.dumps({"chi_f": half, "schedule": [{"set": [1, 2, 3], "duration": half}]}),
        )
    )
    for inst, rule in ((PATH, "lemma1"), (PATH, "cor4"), (PATH_W, "thm3")):
        call = Call("check", inst, {"rule": rule, "w": "ones"} if inst is PATH_W else {"rule": rule})
        code, stdout = real_output(tmp_path, call)
        rep = json.loads(stdout)
        rep["per_link"][2] = str(Fraction(rep["per_link"][2]) + Fraction(1, 24))
        out.append((f"wrong {rule} per-link sum", call, code, json.dumps(rep)))
    call = Call("feasible", PATH)
    code, stdout = real_output(tmp_path, call)
    out.append(("feasible exit code flipped", call, 1 - code, stdout))
    call = Call("metrics", PATH)
    code, stdout = real_output(tmp_path, call)
    rep = json.loads(stdout)
    rep["per_link"][0]["witness_prime"] = [3]
    out.append(("metrics witness outside the neighbors", call, code, json.dumps(rep)))
    # Link 1 plus both other triangle links is the whole edge; the weight
    # 1 + 1/2 + 1/2 is made to match so only the dependence is wrong.
    call = Call("metrics", TRIANGLE)
    code, stdout = real_output(tmp_path, call)
    rep = json.loads(stdout)
    rep["per_link"][0]["witness_doubleprime"] = [2, 3]
    rep["per_link"][0]["delta_doubleprime"] = "2"
    out.append(("dependent metrics witness", call, code, json.dumps(rep)))
    call = Call("beta", PATH)
    code, stdout = real_output(tmp_path, call)
    rep = json.loads(stdout)
    rep["beta"] = str(Fraction(rep["beta"]) + 1)
    out.append(("beta differs from sigma", call, code, json.dumps(rep)))
    inst = _star((3, 3, 4))
    call = Call("star", inst)
    code, stdout = real_output(tmp_path, call)
    rep = json.loads(stdout)
    rep["beta"] = str(Fraction(rep["beta"]) + Fraction(1, 3))
    out.append(("star value off the closed form", call, code, json.dumps(rep)))
    call = Call("symmetrize", inst)
    code, stdout = real_output(tmp_path, call)
    rep = json.loads(stdout)
    rep["demand"][0] = "0" if rep["demand"][0] != "0" else "1"
    out.append(("symmetrize changed the total", call, code, json.dumps(rep)))
    out.append(("STUCK although the condition holds", Call("schedule", TRIANGLE), 1, json.dumps({"stuck_at": 1})))
    out.append(("not JSON", Call("chi-f", PATH), 0, "chi_f = 1"))
    return out


def test_each_corruption_is_rejected_and_counted(tmp_path):
    cases = _corruptions(tmp_path)
    assert len(cases) >= 10
    for name, call, code, stdout in cases:
        with pytest.raises(Rejected):
            verify(call.command, call.inst, call.opts, code, stdout)
        res = counted(call, code, stdout)
        assert (res.attempted, res.failed) == (1, 1), name


def test_raising_call_is_counted():
    def boom(argv):
        raise RuntimeError("escaped")

    call = Call("chi-f", PATH, argv=["x"])
    res = run.closed_loop(boom, [call], 0, run.Checker())
    assert (res.attempted, res.failed) == (1, 1)


def test_feasible_disagreeing_with_chi_f_is_counted(tmp_path):
    """On the 5-cycle with demand 1/2, chi_f = 5/4.  A `feasible` report of
    3/2 passes every bound the verifier derives alone (1 <= chi_f <= 5/2)
    and agrees with its exit code; only the agreement with the `chi-f` call
    on the same instance, whose witness is checked, rejects it."""
    cycle = Instance("cycle", 5, [(i, (i + 1) % 5) for i in range(5)], [Fraction(1, 2)] * 5)
    chi, feasible = Call("chi-f", cycle), Call("feasible", cycle)
    outputs = {"chi-f": real_output(tmp_path, chi), "feasible": real_output(tmp_path, feasible)}
    assert Fraction(json.loads(outputs["feasible"][1])["chi_f"]) == Fraction(5, 4)

    def fake_main(argv):
        code, stdout = outputs[argv[0]]
        print(stdout, end="")
        return code

    res = run.closed_loop(fake_main, [chi, feasible], 0, run.Checker())
    assert (res.attempted, res.failed) == (2, 0)
    outputs["feasible"] = (1, json.dumps({"feasible": False, "chi_f": "3/2"}))
    verify("feasible", cycle, {}, *outputs["feasible"])
    res = run.closed_loop(fake_main, [chi, feasible], 0, run.Checker())
    assert (res.attempted, res.failed) == (2, 1)


def test_every_feasible_call_has_a_chi_f_call():
    calls = WORKLOADS["chi_f_lp"](random.Random("chi_f_lp:1"), BENCH.parent / "data")
    feasible = [c.inst for c in calls if c.command == "feasible"]
    assert feasible and all(Call("chi-f", inst).key in {c.key for c in calls} for inst in feasible)


def test_independent_set_counts_match_brute_force():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(4, 9)
        edges = random_antichain(rng, n, n // 2 + 1, sizes=(2, 3))
        indep = {s for s in range(1 << n) if not any(all(s >> v & 1 for v in e) for e in edges)}
        maximal = [s for s in indep if all(s | (1 << v) not in indep for v in range(n) if not s >> v & 1)]
        assert independent_set_counts(n, edges) == (len(indep), len(maximal))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    def snapshot(seed):
        calls = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), BENCH.parent / "data")
        return [(c.command, c.inst.name, c.inst.edges, c.inst.demand, c.opts) for c in calls]

    assert snapshot(5) == snapshot(5)
    assert snapshot(5) != snapshot(6)


def test_metric_names_match_benchmark_json(tmp_path):
    """Both run modes print exactly the metrics BENCHMARK.json declares."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    calls = [Call("chi-f", PATH), Call("schedule", PATH), Call("beta", PATH)]
    for call in calls:
        set_argv(tmp_path, call)
    res, checker, metrics, _ = run.end_to_end(cli, calls, 0, 0.5)
    assert not checker.failures and res.failed == 0
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    res, checker, metrics, _ = run.traced(cli, calls, 0)
    assert not checker.failures and res.failed == 0
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["lp.solve_calls"] == (1, "count")
    assert metrics["greedy.links_placed"] == (4, "count")
