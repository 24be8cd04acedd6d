"""The bundled scripts run end to end and report success; the worst-case demo
prints a pinned report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT = """\
hypergraph: 7 links, edges {1,2,3,4} and {1,5,6,7}
demand:     demand 1/2 1 1 1/2 1 1 1/2

chi_f = 1  (feasible: an optimal schedule fits in one unit of time)
  1 2 3 5 6 : 1/2
  2 3 4 5 6 7 : 1/2

per-link bound B = 13/6  (at the center: 13/6)
degree estimate Delta = 2
=> the bound overshoots a feasible demand by more than Delta: 13/6 > 2

the exact worst-case ratio, four ways:
  interference degree sigma     = 7/3
  enumeration over demands      = 7/3
  star closed form              = 7/3
  schedule-family LP            = 7/3

worst-case 0/1 demand: demand 1 1 1 0 1 1 0
symmetrized over the 72 automorphisms: demand 1 2/3 2/3 2/3 2/3 2/3 2/3

greedy run for demand 1/4 1/4 1/4 1/4 1/4 1/4 1/4 (condition holds: True)
  link 1: [0,1/4)
  link 2: [0,1/4)
  link 3: [0,1/4)
  link 4: [1/4,1/2)
  link 5: [0,1/4)
  link 6: [0,1/4)
  link 7: [1/4,1/2)
  -> converts to a valid schedule
"""


def run_script(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize(
    "argv",
    [["scripts/random_cross_check.py", "--count", "30"], ["scripts/worst_case_demo.py"]],
)
def test_script_exits_zero(argv):
    run = run_script(argv)
    assert run.returncode == 0, run.stdout + run.stderr


def test_worst_case_demo_stdout():
    run = run_script(["scripts/worst_case_demo.py"])
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == DEMO_STDOUT
