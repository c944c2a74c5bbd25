"""Smoke test for ``tools/ab.py``, the in-process A/B timing harness.

The tool runs in a subprocess, because it swaps the ``slu`` modules in
``sys.modules`` for each side it loads."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_of_the_working_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--cfg", "toy", "--seeds", "3", "--steps", "5"],
        capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(proc.stdout)
    (run,) = report["runs"]
    assert set(run) == {"cfg", "seed", "steps", "parent_step_s_q", "change_step_s_q",
                        "ratio_median", "change_faster", "losses_equal"}
    assert (run["cfg"], run["seed"], run["steps"]) == ("toy", 3, 5)
    assert run["losses_equal"] is True
    assert math.isfinite(run["ratio_median"]) and run["ratio_median"] > 0
    assert 0 <= run["change_faster"] <= 5
    for side in ("parent_step_s_q", "change_step_s_q"):
        q25, q50, q75 = run[side]
        assert 0 < q25 <= q50 <= q75
