"""In-process A/B timing of training steps between two trees of this repo.

    python tools/ab.py --parent REV --change REV|DIR --cfg toy|base \
        --seeds 6401 6402 --steps 600

Each side is a git revision or a directory. A revision is unpacked with
``git archive REV`` into a temporary directory, which needs no network,
writes no worktree metadata and is removed on exit; a directory is used as
it is (``--change`` defaults to this working tree). For each seed, one
``benchmarks/workloads.TrainSession`` is built per side, from that side's
``src`` and ``benchmarks``; both sides then run 5 untimed warm-up steps and
``--steps`` timed ones, alternating single steps on the same batch and
alternating which side goes first. Both sides share one process, so they
see the same host speed, which one-process-per-run benchmarks cannot give.

Prints one JSON object: per seed, the quartiles of each side's step time,
the change/parent ratio of the medians, the number of steps the change won,
and whether every per-step loss was equal (else the largest relative
difference). Run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARMUP_STEPS = 5
# Modules a side imports from its own src/ and benchmarks/; dropped from
# sys.modules before the next side loads, so each side gets its own code.
SIDE_MODULES = ("slu", "workloads", "synth", "spans", "stages", "reference")


def unpack(spec: str, scratch: Path) -> Path:
    """The tree of ``spec``: a directory as it is, else a git revision
    unpacked under ``scratch``."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", spec],
                             check=True, capture_output=True).stdout
    dest = Path(tempfile.mkdtemp(dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def load_session(tree: Path, cfg: str, seed: int):
    """A ``TrainSession`` built from ``tree``'s own modules. It keeps them
    alive through its functions' globals after they leave ``sys.modules``."""
    for name in list(sys.modules):
        if name.split(".")[0] in SIDE_MODULES:
            del sys.modules[name]
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks")]
    try:
        import workloads
        return workloads.TrainSession(tree / "configs" / f"{cfg}.cfg", seed)
    finally:
        del sys.path[:2]


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4, method="inclusive")


def compare(parent_tree: Path, change_tree: Path, cfg: str, seed: int, steps: int) -> dict:
    sides = {"parent": load_session(parent_tree, cfg, seed),
             "change": load_session(change_tree, cfg, seed)}
    times: dict[str, list[float]] = {"parent": [], "change": []}
    losses: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(WARMUP_STEPS + steps):
        batch = sides["parent"].next_batch()  # both sides step on this batch
        for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            start = time.perf_counter()
            losses[name].append(sides[name].step(batch))
            if i >= WARMUP_STEPS:
                times[name].append(time.perf_counter() - start)
    run = {
        "cfg": cfg,
        "seed": seed,
        "steps": steps,
        "parent_step_s_q": quartiles(times["parent"]),
        "change_step_s_q": quartiles(times["change"]),
        "ratio_median": statistics.median(times["change"]) / statistics.median(times["parent"]),
        "change_faster": sum(c < p for p, c in zip(times["parent"], times["change"])),
        "losses_equal": losses["parent"] == losses["change"],
    }
    if not run["losses_equal"]:
        run["max_rel_loss_diff"] = max(
            abs(p - c) / max(abs(p), abs(c), math.ulp(0.0))
            for p, c in zip(losses["parent"], losses["change"]))
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision or directory")
    parser.add_argument("--change", default=str(ROOT),
                        help="git revision or directory (default: this working tree)")
    parser.add_argument("--cfg", choices=("toy", "base"), default="toy")
    parser.add_argument("--seeds", type=int, nargs="+", default=[6401])
    parser.add_argument("--steps", type=int, default=600, help="timed steps per side and seed")
    args = parser.parse_args(argv)
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    with tempfile.TemporaryDirectory(prefix="slu-ab-") as scratch:
        parent = unpack(args.parent, Path(scratch))
        change = unpack(args.change, Path(scratch))
        runs = [compare(parent, change, args.cfg, seed, args.steps) for seed in args.seeds]
    print(json.dumps({"parent": args.parent, "change": args.change, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
