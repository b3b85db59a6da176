"""Compare the working tree against a parent revision in alternating pairs.

    python3 tools/bench_pairs.py --parent <rev> --workload paper --pairs 10

Checks ``<rev>`` out into a detached ``git worktree`` under
``.perfbench-work/``, then runs
``perfbench/run.py --workload W --seed i --seconds 12 --trace 0`` once in
that checkout and once in this one for each pair ``i = 1..N``, the parent
first in odd pairs and the working tree first in even ones, so drift of
the host over the session lands on both sides alike.  For every
end-to-end metric it prints each side's median and quartiles
``[q1, q3]``, the ratio of the medians (change / parent) and in how many
pairs the change read lower, then every pair's two values.  A run that
prints no result or an incorrect one is counted and reported, and its
pair is left out of the table.

Everything it writes lives under ``.perfbench-work/``, and it removes
the worktree (and the directory, once empty) when it ends.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One perfbench run in ``checkout``: its JSON result, or ``None``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def table(results: dict[str, list[dict | None]]) -> list[str]:
    """The comparison table (one line per metric), then the per-pair values."""
    pairs = [
        (p, c) for p, c in zip(results["parent"], results["change"])
        if p is not None and c is not None and p["correct"] and c["correct"]
    ]
    lines = [
        f"pairs with two correct runs: {len(pairs)}/{len(results['parent'])}",
        f"{'metric':<14s} {'parent median [q1, q3]':>32s} "
        f"{'change median [q1, q3]':>32s} {'ratio':>7s}  change lower",
    ]
    if not pairs:
        return lines
    per_pair = []
    for name, entry in pairs[0][0]["metrics"].items():
        unit = entry["unit"]
        cells = []
        sides = {}
        for i, side in enumerate(SIDES):
            values = [pair[i]["metrics"][name]["value"] for pair in pairs]
            sides[side] = values
            q1, med, q3 = _quartiles(values)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {unit}")
        parent_med = statistics.median(sides["parent"])
        ratio = statistics.median(sides["change"]) / parent_med if parent_med else float("nan")
        lower = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        lines.append(
            f"{name:<14s} {cells[0]:>32s} {cells[1]:>32s} {ratio:>7.3f}  {lower}/{len(pairs)}"
        )
        per_pair.append(
            f"{name} per pair (parent/change): "
            + " ".join(f"{p:.4g}/{c:.4g}" for p, c in zip(sides["parent"], sides["change"]))
        )
    return lines + per_pair


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    rev = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    WORK.mkdir(exist_ok=True)
    parent = Path(tempfile.mkdtemp(prefix=f"parent-{rev[:10]}-", dir=WORK))
    _git("worktree", "add", "--detach", "--force", str(parent), rev)
    checkouts = {"parent": parent, "change": ROOT}
    results: dict[str, list[dict | None]] = {side: [] for side in SIDES}
    try:
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                out = _run(checkouts[side], args.workload, seed, args.seconds)
                results[side].append(out)
                verdict = "no result" if out is None else (
                    "correct" if out["correct"] else "INCORRECT"
                )
                print(f"pair {seed} {side}: {verdict}", file=sys.stderr, flush=True)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(parent)],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(parent, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print(f"workload {args.workload}: parent {rev[:10]} vs working tree")
    for line in table(results):
        print(line)
    failed = {
        side: sum(r is None or not r["correct"] for r in runs)
        for side, runs in results.items()
    }
    for side, n in failed.items():
        if n:
            print(f"{side}: {n} run(s) without a correct result")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
