"""Alternating parent/change benchmark pairs, summarised as ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py LABEL PARENT [--seed0 N] [--what TEXT]

Run from anywhere inside the repository; the change is ``HEAD``.  Both
revisions are exported with ``git archive`` into a temporary directory, so
each side runs the committed files only, from a clean tree, and the
repository's checkout and worktree list are left as they are.  For each of
ten pairs i, with seed ``seed0 + i``, each workload of ``BENCHMARK.json``
runs once per side as

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

in that side's tree (T is ``run_seconds``), the parent first in even pairs
and the change first in odd ones.  The summary holds, per workload and
end-to-end metric, each side's median and quartiles, the pairs in which
the change is better, whether the change's median is within the metric's
bound, and whether the metric is resolved at all: a metric whose
interquartile range on either side exceeds its bound, relative to that
side's median, is too noisy to judge.  It is rewritten after every pair,
so an interrupted run leaves the pairs it finished.

The script reads ``bench/`` and ``BENCHMARK.json`` and writes only the
summary and its temporary trees.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # a gain needs the change better in nine of at least ten pairs


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(root: Path, rev: str, dest: Path) -> None:
    """The committed files of ``rev``, unpacked into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=root, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # before Python 3.11.4
            tar.extractall(dest)
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds) -> dict:
    """The last stdout line of one benchmark run, or a record of its failure."""
    argv = [*command, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v, "iqr": 0.0 if values else None}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6), "iqr": round(q3 - q1, 6)}


def summarise(metric: dict, runs: dict) -> dict:
    """One metric over the finished pairs; a pair with a failed run is skipped."""
    name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
    pairs = [
        (p["metrics"][name]["value"], c["metrics"][name]["value"])
        for p, c in zip(runs["parent"], runs["change"])
        if "metrics" in p and "metrics" in c
    ]
    values = {side: [pair[i] for pair in pairs] for i, side in enumerate(SIDES)}
    stats = {side: quartiles(values[side]) for side in SIDES}
    out = {"unit": metric["unit"], "better": metric["better"], **stats}
    if not pairs:
        return out
    better = sum((c < p) if lower else (c > p) for p, c in pairs)
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    ratio = change / parent if parent else None
    within = change <= parent * (1 + bound) if lower else change >= parent * (1 - bound)
    spread = max(
        (s["iqr"] / abs(s["median"]) if s["median"] else 0.0) for s in stats.values()
    )
    out.update(
        change_better_in=f"{better}/{len(pairs)}",
        change_over_parent=None if ratio is None else round(ratio, 4),
        bound=bound,
        within_bound=within,
        relative_spread=round(spread, 4),
        resolved=spread <= bound,
        runs=values,
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("parent", help="the parent revision")
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--what", default="", help="one line on what the change does")
    args = ap.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    shas = {side: git(root, "rev-parse", rev) for side, rev in zip(SIDES, (args.parent, "HEAD"))}
    command = [*spec["command"], "--workload W --seed S", f"--seconds {spec['run_seconds']} --trace 0"]
    out_path = root / f"BENCH_{args.label}.json"
    seeds = [args.seed0 + i for i in range(PAIRS)]
    order = [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(PAIRS)]
    results = {w: {side: [] for side in SIDES} for w in names}

    def write(done: int) -> None:
        workloads = {}
        for w in names:
            runs = results[w]
            workloads[w] = {
                "pairs": done,
                "seeds": seeds[:done],
                "first_side": [o[0] for o in order[:done]],
                "attempted": {s: sum(r.get("attempted", 0) for r in runs[s]) for s in SIDES},
                "failed_requests": {s: sum(r.get("failed", 0) for r in runs[s]) for s in SIDES},
                "failed_runs": {s: [r["error"] for r in runs[s] if "error" in r] for s in SIDES},
                "all_outputs_correct": all(r.get("correct") for s in SIDES for r in runs[s]),
                "metrics": {m["name"]: summarise(m, runs) for m in spec["end_to_end"]},
            }
        summary = {
            "label": args.label,
            "what": args.what,
            "parent_sha": shas["parent"],
            "change_sha": shas["change"],
            "command": " ".join(command),
            "method": (
                f"{PAIRS} alternating parent/change pairs per workload (parent first "
                "in even pairs, change first in odd ones), each side run from its own "
                "`git archive` of the committed files; in each pair the workloads run in "
                "BENCHMARK.json order; medians and quartiles by statistics.quantiles "
                "(inclusive); change_better_in counts pairs where the change is better in "
                "the metric's direction; within_bound compares the medians by the "
                "metric's relative bound; relative_spread is the larger side's "
                "interquartile range over its median, and a metric is resolved only "
                "when that spread is within its bound"
            ),
            "environment": {
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
            },
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "workloads": workloads,
        }
        out_path.write_text(json.dumps(summary, indent=1) + "\n")

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: scratch / side for side in SIDES}
        for side in SIDES:
            export(root, shas[side], trees[side])
        for i, seed in enumerate(seeds):
            for w in names:
                for side in order[i]:
                    start = time.monotonic()
                    result = run_once(trees[side], spec["command"], w, seed, spec["run_seconds"])
                    results[w][side].append(result)
                    status = result.get("error", f"{result.get('failed', '?')} failed")
                    took = time.monotonic() - start
                    print(f"pair {i + 1}/{PAIRS} {w} {side}: {status}, {took:.0f} s", file=sys.stderr)
            write(i + 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(out_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
