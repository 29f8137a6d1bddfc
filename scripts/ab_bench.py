#!/usr/bin/env python3
"""A/B the benchmark between two git revisions, in alternating pairs.

Usage:
    python3 scripts/ab_bench.py --base 67907f6 --head HEAD --seeds 1-10 \\
        --trace-seed 2 --name scan

Each side is a fresh copy of its revision: `git archive <rev>` unpacked into
a temporary directory, or, for `--head WORKTREE`, the tracked and untracked
(not ignored) files of the working tree. Nothing is written into `.git`.
The command, the run length and the workloads come from the base side's
BENCHMARK.json, so both sides run exactly what the benchmark runs. Per
workload and seed, one pair runs the command with `--trace 0` on both sides;
pair i runs the base first when i is even, the head first when it is odd.
With `--trace-seed`, each side then makes one traced run (`--trace 1`) per
workload at that seed.

Writes `BENCH_<name>.json` at the repository root: both revisions and shas,
`nproc`, run length, and per workload the seeds, every run's metrics and
exit code, each side's median and quartiles per end-to-end metric, the pairs
each side won (ties count for neither, directions from BENCHMARK.json), and
the traced runs' per-layer metrics. Against each metric's `bound` in
BENCHMARK.json it states the no-regression rule: `worse_than_bound` when the
head's median is worse than the base's by more than the bound (relative to
the base's median), and `spread_wider_than_bound` when the base's quartile
spread divided by its median is above the bound, so the metric is unresolved
rather than unchanged.
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"


def git(*args: str, binary: bool = False):
    out = subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True)
    return out.stdout if binary else out.stdout.decode().strip()


def checkout(rev: str, into: Path) -> str:
    """Copy `rev` into `into`; return its sha (the working tree's is HEAD's
    sha plus a digest of its diff against HEAD)."""
    into.mkdir(parents=True)
    if rev == WORKTREE:
        files = git("ls-files", "-co", "--exclude-standard", "-z", binary=True).split(b"\0")
        for f in filter(None, files):
            src = ROOT / f.decode()
            if src.is_file():
                dst = into / f.decode()
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dst)
        diff = git("diff", "HEAD", binary=True)
        untracked = git("ls-files", "-o", "--exclude-standard", "-z", binary=True)
        digest = hashlib.sha256(diff + untracked).hexdigest()[:12]
        return f"{git('rev-parse', 'HEAD')}+worktree-{digest}"
    sha = git("rev-parse", f"{rev}^{{commit}}")
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha, binary=True))) as tar:
        tar.extractall(into, filter="data")
    return sha


def run_bench(tree: Path, bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    ok = proc.returncode == 0 and isinstance(result, dict)
    run = {"seed": seed, "exit": proc.returncode, "wall_s": round(time.time() - t0, 1)}
    if ok:
        run.update(correct=result["correct"], attempted=result["attempted"],
                   failed=result["failed"],
                   metrics={k: v["value"] for k, v in result["metrics"].items()})
    else:
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return run


def quartiles(xs: list) -> dict:
    if len(xs) < 2:
        return {"median": xs[0] if xs else None, "q1": None, "q3": None}
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs: list, end_to_end: list) -> dict:
    out = {}
    for m in end_to_end:
        metric, better, bound = m["name"], m["better"], m["bound"]
        both = [(p["base"]["metrics"][metric], p["head"]["metrics"][metric]) for p in pairs
                if "metrics" in p["base"] and "metrics" in p["head"]]
        if not both:
            continue
        sign = 1 if better == "higher" else -1
        head_wins = sum(1 for b, h in both if sign * (h - b) > 0)
        base_wins = sum(1 for b, h in both if sign * (b - h) > 0)
        base = quartiles([b for b, _ in both])
        head = quartiles([h for _, h in both])
        gain = spread = None
        if base["q1"] is not None:
            gain = sign * (head["median"] - base["median"]) > base["q3"] - base["q1"]
            if base["median"]:
                spread = (base["q3"] - base["q1"]) / abs(base["median"]) > bound
        change = (head["median"] - base["median"]) / base["median"] if base["median"] else None
        out[metric] = {
            "better": better, "bound": bound, "pairs": len(both), "head_wins": head_wins,
            "base_wins": base_wins, "base": base, "head": head,
            "median_change": change,
            "head_beats_base_iqr": gain,
            "worse_than_bound": None if change is None else -sign * change > bound,
            "spread_wider_than_bound": spread,
        }
    return out


def parse_seeds(spec: str) -> list:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--head", required=True, help=f"git revision of the change, or {WORKTREE}")
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5-7; one pair per seed")
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="seed of one traced run per side and workload")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)

    work = Path(tempfile.mkdtemp(prefix="ab-bench-"))
    try:
        trees = {"base": work / "base", "head": work / "head"}
        shas = {side: checkout(rev, trees[side])
                for side, rev in (("base", args.base), ("head", args.head))}
        bench = json.loads((trees["base"] / "BENCHMARK.json").read_text())

        report = {
            "name": args.name,
            "base": {"rev": args.base, "sha": shas["base"]},
            "head": {"rev": args.head, "sha": shas["head"]},
            "nproc": len(os.sched_getaffinity(0)),
            "command": bench["command"],
            "seconds": bench["run_seconds"],
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workloads": {},
        }
        for wl in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], bench, wl, seed, 0)
                    m = pair[side].get("metrics", {})
                    print(f"{wl} seed {seed} {side}: exit {pair[side]['exit']} "
                          f"query_ms_p50 {m.get('query_ms_p50')}", flush=True)
                pairs.append(pair)
            entry = {"seeds": seeds, "pairs": pairs, "summary": summarize(pairs, bench["end_to_end"])}
            if args.trace_seed is not None:
                entry["traced"] = {"seed": args.trace_seed}
                for side in ("base", "head"):
                    entry["traced"][side] = run_bench(trees[side], bench, wl,
                                                      args.trace_seed, 1)
                    print(f"{wl} traced seed {args.trace_seed} {side}: "
                          f"exit {entry['traced'][side]['exit']}", flush=True)
            report["workloads"][wl] = entry
            out = ROOT / f"BENCH_{args.name}.json"
            out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
