#!/usr/bin/env python3
"""Compare two revisions on the repository benchmark in alternating pairs.

Usage (from anywhere inside a checkout):

    python3 scripts/ab.py --base a0eb0b3 [--head .] \\
        [--workloads solo_decode,batch_decode] [--pairs 10] \\
        [--seconds 15] [--seed0 100] [--load K] [--work-dir DIR] \\
        [--json-out FILE]

Each revision is exported with `git archive` into its own directory
under --work-dir (default .ab in the checkout, which git ignores) and
built there with its own CARGO_TARGET_DIR; `--head .` (the default)
runs the checkout as it is, uncommitted changes included.  An export
is reused by later runs.  For every workload the script runs --pairs pairs through each
side's unchanged perfbench/run.py at --trace 0: pair i uses seed
seed0 + i on both sides, and the side that runs first alternates.

Per end-to-end metric of BENCHMARK.json it prints each side's median,
the base's interquartile range, how many pairs the head won (ties count
for neither) and a verdict:

    gain        at least 10 pairs, head better in >= 9/10 of them, and
                the medians differ by more than the base's IQR
    regression  head median worse than the base's by more than the
                metric's bound
    unresolved  the base's own IQR exceeds the bound, so "within bound"
                would claim more than the runs show
    within      none of the above

It also reports failed or incorrect runs and any pair whose transcript
digests differ between the sides (results must not depend on the code
change).

--load K starts K busy-loop processes for the whole measurement, the
loaded-host recipe, and always stops them before the script exits.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solo_decode", "batch_decode", "chat_fleet")
WORKTREE = "."


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT)] + list(args),
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def prepare(rev, work_dir):
    """Export and build @p rev; returns (label, source tree, run env)."""
    env = dict(os.environ)
    if rev == WORKTREE:
        label, tree = "worktree", ROOT
        build_dir = work_dir / "worktree-build"
    else:
        sha = git("rev-parse", "--verify", rev + "^{commit}")
        label = sha[:12]
        tree = work_dir / sha / "tree"
        build_dir = work_dir / sha / "build"
        if not (tree / "perfbench" / "run.py").exists():
            shutil.rmtree(tree, ignore_errors=True)
            tree.mkdir(parents=True)
            archive = subprocess.Popen(
                ["git", "-C", str(ROOT), "archive", sha],
                stdout=subprocess.PIPE)
            subprocess.run(["tar", "-x", "-C", str(tree)],
                           stdin=archive.stdout, check=True)
            archive.stdout.close()
            if archive.wait() != 0:
                raise RuntimeError("git archive {} failed".format(sha))
        # The export is no repository; keep git from finding the one
        # around --work-dir (run.py records `git rev-parse HEAD`).
        env["GIT_CEILING_DIRECTORIES"] = str(tree.parent)
    env["CARGO_TARGET_DIR"] = str(build_dir)
    log("ab: building {} in {}".format(label, build_dir))
    cmake_dir = build_dir / "perfbench"
    subprocess.run(["cmake", "-S", str(tree / "perfbench"), "-B",
                    str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(cmake_dir), "--target",
                    "hnbench", "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=subprocess.DEVNULL)
    return label, tree, env


def run_once(tree, env, workload, seed, seconds):
    """One perfbench run; returns (result line, transcript digest)."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(tree), env=env, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        log(proc.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0,
                "metrics": {}}, None
    return json.loads(lines[-1]), json.loads(lines[0]).get("digest")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(spec, base, head):
    """Summary row for one metric over paired runs."""
    lower = spec["better"] == "lower"
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, b_q3 = quartiles(base)
    iqr = b_q3 - b_q1
    wins = sum(1 for b, h in zip(base, head)
               if (h < b if lower else h > b))
    change = (h_med - b_med) / b_med if b_med else 0.0
    worse = change if lower else -change
    if len(base) >= 10 and wins >= 0.9 * len(base) and \
            abs(h_med - b_med) > iqr:
        word = "gain"
    elif worse > spec["bound"]:
        word = "regression"
    elif b_med and iqr / abs(b_med) > spec["bound"] and not (
            max(head) < min(base) if lower else min(head) > max(base)):
        word = "unresolved"
    else:
        word = "within"
    return {"metric": spec["name"], "unit": spec["unit"],
            "base_median": b_med, "head_median": h_med,
            "change": change, "base_q1": b_q1, "base_q3": b_q3,
            "wins": wins, "pairs": len(base), "verdict": word}


def measure(sides, workload, args, specs):
    runs = {"base": [], "head": []}
    digests_differ = 0
    for pair in range(args.pairs):
        seed = args.seed0 + pair
        order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
        digests = set()
        for role in order:
            label, tree, env = sides[role]
            result, digest = run_once(tree, env, workload, seed,
                                      args.seconds)
            runs[role].append(result)
            digests.add(digest)
            tok = result["metrics"].get("decode_tok_s", {}).get("value")
            log("ab: {} pair {} seed {} {} {}: decode_tok_s {}".format(
                workload, pair, seed, role, label, tok))
        if len(digests) != 1:
            digests_differ += 1
    rows = []
    for spec in specs:
        base = [r["metrics"].get(spec["name"], {}).get("value")
                for r in runs["base"]]
        head = [r["metrics"].get(spec["name"], {}).get("value")
                for r in runs["head"]]
        pairs = [(b, h) for b, h in zip(base, head)
                 if b is not None and h is not None]
        if pairs:
            rows.append(verdict(spec, [p[0] for p in pairs],
                                [p[1] for p in pairs]))
    bad = {label: sum(1 for r in rs if not r["correct"] or r["failed"])
           for label, rs in runs.items()}
    return {"workload": workload, "pairs": args.pairs, "rows": rows,
            "runs": runs,
            "bad_runs": bad, "pairs_with_digest_mismatch": digests_differ}


def print_report(report, base_label, head_label):
    print("\n== {} ({} pairs; base {}, head {})".format(
        report["workload"], report["pairs"], base_label, head_label))
    print("{:<18} {:>11} {:>11} {:>8} {:>23} {:>6}  {}".format(
        "metric", "base p50", "head p50", "change", "base IQR", "wins",
        "verdict"))
    for r in report["rows"]:
        print("{:<18} {:>11.4g} {:>11.4g} {:>+7.1%} {:>11.4g}-{:<11.4g} "
              "{:>3}/{:<2}  {}".format(
                  r["metric"], r["base_median"], r["head_median"],
                  r["change"], r["base_q1"], r["base_q3"], r["wins"],
                  r["pairs"], r["verdict"]))
    print("bad runs: {}; pairs with differing digests: {}".format(
        report["bad_runs"], report["pairs_with_digest_mismatch"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", default=WORKTREE)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--load", type=int, default=0)
    parser.add_argument("--work-dir", default=str(ROOT / ".ab"))
    parser.add_argument("--json-out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if any(w not in WORKLOADS for w in workloads) or args.pairs < 1 or \
            args.seconds <= 0 or args.seed0 < 0 or args.load < 0:
        parser.error("bad --workloads, --pairs, --seconds, --seed0 or "
                     "--load")
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    work_dir = Path(args.work_dir).resolve()
    work_dir.mkdir(parents=True, exist_ok=True)
    sides = {"base": prepare(args.base, work_dir),
             "head": prepare(args.head, work_dir)}

    load = []
    try:
        for _ in range(args.load):
            load.append(subprocess.Popen(
                [sys.executable, "-c", "while True: pass"]))
        reports = [measure(sides, w, args, specs) for w in workloads]
    finally:
        for proc in load:
            proc.kill()
        for proc in load:
            proc.wait()

    for report in reports:
        print_report(report, sides["base"][0], sides["head"][0])
    if args.json_out:
        Path(args.json_out).write_text(json.dumps({
            "base": sides["base"][0], "head": sides["head"][0],
            "seconds": args.seconds, "seed0": args.seed0,
            "load": args.load, "workloads": reports}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
