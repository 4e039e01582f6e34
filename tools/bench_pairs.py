#!/usr/bin/env python3
"""Paired parent/change runs of the repo benchmark (BENCHMARK.json).

    tools/bench_pairs.py <rev> [--workload W] [--pairs 10] [--seed 1] [--trace 0]

Exports the committed files of <rev> (`git archive`, so nothing is left in
`.git`) next to the working tree, runs the BENCHMARK.json command on both,
alternating which side goes first, and prints per metric each side's
median and quartiles, the pairs the change won, and whether that is a
gain by the rule in benchmark/README.md: at least nine tenths of the pairs
won (ties count for neither side) and the medians further apart than the
parent's own quartile distance. The same rule the other way round reads
"worse"; an end-to-end median worse by more than its BENCHMARK.json bound
reads "REGRESSION". Also checks that every run printed the same
`report_fnv64` (same simulation) and reports failed operations.

Each side builds into its own target directory under --dir (default
$TMPDIR/lumina-bench-pairs), outside the repository; the first run of a
side pays its build before the benchmark starts any clock.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev, into):
    """The committed files of `rev`, freshly extracted under `into`."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    tree = os.path.join(into, "parent-" + sha[:12])
    if not os.path.isdir(tree):
        # Extract beside, then rename: a half-extracted tree is never reused.
        partial = tree + ".partial"
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit("git archive failed")
        os.rename(partial, tree)
    return tree


def run_once(command, tree, target, args):
    """One benchmark run: (metrics, report_fnv64, attempted, failed)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    out = subprocess.run(command + args, cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"benchmark failed in {tree} (exit {out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    fnv = re.search(r"report_fnv64 ([0-9a-f]{16})", out.stderr)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, fnv.group(1) if fnv else None, result["attempted"], result["failed"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("rev", help="the parent commit to compare the working tree against")
    ap.add_argument("--workload", default="run_timers")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--dir", default=os.path.join(tempfile.gettempdir(), "lumina-bench-pairs"))
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    lower_is_better = {
        m["name"]: m["better"] == "lower" for m in bench["end_to_end"] + bench["per_layer"]
    }
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(bench["run_seconds"]), "--trace", opts.trace]
    sides = {
        "parent": (export(opts.rev, opts.dir), os.path.join(opts.dir, "target-parent")),
        "change": (ROOT, os.path.join(opts.dir, "target-change")),
    }

    runs = {"parent": [], "change": []}
    for pair in range(opts.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            tree, target = sides[side]
            runs[side].append(run_once(bench["command"], tree, target, args))
            metrics = runs[side][-1][0]
            shown = "  ".join(f"{k} {v:.3f}" for k, v in metrics.items() if k in bound)
            shown = shown or f"{len(metrics)} per-layer metrics"
            print(f"pair {pair + 1:>2} {side:<6} {shown}", file=sys.stderr, flush=True)

    print(f"{opts.workload}, seed {opts.seed}, {opts.pairs} pairs, parent {opts.rev}")
    print(f"{'metric':<44}{'parent q1/med/q3':>36}{'change q1/med/q3':>36}  wins  delta   verdict")
    for name in runs["parent"][0][0]:
        p = [r[0][name] for r in runs["parent"]]
        c = [r[0][name] for r in runs["change"]]
        sign = 1 if lower_is_better.get(name, True) else -1
        wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(p, c))
        losses = sum(sign * (pv - cv) < 0 for pv, cv in zip(p, c))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(p), quartiles(c)
        gained = sign * (pmed - cmed)
        delta = f"{(cmed - pmed) / pmed * 100:+.1f}%" if pmed else "n/a"
        if wins * 10 >= opts.pairs * 9 and gained > pq3 - pq1:
            verdict = "gain"
        elif name in bound and -gained > bound[name] * pmed:
            verdict = f"REGRESSION (bound {bound[name]:.0%})"
        elif losses * 10 >= opts.pairs * 9 and -gained > pq3 - pq1:
            verdict = f"worse, within the {bound[name]:.0%} bound" if name in bound else "worse"
        else:
            verdict = "-"
        print(f"{name:<44}{pq1:>12.3f}{pmed:>12.3f}{pq3:>12.3f}{cq1:>12.3f}{cmed:>12.3f}{cq3:>12.3f}"
              f"  {wins:>2}/{opts.pairs:<2} {delta:>7}  {verdict}")

    for side in ("parent", "change"):
        attempted = sum(r[2] for r in runs[side])
        failed = sum(r[3] for r in runs[side])
        print(f"{side}: {failed} of {attempted} operations failed")
    fnvs = {r[1] for side in runs.values() for r in side}
    same = len(fnvs) == 1
    if fnvs == {None}:
        print("report_fnv64: not printed by traced runs (each checks its walk against the CLI itself)")
    else:
        print(f"report_fnv64: {'equal on every run' if same else 'DIFFERS'} ({', '.join(sorted(map(str, fnvs)))})")
    if opts.pairs < 10:
        print("fewer than ten pairs: the verdicts are indications, not claims")
    failed_any = any(r[3] for side in runs.values() for r in side)
    sys.exit(0 if same and not failed_any else 1)


if __name__ == "__main__":
    main()
