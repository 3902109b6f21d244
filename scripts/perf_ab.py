#!/usr/bin/env python3
"""Interleaved perfbench A/B between two git revisions.

    python3 scripts/perf_ab.py BASE [CHANGE] --workload npb-is,npb-cg \
        --seed 42,7919 --runs 10 --seconds 6 \
        [--metrics host_wall_s,sim_mips] [--workdir DIR] [--json out.json]

Exports each revision with `git archive` into WORKDIR/src-{base,change}
(CHANGE defaults to the working tree as it is, uncommitted edits
included) and runs perfbench/run.py there with CARGO_TARGET_DIR set to
WORKDIR/build-{base,change}, so the two builds never share a tree.
--workload and --seed take comma-separated lists; each (workload,
seed) pair is one block, run to the end before the next starts. A
block opens with one untimed pair per side (--seconds 0), which
builds, warms up and checks `correct`. Then N timed runs of each side
alternate, swapping which side goes first each round. For each metric
it prints every round's pair of values, each side's median and
interquartile range, and the rounds the change won. It ends with one
markdown table of every block: base -> change medians, the base's
IQR and the rounds won.
It exits 1 if a run fails or the two sides disagree on a simulated
metric (every metric reported in Mcycles, kcycles or cycles).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIMULATED_UNITS = ("Mcycles", "kcycles", "cycles")
HIGHER_IS_BETTER = ("sim_mips", "fused_speedup")


def export(rev, dest):
    """Materialise @p rev (None: the working tree) under @p dest."""
    os.makedirs(dest, exist_ok=True)
    if rev is None:
        files = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], cwd=REPO, check=True,
            stdout=subprocess.PIPE).stdout.split(b"\0")
        files = [f for f in files if f and os.path.isfile(
            os.path.join(REPO, f.decode()))]
        tar = subprocess.Popen(["tar", "-c", "--null", "-T", "-"],
                               cwd=REPO, stdin=subprocess.PIPE,
                               stdout=subprocess.PIPE)
    else:
        tar = subprocess.Popen(["git", "archive", rev], cwd=REPO,
                               stdout=subprocess.PIPE)
    untar = subprocess.Popen(["tar", "-x", "-C", dest], stdin=tar.stdout)
    if rev is None:
        tar.stdin.write(b"\0".join(files))
        tar.stdin.close()
    tar.stdout.close()
    if untar.wait() != 0 or tar.wait() != 0:
        sys.exit("perf_ab: could not export %s" % (rev or "working tree"))


def run(side, workload, seed, seconds):
    """One perfbench run of @p side; returns its JSON result."""
    env = dict(os.environ, CARGO_TARGET_DIR=side["build"])
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=side["src"], env=env,
                         stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perf_ab: %s run failed (exit %d)" %
                 (side["name"], out.returncode))
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        sys.exit("perf_ab: %s run is not correct: %s" %
                 (side["name"], lines[-1]))
    return result


def simulated(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in SIMULATED_UNITS}


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def block(sides, workload, seed, args, metrics):
    """One interleaved A/B block; returns its summary."""
    # Build, warm up, and check the simulated outputs agree.
    warm = [run(side, workload, seed, 0) for side in sides]
    if simulated(warm[0]) != simulated(warm[1]):
        sys.exit("perf_ab: simulated metrics differ: %s vs %s" %
                 (simulated(warm[0]), simulated(warm[1])))

    values = {m: {"base": [], "change": []} for m in metrics}
    for i in range(args.runs):
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            r = run(side, workload, seed, args.seconds)
            if simulated(r) != simulated(warm[0]):
                sys.exit("perf_ab: %s run %d changed a simulated "
                         "metric" % (side["name"], i))
            for m in metrics:
                values[m][side["name"]].append(r["metrics"][m]["value"])
        print("%s seed %d round %2d  " % (workload, seed, i + 1) +
              "  ".join("%s %.4g/%.4g" % (m, values[m]["base"][-1],
                                          values[m]["change"][-1])
                        for m in metrics), flush=True)

    summary = {"workload": workload, "seed": seed,
               "seconds": args.seconds, "runs": args.runs,
               "base": sides[0]["rev"], "change": sides[1]["rev"],
               "metrics": {}}
    for m in metrics:
        base, change = values[m]["base"], values[m]["change"]
        higher = m in HIGHER_IS_BETTER
        wins = sum((c > b) if higher else (c < b)
                   for b, c in zip(base, change))
        mb, mc = statistics.median(base), statistics.median(change)
        # The change's gain as a factor: above 1 is better.
        gain = (mc / mb if higher else mb / mc) if mb and mc else None
        summary["metrics"][m] = {
            "base": base, "change": change, "base_median": mb,
            "change_median": mc, "base_iqr": iqr(base),
            "change_iqr": iqr(change), "gain": gain, "wins": wins}
        print("%s seed %d %s: median base %.4g -> change %.4g (x%.3f), "
              "IQR base %.3g change %.3g, change won %d/%d" %
              (workload, seed, m, mb, mc, gain or 0, iqr(base),
               iqr(change), wins, args.runs), flush=True)
    return summary


def table(summaries, metrics):
    """Markdown: one row per block, `base -> change (base IQR; wins)`."""
    rows = ["| workload | seed | " +
            " | ".join("`%s`" % m for m in metrics) + " |",
            "|---|---|" + "---|" * len(metrics)]
    for s in summaries:
        cells = ["%.4g -> %.4g (%.2g; %d/%d)" % (
            v["base_median"], v["change_median"], v["base_iqr"],
            v["wins"], s["runs"])
            for v in (s["metrics"][m] for m in metrics)]
        rows.append("| %s | %d | %s |" % (s["workload"], s["seed"],
                                          " | ".join(cells)))
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="git revision of the base (parent)")
    ap.add_argument("change", nargs="?",
                    help="git revision of the change (default: the "
                         "working tree)")
    ap.add_argument("--workload", required=True,
                    help="comma-separated perfbench workloads")
    ap.add_argument("--seed", default="42",
                    help="comma-separated seeds")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--metrics", default="host_wall_s",
                    help="comma-separated perfbench metrics to compare")
    ap.add_argument("--workdir",
                    help="where sources and builds go (default: a new "
                         "temporary directory); reused if it exists")
    ap.add_argument("--json", help="also write the results here")
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_ab-")
    sides = []
    for name, rev in (("base", args.base), ("change", args.change)):
        side = {"name": name, "rev": rev or "working tree",
                "src": os.path.join(workdir, "src-" + name),
                "build": os.path.join(workdir, "build-" + name)}
        export(rev, side["src"])
        sides.append(side)
    print("workdir %s; %s=%s, %s=%s" % (workdir, sides[0]["name"],
          sides[0]["rev"], sides[1]["name"], sides[1]["rev"]))

    metrics = args.metrics.split(",")
    summaries = [block(sides, w, int(seed), args, metrics)
                 for w in args.workload.split(",")
                 for seed in args.seed.split(",")]
    print()
    print(table(summaries, metrics))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summaries, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
