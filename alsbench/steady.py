#!/usr/bin/env python3
"""Steadiness check of the benchmark: run workloads over several seeds and
report each end-to-end metric's spread against its bound.

    python3 alsbench/steady.py [--workloads gsrc-anneal,serve-mixed]
                               [--seeds 1-10] [--repeat 1] [--sets 2]

For each workload it runs `run.py` once per seed (and `--repeat` times per
seed), `--sets` times over.  Per set and metric it prints the median and the
quartile spread (q3 - q1) / median over the runs, as
statistics.quantiles(values, n=4) gives them, next to the metric's bound.  With two or more sets it also
checks that each later set's median is not worse than the first set's by
more than the bound.  The deterministic counts (`count` lines) and the
quality metrics must be identical across every run of the same seed.
Exits nonzero when any check fails.  Raw results go to
.bench_build/alsbench/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import compare  # noqa: E402

EXACT = ("cost_geomean", "area_ratio_geomean", "hpwl_geomean")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            seeds.extend(range(int(a), int(b) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    counts = {}
    for line in lines:
        w = line.split()
        if len(w) == 3 and w[0] == "count":
            counts[w[1]] = int(w[2])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "result": result, "counts": counts}


def main():
    spec = compare.load_spec(ROOT)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    seeds = [s for s in parse_seeds(args.seeds) for _ in range(args.repeat)]
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    runs = []
    failures = []
    for set_index in range(args.sets):
        for workload in args.workloads.split(","):
            for seed in seeds:
                t0 = time.time()
                r = run_once(workload, seed, args.seconds)
                r["set"] = set_index
                r["wall_s"] = time.time() - t0
                runs.append(r)
                ok = r["exit"] == 0 and r["result"] and r["result"]["correct"]
                print("set %d %-12s seed %-6d %5.1fs %s" % (
                    set_index + 1, workload, seed, r["wall_s"], "ok" if ok else "FAILED"),
                    flush=True)
                if not ok:
                    failures.append("%s seed %d failed (exit %d)" % (workload, seed, r["exit"]))

    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload and r["result"]]
        print("\n== %s (%d runs)" % (workload, len(mine)))
        print("%-20s %4s %14s %8s %7s %8s  %s" % ("metric", "set", "median", "spread",
                                               "bound", "bound/3", "verdict"))
        first_medians = {}
        for name, m in e2e.items():
            for set_index in range(args.sets):
                vals = [r["result"]["metrics"][name]["value"] for r in mine
                        if r["set"] == set_index]
                if len(vals) < 2:
                    continue
                med = statistics.median(vals)
                spread = compare.quartile_spread(vals) if len(vals) >= 2 else 0.0
                verdict = "ok"
                if spread > m["bound"]:
                    verdict = "SPREAD>BOUND"
                    failures.append("%s %s spread %.4f > bound %.2f"
                                    % (workload, name, spread, m["bound"]))
                elif spread > m["bound"] / 3:
                    verdict = "spread>bound/3"
                if set_index == 0:
                    first_medians[name] = med
                else:
                    worse = compare.change(m["better"], first_medians[name], med)
                    verdict += " vs set1 %+.4f" % worse
                    if worse > m["bound"]:
                        verdict += " WORSE"
                        failures.append("%s %s set %d median worse by %.4f > %.2f"
                                        % (workload, name, set_index + 1, worse, m["bound"]))
                print("%-20s %4d %14.6g %8.4f %7.2f %8.4f  %s" % (
                    name, set_index + 1, med, spread, m["bound"], m["bound"] / 3, verdict))
        # Exact quantities: identical across every run of the same seed.
        by_seed = {}
        for r in mine:
            exact = dict(r["counts"])
            for name in EXACT:
                exact[name] = r["result"]["metrics"][name]["value"]
            by_seed.setdefault(r["seed"], []).append(exact)
        for seed, exacts in sorted(by_seed.items()):
            if any(e != exacts[0] for e in exacts[1:]):
                diff = sorted(k for k in exacts[0]
                              if any(e.get(k) != exacts[0][k] for e in exacts[1:]))
                failures.append("%s seed %d: exact counts differ between runs: %s"
                                % (workload, seed, ", ".join(diff[:8])))
        repeated = sum(1 for v in by_seed.values() if len(v) > 1)
        print("exact counts and quality: %d seeds run more than once, %s" % (
            repeated, "identical" if not any("exact" in f and workload in f
                                             for f in failures) else "DIFFER"))

    out_dir = os.path.join(ROOT, ".bench_build", "alsbench", "steady")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "steady-%d.json" % int(time.time()))
    with open(out, "w") as f:
        json.dump(runs, f, indent=1)
    print("\nraw results: %s" % os.path.relpath(out, ROOT))
    for f in failures:
        print("FAIL " + f)
    print("steadiness:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
