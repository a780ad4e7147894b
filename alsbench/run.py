#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, print the result.

    python3 alsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the library, the als_serve daemon and
the alsbench harness from source into .bench_build/alsbench on first use,
runs the harness, checks its report against BENCHMARK.json (names, units,
better-directions) and prints the report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.  Exits nonzero when the build
fails, the sources are missing, the report is malformed or any operation
failed its output check.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import compare  # noqa: E402


def die(msg, code=1):
    print("alsbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then an incremental build; logs go to build.log."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (%s)" % " ".join(cmd))


def stop_group(proc):
    """Kills whatever is left of the harness's process group (nothing, after
    a clean run) and waits until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/engine/placement_engine.h", "tools/als_serve.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("library sources not found (%s); run from a full checkout" % needed, 2)
    spec = compare.load_spec(ROOT)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload, 2)
    problems = compare.self_test(spec)
    if problems:
        die("; ".join(problems))

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "alsbench")
    build(build_dir)

    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [os.path.join(build_dir, "alsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "als_serve"),
           "--work-dir", work_dir]
    # The harness and any als_serve it spawns share a fresh process group,
    # so a hung or crashed run still leaves no process behind.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        # Traced runs do about twice the work of untraced ones.
        stdout, _ = proc.communicate(timeout=max(170.0, 6 * args.seconds + 20))
    except subprocess.TimeoutExpired:
        stdout = None
    stop_group(proc)
    if stdout is None:
        shutil.rmtree(work_dir, ignore_errors=True)
        die("harness timed out")
    lines = stdout.rstrip("\n").split("\n")
    if args.trace:
        trace = os.path.join(work_dir, "trace.json")
        if os.path.exists(trace):
            dest_dir = os.path.join(build_dir, "traces")
            os.makedirs(dest_dir, exist_ok=True)
            dest = os.path.join(dest_dir, "%s-seed%d.json" % (args.workload, args.seed))
            shutil.move(trace, dest)
            lines.insert(-1, "note trace moved to %s" % os.path.relpath(dest, ROOT))
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("harness exited with %d" % proc.returncode)

    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("harness printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result keys %s" % sorted(result))

    # The report must match BENCHMARK.json: every metric of the run's kind
    # present with its declared unit and better-direction.
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[kind]}
    got = result["metrics"]
    unknown = sorted(set(got) - set(declared))
    if unknown:
        die("metrics not in BENCHMARK.json %s: %s" % (kind, ", ".join(unknown)))
    for name, m in got.items():
        if m["unit"] != declared[name]["unit"]:
            die("metric %s unit %s, BENCHMARK.json says %s"
                % (name, m["unit"], declared[name]["unit"]))
    every = compare.metric_specs(spec)
    for line in lines[:-1]:
        w = line.split()
        if len(w) == 5 and w[0] in ("metric", "traced", "layer") and w[1] in every \
                and w[4] != every[w[1]]["better"]:
            die("metric %s is %s-is-better in the harness, %s in BENCHMARK.json"
                % (w[1], w[4], every[w[1]]["better"]))
    missing = sorted(set(declared) - set(got))
    if missing and not args.trace:
        die("end-to-end metrics missing: %s" % ", ".join(missing))
    if missing:
        # Layers this workload does not exercise report 0, named here.
        lines.insert(-1, "note layers not exercised by %s: %s"
                     % (args.workload, " ".join(missing)))
        for name in missing:
            got[name] = {"value": 0, "unit": declared[name]["unit"]}

    print("\n".join(lines[:-1]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: got[k] for k in sorted(got)}}))
    sys.stdout.flush()
    if result["failed"] or not result["correct"]:
        die("%d of %d operations failed their output checks"
            % (result["failed"], result["attempted"]))


if __name__ == "__main__":
    main()
