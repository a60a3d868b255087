#!/usr/bin/env python3
"""The repository's benchmark: builds the harness and runs one workload.

    python3 perfbench/run.py --workload exchange|campaign|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the harness and the
crellvm-served daemon from the checkout's src/ into $CARGO_TARGET_DIR
(default .bench_build); later runs rebuild only what changed.

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
measures the per-layer metrics (a traced replay, see perfbench/README.md).
The metric names and units come from BENCHMARK.json.

Before printing anything the run checks the verdict gate:
  * the per-pass V/F/NS/diff tallies of the gate set (the first 48 units of
    the default seed 1) equal those pinned in perfbench/pinned_tallies.json;
  * every verdict the run observed equals an independent computation of the
    same unit (the in-process driver for serve, the traced replay for a
    traced run, and the same unit's earlier verdict when it recurs);
  * there is no llvm-diff mismatch anywhere.
If the gate fails, or the harness reports an error, the run prints no result
and exits 1. Otherwise the last stdout line is the JSON result object.
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
WORKLOADS = ("exchange", "campaign", "serve")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the harness and the daemon (incrementally)."""
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench-harness",
              "crellvm-served", "-j", str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise subprocess.CalledProcessError(proc.returncode, cmd)


def stop_group(proc):
    """Kills the harness's process group and waits until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def gate_failures(doc, pinned):
    """Returns why the run's verdicts cannot be trusted (empty when sound)."""
    why = list(doc["errors"])
    if doc["verdict_mismatches"]:
        why.append("%d units disagreed with an independent computation of the"
                   " same unit" % doc["verdict_mismatches"])
    for name in ("gate_tallies", "run_tallies"):
        for pass_name, t in doc[name].items():
            if t["diff"]:
                why.append("%s: %d llvm-diff mismatches in %s"
                           % (name, t["diff"], pass_name))
    if doc["gate_tallies"] != pinned:
        why.append("gate tallies %s differ from the pinned %s"
                   % (json.dumps(doc["gate_tallies"], sort_keys=True),
                      json.dumps(pinned, sort_keys=True)))
    if not doc["run_tallies"]:
        why.append("no unit was validated")
    return why


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "pinned_tallies.json")) as f:
        pinned = json.load(f)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    run_dir = os.path.join(build_dir, "run-%s-%d" % (args.workload,
                                                     os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfbench-harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir,
           "--served", os.path.join(build_dir, "crellvm", "server",
                                    "crellvm-served")]
    # The harness runs in its own process group with the daemon it spawns,
    # so a timeout can stop both.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness timed out after %d s" % HARNESS_TIMEOUT_S)
        stop_group(proc)
        return 1
    finally:
        if args.trace and os.path.exists(os.path.join(run_dir, "spans.tsv")):
            trace_dir = os.path.join(build_dir, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            shutil.move(os.path.join(run_dir, "spans.tsv"),
                        os.path.join(trace_dir, "%s-seed%d.spans.tsv"
                                     % (args.workload, args.seed)))
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("harness failed with exit code %d" % proc.returncode)
        return 1
    doc = json.loads(lines[-1])

    why = gate_failures(doc, pinned)
    got = doc["metrics"]
    # The harness writes each value as decimal text (null when not finite).
    for m in got.values():
        if m["value"] is not None:
            m["value"] = float(m["value"])
    for m in wanted:
        if m["name"] not in got:
            why.append("harness did not report %s" % m["name"])
        elif got[m["name"]]["unit"] != m["unit"]:
            why.append("%s has unit %s, expected %s"
                       % (m["name"], got[m["name"]]["unit"], m["unit"]))
        elif got[m["name"]]["value"] is None:
            # An unanswered request makes a latency percentile infinite.
            why.append("%s is not finite" % m["name"])
    if why:
        for w in why:
            log("verdict gate: " + w)
        return 1

    for note in doc["notes"]:
        print(note)
    print(json.dumps({
        "correct": True,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: got[m["name"]] for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
