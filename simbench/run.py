#!/usr/bin/env python3
"""Builds and runs the SimRank* system benchmark.

Run from the repository root:

    python3 simbench/run.py --workload cold_misses --seed 1 --seconds 10 --trace 0
    python3 simbench/run.py --workload all --seed 1            # every workload
    python3 simbench/run.py --workload churn --steady 10       # steadiness mode

One run builds `simstar` (the program under test) and the `simbench`
harness in release mode, then runs the harness, whose last stdout line is
the JSON result. Build output goes to stderr. The exit code is non-zero on
a build failure, a wrong or stale answer, or a generator that fell behind.

Steadiness mode runs one workload N times with seeds seed..seed+N-1 and
prints, per metric, the median and the interquartile spread as a share of
the median (quartiles as `statistics.quantiles(values, n=4)` gives them).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_misses", "hot_hits", "churn", "allpairs_topk"]
RUN_TIMEOUT_S = 170


def build():
    """Builds both binaries; returns (simstar, simbench) paths."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "ssr-cli", "--bin", "simstar"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
    ):
        # Build chatter goes to stderr: stdout's last line is the result.
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    release = os.path.join(target, "release")
    return os.path.join(release, "simstar"), os.path.join(release, "simbench")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(binaries, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    simstar, simbench = binaries
    work = os.path.join(ROOT, ".simbench_work", f"{workload}-{seed}-{trace}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [simbench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--simstar", simstar, "--work", work, "--commit", commit()]
    # Its own process group, so a timeout also stops the servers it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = None, None
        print(f"simbench: {workload} seed {seed} timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        return 1, None
    sys.stderr.write(err)
    if echo:
        sys.stdout.write(out)
    lines = out.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def steady(binaries, args):
    """Runs one workload on N seeds and prints each metric's spread."""
    values = {}
    units = {}
    for i in range(args.steady):
        seed = args.seed + i
        code, result = run_once(binaries, args.workload, seed, args.seconds,
                                args.trace, echo=False)
        if code != 0 or result is None:
            print(f"seed {seed}: run failed (exit {code})")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"# {args.workload}: {args.steady} runs, seeds {args.seed}.."
          f"{args.seed + args.steady - 1}, {args.seconds} s each")
    print(f"{'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<32} {units[name]:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run the workload this many times on successive seeds")
    args = p.parse_args()
    try:
        binaries = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"simbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.steady:
        if args.workload == "all" or args.steady < 2:
            print("simbench: --steady needs one workload and at least 2 runs", file=sys.stderr)
            return 2
        return steady(binaries, args)
    worst = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        code, _ = run_once(binaries, w, args.seed, args.seconds, args.trace)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
