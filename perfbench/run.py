#!/usr/bin/env python3
"""Socket-level benchmark of crossbar_serve and the sweep engine.

Run from the repository root:

    python3 perfbench/run.py --workload serve-admission --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Builds bin/crossbar_serve.exe and the harness from source (dune, build
directory .bench_build), then runs the harness, which spawns the daemon
on a Unix socket under .bench_run/.  The last stdout line of a single
workload run is the JSON result; `--workload all` runs every workload
untraced and traced and prints each report.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["serve-admission", "serve-large", "sweep-plan"]
EXTRA = ["serve-large-defects"]
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
BUILD_TIMEOUT = 700


def run_timeout(seconds):
    """The harness's time limit: its timed phase, the set-ups and checks
    around it, and slack.  It does not shrink when the build was slow."""
    return 3 * seconds + 60


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./bin/crossbar_serve.exe", "./perfbench/harness.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("build failed: %s\n" % err)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("build failed (dune exit %d)\n" % proc.returncode)
        return False
    return True


def run_one(workload, seed, seconds, trace, timeout):
    """Run the harness in its own process group; return (code, stdout)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "default", "perfbench", "harness.exe"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve-exe", os.path.join(BUILD_DIR, "default", "bin", "crossbar_serve.exe"),
           "--run-dir", RUN_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = b""
        sys.stderr.write("%s: harness timed out after %d s\n" % (workload, timeout))
    finally:
        # The harness reaps its daemons; this only matters if it died.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    return proc.returncode, out.decode(errors="replace")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    if args.workload != "all":
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace,
                            run_timeout(args.seconds))
        lines = out.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
        if code != 0:
            sys.stderr.write("harness exited with code %d\n" % code)
            return 1
        try:
            result = json.loads(lines[-1])
        except ValueError:
            sys.stderr.write("harness printed no result\n")
            return 1
        print(json.dumps(result))
        return 0

    results = {}
    for workload in WORKLOADS + EXTRA:
        for trace in (0, 1):
            print("=== %s, %s ===" % (workload, "traced" if trace else "end to end"))
            code, out = run_one(workload, args.seed, args.seconds, trace,
                                run_timeout(args.seconds))
            lines = out.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except ValueError:
                print("no result (harness exit %d)" % code)
                results["%s/%d" % (workload, trace)] = None
                continue
            results["%s/%d" % (workload, trace)] = result
            print("correct %s, attempted %d, failed %d" % (
                result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                print("  %-40s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
