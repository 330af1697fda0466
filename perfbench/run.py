#!/usr/bin/env python3
"""Build and run the host-time benchmark; print one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload apps|kv|fuzz --seed N --seconds S --trace 0|1

The benchmark program (bench.ml in this directory) and its host-speed
reference (calib.ml) are built from source with dune, then run.  With
--trace 0 set-up is timed in several fresh processes (a cold heap each
time), each from its spawn to the "set-up done" line it prints, less the
time it spent waiting on host-speed samples (which that line gives).  Each
time is scaled to the reference speed as bench.exe scales a pass: its user
part by the host speed that process sampled, its system part (also on
that line) as measured.  setup_s is the median of the three;
the last process also runs the timed passes.  With --trace 1 one process
runs the traced pass, with the OCaml runtime's event ring enlarged so
that GC events survive between polls, and writes its span log under
.perfbench/.

Exit status: 0 with a result line; 2 on bad arguments or an incomplete
source tree; 3 when the build fails; 4 when the benchmark program fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
CALIB = os.path.join(ROOT, "_build", "default", "perfbench", "calib.exe")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("apps", "kv", "fuzz")
SETUPS = 3  # fresh processes whose set-up times give setup_s
# bench.exe's line at the end of set-up, then ns spent on samples and system CPU ns
SETUP_DONE = "set-up done "
DEADLINE_S = 170  # for everything after the build
RING_LOG_WORDS = 19  # runtime event ring: 2^19 words per domain


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("incomplete source tree: %s is missing" % needed, 2)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/bench.exe", "./perfbench/calib.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e, 3)
    if r.returncode != 0 or not (os.path.exists(EXE) and os.path.exists(CALIB)):
        fail("build failed", 3)


def run_bench(args, deadline, env=None):
    """Run bench.exe to completion.  Return its JSON result line, the
    seconds from its spawn to the end of its set-up less its sampling, and
    the system CPU seconds of that set-up."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before running %s" % " ".join(args), 4)
    t0 = time.monotonic()
    p = subprocess.Popen([EXE] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True)
    timer = threading.Timer(remaining, p.kill)
    timer.start()
    setup_s, sys_s, lines = None, None, []
    for line in p.stdout:
        if setup_s is None and line.startswith(SETUP_DONE):
            sampling_ns, sys_ns = line[len(SETUP_DONE):].split()
            setup_s = time.monotonic() - t0 - int(sampling_ns) / 1e9
            sys_s = min(int(sys_ns) / 1e9, setup_s)
        else:
            lines.append(line)
    p.wait()
    timer.cancel()
    if time.monotonic() >= deadline:
        fail("bench.exe %s timed out" % " ".join(args), 4)
    if p.returncode != 0 or setup_s is None or not lines:
        fail("bench.exe %s exited with %d" % (" ".join(args), p.returncode), 4)
    return json.loads(lines[-1]), setup_s, sys_s


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for test_smoke.py")
    a = p.parse_args()
    if a.seconds < 1:
        p.error("--seconds must be at least 1")

    build()
    # The two vCPUs of the reference host run at different speeds, so
    # bench.exe and the calib.exe it samples the host speed with must share
    # one CPU; every run takes the same one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    if a.smoke:
        common.append("--smoke")

    if a.trace == 0:
        runs = [run_bench(common + ["--setup-only"], deadline) for _ in range(SETUPS - 1)]
        runs.append(run_bench(common + ["--trace", "0"], deadline))
        # host.speed is measured speed / reference speed, so multiplying the
        # user part by it scales set-up to the reference speed, as for wall_s
        setups = [sy + (s - sy) * r["metrics"].pop("host.speed")["value"] for r, s, sy in runs]
        result = runs[-1][0]
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        extra = [r for r, _, _ in runs[:-1]]
        print("perfbench: setup_s samples %s (raw %s, system %s)"
              % (" ".join("%.3f" % s for s in setups), " ".join("%.3f" % s for _, s, _ in runs),
                 " ".join("%.3f" % sy for _, _, sy in runs)),
              file=sys.stderr)
    else:
        env = dict(os.environ)
        env["OCAMLRUNPARAM"] = "e=%d" % RING_LOG_WORDS
        env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
        result, _, _ = run_bench(common + ["--trace", "1"], deadline, env)
        extra = []

    for r in extra:
        result["attempted"] += r["attempted"]
        result["failed"] += r["failed"]
        result["correct"] = result["correct"] and r["correct"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
