#!/bin/sh
# Bad numeric flags must be usage errors: each invocation below has to
# exit nonzero, but not with 125 (cmdliner's code for an uncaught
# exception), and has to name the offending flag on stderr.  A size an
# app cannot run at is refused only by an invocation that runs the app
# at it: the invocations at the end must succeed.  Run from the
# directory holding the built tools:  sh check_bad_flags.sh
status=0
expect_usage_error() {
  flag=$1
  shift
  err=$("$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -eq 0 ] || [ "$code" -eq 125 ] || ! printf '%s' "$err" | grep -q -e "$flag"; then
    echo "not a usage error naming $flag (exit $code): $*" >&2
    printf '%s\n' "$err" | head -3 >&2
    status=1
  fi
}
expect_usage_error --nprocs ./midway_kv.exe --nprocs 0
expect_usage_error --nprocs ./midway_run.exe sor --nprocs 0
expect_usage_error --nprocs ./midway_fuzz.exe --nprocs 0
expect_usage_error --nprocs ./midway_analyze.exe --nprocs 0 --apps counter
expect_usage_error --trace ./midway_run.exe sor --trace=-1
expect_usage_error --buckets ./midway_kv.exe --keys 10 --buckets 3
expect_usage_error --max-scan ./midway_kv.exe --max-scan=0
expect_usage_error --theta ./midway_kv.exe --theta=1.5
expect_usage_error --preload ./midway_kv.exe --preload=5000 --keys=64
expect_usage_error --service-ns ./midway_kv.exe --service-ns=-5
expect_usage_error --migrate-every ./midway_kv.exe --migrate-every=-2
expect_usage_error --arrival-ns ./midway_kv.exe --arrival-ns=-3
expect_usage_error --schedules ./midway_fuzz.exe --schedules=-1 --apps counter
expect_usage_error --crash-horizon ./midway_fuzz.exe --crash-horizon=-5 --crash-events=1 --apps counter
expect_usage_error --crash-events ./midway_fuzz.exe --crash-events=-1 --apps counter
expect_usage_error --shrink-budget ./midway_fuzz.exe --shrink-budget=-1 --apps counter
# names are parsed verbatim by every tool: no trimming
expect_usage_error "unknown workload" ./midway_analyze.exe --apps ' counter' --expect-clean
expect_usage_error "did you mean" ./midway_analyze.exe --apps counter --backends ' rt' --confirm
# a crash-armed sweep names only workloads whose oracles judge crash runs
expect_usage_error "workload counter" ./midway_fuzz.exe --crash-events 1 --apps counter
expect_usage_error --scale ./midway_run.exe sor --scale=-1
expect_usage_error --scale ./midway_fuzz.exe --scale=-1 --apps counter
expect_usage_error --scale ./experiments.exe --scale=-1 --only table1
expect_usage_error --requests ./midway_kv.exe --requests 10 --nprocs 4
expect_usage_error --workload ./midway_kv.exe --workload A
expect_usage_error --dist ./midway_kv.exe --dist Zipfian
expect_usage_error --faults ./experiments.exe --faults drop=1.5
expect_usage_error --faults ./experiments.exe --faults dup=-0.5
expect_usage_error --faults ./experiments.exe --faults jitter=-5000
expect_usage_error --faults ./midway_fuzz.exe --faults 1.5 --apps counter
expect_usage_error --only ./experiments.exe --only nope
expect_usage_error --scale ./fingerprint.exe --scale abc
expect_usage_error --scale ./fingerprint.exe --scale 0
expect_usage_error --nprocs ./fingerprint.exe --nprocs 0
expect_usage_error --nprocs ./midway_run.exe sor --nprocs 64 --scale 0.05
expect_usage_error --scale ./midway_run.exe sor --nprocs 64 --scale 0.05
expect_usage_error --nprocs ./experiments.exe --nprocs 64 --scale 0.05 --apps sor --only table2
expect_usage_error --scale ./experiments.exe --nprocs 64 --scale 0.05 --apps sor --only table2
# A configuration Runtime.validate refuses, or an app that binds data to
# barriers under a backend whose barriers carry none, is a usage error
# too, refused before any machine runs; the pattern names the problem.
run_small() { ./midway_run.exe "$@" --scale 0.05 --nprocs 4; }
expect_usage_error untargetted run_small sor --backend vm --untargetted
expect_usage_error untargetted run_small sor --backend standalone --untargetted
expect_usage_error blast run_small water --backend blast
expect_usage_error untargetted run_small sor --untargetted
expect_usage_error ecsan run_small sor --ecsan --untargetted
expect_usage_error adaptive run_small sor --backend twin --adaptive
expect_usage_error untargetted run_small sor --adaptive --untargetted
expect_usage_error crash run_small sor --backend standalone --crash stop@1ms:p0
# A run that raises is a failed run (exit 1), never cmdliner's 125.  This
# one raises on the rt failover race of a lock holder crash-stopped at
# its release, and passes too once that race is fixed.
expect_not_uncaught() {
  "$@" >/dev/null 2>&1
  if [ "$?" -eq 125 ]; then
    echo "uncaught exception (exit 125): $*" >&2
    status=1
  fi
}
expect_not_uncaught ./midway_kv.exe --backend rt --nprocs 4 --requests 400 --crash stop@8ms:p0
expect_success() {
  "$@" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "exit $code, expected success: $*" >&2
    status=1
  fi
}
expect_success ./experiments.exe --only table1 --nprocs 64 --scale 0.05
expect_success ./experiments.exe --only speedup --apps sor --nprocs 64 --scale 0.05
# quicksort's private task-slot pools run dry at 64 processors; the
# processor then keeps the right half and sorts it itself
expect_success ./midway_run.exe quicksort --nprocs 64 --scale 0.25
exit $status
