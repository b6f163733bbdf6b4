#!/bin/sh
# Behaviour lock: regenerates the golden record of what a refactor must not change and, given
# a lock file, diffs against it. Every line is a pure function of the code — virtual time
# only, no wall-clock fields — so the lock is identical across build types and hosts.
#
#   sh tools/behaviour_lock.sh BUILD_DIR > tests/behaviour.lock   # regenerate
#   sh tools/behaviour_lock.sh BUILD_DIR tests/behaviour.lock     # check (exit 1 on drift)
#
# Contents: every `pcrsim --list` scenario at seeds 1 and 2 (summary row + cksum of the saved
# trace), the cksum of keyboard's `--chrome-trace` export and its `--dump 5000:5100` event
# history, the `pcrsim --metrics-json` export of three runs (keyboard; gvx-scroll, with
# contended monitors; keyboard under a fault plan with the watchdog), the five
# --load-scenario runs (percentiles + trace hash), `pcrcheck --all
# --workers=1` (verdicts, repros, replay hashes), the explorer's boundary and pruning counters
# from `pcrcheck --profile` (--all, then every scenario at --budget=2000 with its repros),
# bench_service_load's whole table, a
# 20-round `pcrcheck --campaign` from an empty corpus (report + corpus file names), which must
# print the same text at --workers=1 and --workers=4, and the whole output of
# bench_priority_inversion and bench_scheduling_policy, the only runs that turn on priority
# inheritance and fair share.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BUILD_DIR [LOCK_FILE]" >&2
  exit 2
fi
BUILD=$1
LOCK=${2:-}
PCRSIM=$BUILD/tools/pcrsim
PCRCHECK=$BUILD/tools/pcrcheck
SERVICE_LOAD=$BUILD/bench/bench_service_load
PRIORITY_INVERSION=$BUILD/bench/bench_priority_inversion
SCHEDULING_POLICY=$BUILD/bench/bench_scheduling_policy
# Short runs keep the whole lock at about two seconds on a Release build.
DURATION=5
# The pcrcheck --profile lines the lock keeps. The checkpoint_* counters are left out: saves
# and resumes are 0 where pcr::Checkpoint is unsupported (ucontext fibers, sanitizers), and
# checkpoint_bytes counts host stack-frame bytes, which move with the compiler's inlining.
HEADER='^== '
PRUNING='^  counter (boundary_d[123]|pruned_schedules|dpor_pruned|drain_spliced) '
VERDICT='^  (repro|replay x2|verdict): '

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Runs a command into $TMP/out, failing the lock on a nonzero exit (a pipeline would mask it).
run() {
  if ! "$@" > "$TMP/out"; then
    echo "behaviour_lock: command failed: $*" >&2
    exit 1
  fi
}

# Runs a 20-round campaign from an empty corpus on $1 workers and prints its report, with the
# corpus path replaced by a fixed token, then the sorted file names of the corpus it wrote.
campaign() {
  dir=$TMP/campaign-w$1
  run "$PCRCHECK" --campaign="$dir" --campaign-rounds=20 --workers="$1"
  sed "s|$dir|CORPUS|g" "$TMP/out"
  (cd "$dir" && find . -type f | LC_ALL=C sort)
}

# Prints the JSON that `pcrsim --seed 1 --duration $DURATION --metrics-json` writes for the run
# its arguments name, after a line naming them.
metrics() {
  run "$PCRSIM" --seed 1 --duration "$DURATION" --metrics-json="$TMP/metrics.json" "$@"
  echo "  $*"
  cat "$TMP/metrics.json"
}

generate() {
  echo "# pcrsim scenarios, --duration $DURATION: summary row, cksum of --save-trace"
  run "$PCRSIM" --list
  for slug in $(cut -d' ' -f1 "$TMP/out"); do
    for seed in 1 2; do
      run "$PCRSIM" --scenario "$slug" --seed "$seed" --duration "$DURATION" \
        --save-trace "$TMP/trace"
      grep -v '^trace written' "$TMP/out"
      echo "  $slug seed=$seed trace cksum=$(cksum < "$TMP/trace")"
    done
  done
  echo "# pcrsim --scenario keyboard --seed 1 --duration $DURATION: cksum of --chrome-trace,"
  echo "# then the --dump 5000:5100 event history"
  run "$PCRSIM" --scenario keyboard --seed 1 --duration "$DURATION" \
    --chrome-trace "$TMP/chrome.json" --dump 5000:5100
  echo "  keyboard seed=1 chrome-trace cksum=$(cksum < "$TMP/chrome.json")"
  grep -v '^chrome trace written' "$TMP/out"
  echo "# pcrsim --seed 1 --duration $DURATION --metrics-json: the registry snapshot"
  metrics --scenario keyboard
  metrics --scenario gvx-scroll
  metrics --scenario keyboard --watchdog \
    --fault-plan='f1,rate=0.05,sites=notify-lost+notify-dup+timer-skew,seed=3'
  echo "# pcrsim --load-scenario, --duration $DURATION"
  for slug in steady overload admitted brownout no-admission; do
    run "$PCRSIM" --load-scenario="$slug" --duration "$DURATION"
    cat "$TMP/out"
  done
  echo "# pcrcheck --all --workers=1"
  run "$PCRCHECK" --all --workers=1
  cat "$TMP/out"
  echo "# pcrcheck --profile --workers=1, --all then each scenario at --budget=2000: boundary"
  echo "# and pruning counters, and the budget-2000 repros (no wall clock, no checkpoint_*)"
  run "$PCRCHECK" --all --workers=1 --profile
  grep -E "$HEADER|$PRUNING" "$TMP/out"
  run "$PCRCHECK" --list
  for slug in $(cut -d' ' -f1 "$TMP/out"); do
    run "$PCRCHECK" --scenario="$slug" --budget=2000 --workers=1 --profile
    grep -E "$HEADER|$PRUNING|$VERDICT" "$TMP/out"
  done
  echo "# bench_service_load"
  run "$SERVICE_LOAD"
  cat "$TMP/out"
  echo "# pcrcheck --campaign=CORPUS --campaign-rounds=20, --workers=1 (=4): report, corpus files"
  campaign 1 > "$TMP/campaign1"
  campaign 4 > "$TMP/campaign4"
  if ! diff -u "$TMP/campaign1" "$TMP/campaign4" >&2; then
    echo "behaviour_lock: the campaign at --workers=4 differs from --workers=1 (diff above)" >&2
    exit 1
  fi
  cat "$TMP/campaign1"
  echo "# bench_priority_inversion"
  run "$PRIORITY_INVERSION"
  cat "$TMP/out"
  echo "# bench_scheduling_policy"
  run "$SCHEDULING_POLICY"
  cat "$TMP/out"
}

if [ -z "$LOCK" ]; then
  generate
  exit 0
fi
generate > "$TMP/lock"
if ! diff -u "$LOCK" "$TMP/lock"; then
  echo "behaviour_lock: behaviour drifted from $LOCK (diff above)." >&2
  echo "A refactor that changes the lock is a bug; regenerate only for an intended change:" >&2
  echo "  sh tools/behaviour_lock.sh BUILD_DIR > tests/behaviour.lock" >&2
  exit 1
fi
echo "behaviour_lock: OK"
