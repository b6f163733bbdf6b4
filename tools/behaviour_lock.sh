#!/bin/sh
# Behaviour lock: regenerates the golden record of what a refactor must not change and, given
# a lock file, diffs against it. Every line is a pure function of the code — virtual time
# only, no wall-clock fields — so the lock is identical across build types and hosts.
#
#   sh tools/behaviour_lock.sh BUILD_DIR > tests/behaviour.lock   # regenerate
#   sh tools/behaviour_lock.sh BUILD_DIR tests/behaviour.lock     # check (exit 1 on drift)
#
# Contents: every `pcrsim --list` scenario at seeds 1 and 2 (summary row + cksum of the saved
# trace), the five --load-scenario runs (percentiles + trace hash), `pcrcheck --all
# --workers=1` (verdicts, repros, replay hashes), bench_service_load's percentile table, and a
# 20-round `pcrcheck --campaign` from an empty corpus (report + corpus file names), which must
# print the same text at --workers=1 and --workers=4.
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
# Short runs keep the whole lock at about two seconds on a Release build.
DURATION=5

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
  echo "# pcrsim --load-scenario, --duration $DURATION"
  for slug in steady overload admitted brownout no-admission; do
    run "$PCRSIM" --load-scenario="$slug" --duration "$DURATION"
    cat "$TMP/out"
  done
  echo "# pcrcheck --all --workers=1"
  run "$PCRCHECK" --all --workers=1
  cat "$TMP/out"
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
