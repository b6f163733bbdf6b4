#!/bin/sh
# CI gate: build Release, a sanitized Debug and a UBSan Debug, run the full test suite in each,
# then the host-timing gates.
#
#   tools/ci_check.sh [sanitizer]       # sanitizer: address (default) or thread
#
# Build trees go to build-ci-release/, build-ci-ucontext/, build-ci-<sanitizer>/,
# build-ci-undefined/ and build-ci-hostbench/ next to the source tree; override with
# BUILD_RELEASE / BUILD_UCONTEXT / BUILD_SANITIZED / BUILD_UBSAN / BUILD_HOSTBENCH. The
# sanitized pass catches memory errors the virtual-time runtime can otherwise hide (fiber stacks
# are mmap'd, so plain runs rarely crash); the fiber-switch annotations in src/pcr/fiber.cc keep
# ASan correct across both the assembly and ucontext switch paths. The UBSan pass is the one
# sanitizer leg under which checkpoints run.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SANITIZER=${1:-address}
BUILD_RELEASE=${BUILD_RELEASE:-"$ROOT/build-ci-release"}
BUILD_SANITIZED=${BUILD_SANITIZED:-"$ROOT/build-ci-$SANITIZER"}
JOBS=$(nproc 2> /dev/null || echo 2)

# -Werror on this leg only: the Release optimiser is what surfaces GCC's flow-based warnings
# (-Wrestrict and friends), and the build must stay free of them.
echo "== Release build (-Werror)"
cmake -B "$BUILD_RELEASE" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror \
  > /dev/null
cmake --build "$BUILD_RELEASE" -j"$JOBS"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS")

# Parallel-exploration gates: the explore suite and the full scenario sweep must behave
# identically on a multi-worker pool. These gate on determinism only; bench_explore's
# serial == parallel check and its speedup gate run with the host-timing gates at the end.
echo "== Explore suite at workers=4"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L explore)
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4

# From-zero fallback leg: --no-checkpoint forces every schedule to replay from event zero —
# the path used when pcr::Checkpoint is unsupported (ucontext fibers, sanitizers) or a body is
# not checkpoint-safe. The scenario sweep must reach the same verdicts and bench_explore must
# still report serial == parallel, so the fallback cannot rot while checkpoint-and-branch is
# the everyday default. (The checkpoint ctest label covers byte-identical equivalence of the
# two modes; these legs cover the fallback end to end through the CLI and bench.)
echo "== From-zero fallback (--no-checkpoint)"
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4 --no-checkpoint
(cd "$BUILD_RELEASE" && bench/bench_explore --workers=4 --budget=100 --no-checkpoint)

# Sleep-set fallback leg: --no-dpor disables pre-execution leaf pruning (sleep sets and
# drain-tail splicing), mirroring the --no-checkpoint sweep above. The dpor ctest label holds
# findings/hashes/repros byte-identical across full-pruning, --no-dpor, and --no-checkpoint;
# these legs cover the flag end to end through the CLI and bench.
echo "== Pruning-off fallback (--no-dpor)"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L dpor)
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4 --no-dpor
(cd "$BUILD_RELEASE" && bench/bench_explore --workers=4 --budget=100 --no-dpor)

# Fault-injection gates: the fault suite (ctest -L fault) covers fork-failure policies, the
# watchdog, monitor poisoning, and X reconnect; the bench_explore run sweeps fault x schedule
# space and exits nonzero unless serial == parallel, so seeded fault plans are provably
# worker-count independent.
echo "== Fault suite + fault-plan determinism at workers=4"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L fault)
(cd "$BUILD_RELEASE" && bench/bench_explore --workers=4 --budget=200 \
  --fault-plan="f1,rate=0.05,sites=notify-lost+timer-skew,seed=5")

# Thread-death leg: an injected death unwinds through ~MonitorGuard, whose Exit charges
# virtual time, so checkpoint-and-branch can pause a fiber mid-unwind — a state no snapshot
# may capture; such a group is walked again from zero. Checkpointed and from-zero exploration
# must print the same verdict, repro and replay-hash lines, and prune the same schedules.
echo "== Thread-death fault plan: checkpointed == from-zero"
TD_PLAN="f1,rate=0.02,sites=thread-death+notify-lost,seed=3"
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4 --profile --fault-plan="$TD_PLAN" \
  > "$BUILD_RELEASE/ci_td_checkpoint.out"
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4 --profile --no-checkpoint \
  --fault-plan="$TD_PLAN" > "$BUILD_RELEASE/ci_td_from_zero.out"
for mode in checkpoint from_zero; do
  grep -E 'verdict:|repro:|replay x2: hash|counter (pruned_schedules|dpor_pruned|drain_spliced) ' \
    "$BUILD_RELEASE/ci_td_$mode.out" > "$BUILD_RELEASE/ci_td_$mode.lines"
done
diff "$BUILD_RELEASE/ci_td_checkpoint.lines" "$BUILD_RELEASE/ci_td_from_zero.lines"

# Overload-robustness gates: the load suite (ctest -L load) covers admission control,
# backpressure, brown-out, and the backlog watchdog over the open-loop service world. The
# bench_service_load sweep needs no step of its own: the behaviour lock, in every leg's
# ctest, pins its whole table byte for byte and fails if its determinism rerun diverges. The
# pcrsim line smokes the CLI load path end to end.
echo "== Load suite + CLI load smoke"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L load)
(cd "$BUILD_RELEASE" && tools/pcrsim --load-scenario=overload --duration 2 > /dev/null)

# Campaign replay gate: every committed corpus entry must still decode, replay
# deterministically (each input is run twice and the trace hashes compared), and every entry
# under tests/corpus/crashes/ must still fail — a crash repro that stops failing means a bug
# was fixed without retiring its corpus entry. rounds=0 puts the campaign in read-only replay
# mode: no mutation, no corpus writes, so the committed corpus is never modified by CI. The
# 60s timeout is a hang backstop; the replay itself takes well under a second.
echo "== Campaign corpus replay gate (read-only)"
timeout 60 "$BUILD_RELEASE/tools/pcrcheck" --campaign="$ROOT/tests/corpus" \
  --campaign-rounds=0 --campaign-status-json="$BUILD_RELEASE/ci_campaign_status.json"
python3 -m json.tool "$BUILD_RELEASE/ci_campaign_status.json" > /dev/null

# Observability exports: the Chrome-trace and metrics exports must be valid JSON end to end,
# from a pcrsim world run and from pcrcheck's failing-schedule repros. The behaviour lock pins
# the bytes of one Chrome-trace export across commits. Their hot-path overhead budgets are
# host-timing gates (bench_trace_overhead, at the end).
echo "== Observability exports"
rm -rf "$BUILD_RELEASE/ci_ct_failures"
(cd "$BUILD_RELEASE" \
  && tools/pcrsim --scenario keyboard --duration 5 \
       --chrome-trace=ci_chrome_trace.json --metrics-json=ci_metrics.json \
  && python3 -m json.tool ci_chrome_trace.json > /dev/null \
  && python3 -m json.tool ci_metrics.json > /dev/null \
  && tools/pcrcheck --scenario=buggy_monitor --require-bug \
       --chrome-trace-on-failure=ci_ct_failures)
for f in "$BUILD_RELEASE"/ci_ct_failures/*.json; do
  python3 -m json.tool "$f" > /dev/null
done

# Portable-fallback leg: the ucontext fiber path must keep passing the explore suite (which
# exercises fibers hardest: thousands of schedules, stack recycling, determinism at several
# worker counts) so it cannot rot while the assembly path is the everyday default. The
# behaviour lock runs here too: charges that advance the clock in place must give the same
# outputs on either switch path. So does the campaign suite: campaign replays recycle each
# worker's arena, so its stacks are reused by fibers on either switch path. And the fault suite:
# injected deaths and shutdown kills unwind out of WAIT with no handler in between, so the
# unwinder must cross fiber frames on either switch path; and Scheduler::Park, where every
# live thread parks, tells a thread's own exceptions from the rest of the OS thread's count,
# which the kills while another fiber or the host unwinds check on either path
# (ShutdownKillTest).
BUILD_UCONTEXT=${BUILD_UCONTEXT:-"$ROOT/build-ci-ucontext"}
echo "== Release build with -DPCR_FIBER_UCONTEXT=ON"
cmake -B "$BUILD_UCONTEXT" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DPCR_FIBER_UCONTEXT=ON > /dev/null
cmake --build "$BUILD_UCONTEXT" -j"$JOBS"
(cd "$BUILD_UCONTEXT" && ctest --output-on-failure -j"$JOBS" -L explore)
(cd "$BUILD_UCONTEXT" && ctest --output-on-failure -j"$JOBS" -L campaign)
(cd "$BUILD_UCONTEXT" && ctest --output-on-failure -j"$JOBS" -L fault)
(cd "$BUILD_UCONTEXT" && ctest --output-on-failure -L lock)
(cd "$BUILD_UCONTEXT" && bench/bench_fiber_switch --require-speedup=6.14)  # prints the auto-skip

echo "== Debug build with -fsanitize=$SANITIZER"
cmake -B "$BUILD_SANITIZED" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
  -DPCR_SANITIZE="$SANITIZER" > /dev/null
cmake --build "$BUILD_SANITIZED" -j"$JOBS"
(cd "$BUILD_SANITIZED" && ctest --output-on-failure -j"$JOBS")
# Re-run the fault suite by label under the sanitizer: injected thread death and monitor
# poisoning unwind fibers on exceptional paths, exactly where stale ASan shadow or a missed
# release would hide in a plain build.
(cd "$BUILD_SANITIZED" && ctest --output-on-failure -j"$JOBS" -L fault)
# And the load suite: the service world churns thousands of heap-allocated requests through
# bounded queues, brown-out purges, and retry re-offers — use-after-free bait a plain build
# would shrug off.
(cd "$BUILD_SANITIZED" && ctest --output-on-failure -j"$JOBS" -L load)
# The dpor equivalence label and the --no-dpor sweep again under the sanitizer: pruning
# copies outcomes instead of executing fibers, exactly the kind of shortcut where a dangling
# read into a rewound buffer would hide in a plain build. (Checkpointing is unsupported under
# sanitizers, so this leg also proves pruning composes with the from-zero fallback.)
(cd "$BUILD_SANITIZED" && ctest --output-on-failure -j"$JOBS" -L dpor)
"$BUILD_SANITIZED/tools/pcrcheck" --all --workers=4 --no-dpor
# And the corpus replay gate: the committed repros drive injected faults through the
# runtime's exceptional unwind paths, which is where the sanitizer earns its keep.
timeout 60 "$BUILD_SANITIZED/tools/pcrcheck" --campaign="$ROOT/tests/corpus" \
  --campaign-rounds=0 --campaign-status-json="$BUILD_SANITIZED/ci_campaign_status.json"
python3 -m json.tool "$BUILD_SANITIZED/ci_campaign_status.json" > /dev/null

# UBSan leg: -fsanitize=undefined keeps no shadow state, so pcr::Checkpoint stays supported and
# this leg runs the same-address stack restore, with checkpoint-and-branch exploration and the
# campaign's checkpointed replays on top of it. -fno-sanitize-recover turns every report into a
# failed test. Debug, so the scheduler also checks each ready-set answer it kept against a fresh
# scan. The labels run again after the full suite so a failure there is named on its own.
BUILD_UBSAN=${BUILD_UBSAN:-"$ROOT/build-ci-undefined"}
echo "== Debug build with -fsanitize=undefined"
cmake -B "$BUILD_UBSAN" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug -DPCR_SANITIZE=undefined > /dev/null
cmake --build "$BUILD_UBSAN" -j"$JOBS"
(cd "$BUILD_UBSAN" && ctest --output-on-failure -j"$JOBS")
(cd "$BUILD_UBSAN" && ctest --output-on-failure -j"$JOBS" -L checkpoint)
(cd "$BUILD_UBSAN" && ctest --output-on-failure -j"$JOBS" -L dpor)
(cd "$BUILD_UBSAN" && ctest --output-on-failure -j"$JOBS" -L campaign)

# The repository benchmark: nothing else builds hostbench/, yet it calls src/ entry points
# (explore::AnalyzeTrace, TraceHash, ExploreProfile, ...), so a change to one of them must not
# break it unnoticed. Its own CMake project in its own tree; its ctest runs the helper tests and
# `hostbench --smoke`, one minimal pass of every workload (about 0.2 s).
BUILD_HOSTBENCH=${BUILD_HOSTBENCH:-"$ROOT/build-ci-hostbench"}
echo "== Benchmark build (hostbench/) and smoke run"
cmake -S "$ROOT/hostbench" -B "$BUILD_HOSTBENCH" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD_HOSTBENCH" -j"$JOBS"
(cd "$BUILD_HOSTBENCH" && ctest --output-on-failure -j"$JOBS")

# Host-timing gates, last: they time this host's CPU, so a slow or crowded window can fail
# them when the code is fine, and a failure here must not hide the deterministic legs above.
# Each gate runs even when an earlier one failed; the script fails if any of them did.
#   - bench_explore: serial == parallel results (exits nonzero on divergence), and every
#     parallel run at least 2x serial (auto-skipped below 4 hardware cores).
#   - bench_fiber_switch: the assembly switch at least 6.14x faster than raw swapcontext
#     (auto-skipped on ucontext builds).
#   - bench_trace_overhead: metrics at most 10% on top of tracing and tracing at most 10% on
#     top of running dark, as medians of 7 interleaved paired ratios (about 2 s).
TIMING_FAILED=""
timing_gate() {
  echo "== $*"
  if ! "$@"; then
    TIMING_FAILED="$TIMING_FAILED $(basename "$1")"
  fi
}
timing_gate "$BUILD_RELEASE/bench/bench_explore" --workers=4 --require-speedup=2
timing_gate "$BUILD_RELEASE/bench/bench_fiber_switch" --require-speedup=6.14
timing_gate "$BUILD_RELEASE/bench/bench_trace_overhead"
if [ -n "$TIMING_FAILED" ]; then
  echo "== ci_check: host-timing gate(s) failed:$TIMING_FAILED" >&2
  exit 1
fi

echo "== ci_check: all green (Release + $SANITIZER + undefined)"
