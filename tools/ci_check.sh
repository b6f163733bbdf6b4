#!/bin/sh
# CI gate: build Release and a sanitized Debug, run the full test suite in both.
#
#   tools/ci_check.sh [sanitizer]       # sanitizer: address (default) or thread
#
# Build trees go to build-ci-release/, build-ci-ucontext/, and build-ci-<sanitizer>/ next to
# the source tree; override with BUILD_RELEASE / BUILD_UCONTEXT / BUILD_SANITIZED. The
# sanitized pass catches memory errors the virtual-time runtime can otherwise hide (fiber
# stacks are mmap'd, so plain runs rarely crash); the fiber-switch annotations in
# src/pcr/fiber.cc keep ASan correct across both the assembly and ucontext switch paths.
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
# identically on a multi-worker pool, and bench_explore must report serial == parallel
# (it exits nonzero on divergence). These gate on determinism only — throughput numbers
# are informational and depend on the host.
echo "== Explore suite at workers=4"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L explore)
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4
echo "== bench_explore --json smoke (+speedup gate, auto-skipped below 4 cores)"
(cd "$BUILD_RELEASE" && bench/bench_explore --workers=4 --json --require-speedup=2)
# Strict throughput gate on the smoke output: schedules_per_sec regressions are warnings in
# the catch-all bench_compare run below, but here — right after the run, on the leg whose
# hardware profile is known — a drop past tolerance fails, so the sleep-set pruning win cannot
# be silently given back.
python3 "$ROOT/tools/bench_compare.py" --baseline-dir="$ROOT" --fresh-dir="$BUILD_RELEASE" \
  --strict-throughput BENCH_explore.json

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
# worker-count independent. Deliberately no --json here: that would overwrite the committed
# no-fault BENCH_explore.json baseline with fault-path numbers.
echo "== Fault suite + fault-plan determinism at workers=4"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L fault)
(cd "$BUILD_RELEASE" && bench/bench_explore --workers=4 --budget=200 \
  --fault-plan="f1,rate=0.05,sites=notify-lost+timer-skew,seed=5")

# Thread-death leg: an injected death unwinds through ~MonitorGuard, whose Exit charges
# virtual time, so checkpoint-and-branch can pause a fiber mid-unwind — a state no snapshot
# may capture. Checkpointed and from-zero exploration must print the same verdict, repro and
# replay-hash lines.
echo "== Thread-death fault plan: checkpointed == from-zero"
TD_PLAN="f1,rate=0.02,sites=thread-death+notify-lost,seed=3"
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4 --fault-plan="$TD_PLAN" \
  > "$BUILD_RELEASE/ci_td_checkpoint.out"
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4 --no-checkpoint --fault-plan="$TD_PLAN" \
  > "$BUILD_RELEASE/ci_td_from_zero.out"
for mode in checkpoint from_zero; do
  grep -E 'verdict:|repro:|replay x2: hash' "$BUILD_RELEASE/ci_td_$mode.out" \
    > "$BUILD_RELEASE/ci_td_$mode.lines"
done
diff "$BUILD_RELEASE/ci_td_checkpoint.lines" "$BUILD_RELEASE/ci_td_from_zero.lines"

# Overload-robustness gates: the load suite (ctest -L load) covers admission control,
# backpressure, brown-out, and the backlog watchdog over the open-loop service world;
# bench_service_load sweeps offered load x paradigm, exits nonzero if a re-run diverges, and
# writes BENCH_load.json for the baseline diff below. The latencies are virtual-time
# quantities — deterministic per spec, not host-dependent — so the p99 gate is a real
# regression gate, not noise insurance. The pcrsim line smokes the CLI load path end to end.
echo "== Load suite + service-world sweep"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L load)
(cd "$BUILD_RELEASE" && bench/bench_service_load --json > /dev/null)
python3 "$ROOT/tools/bench_compare.py" --baseline-dir="$ROOT" --fresh-dir="$BUILD_RELEASE" \
  BENCH_load.json
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

# Context-switch gate: the assembly fast path must stay at least 5x faster than raw
# swapcontext (it measures ~12x on the reference machine; 5x leaves room for host noise). On
# builds where the fiber backend is ucontext the gate auto-skips.
echo "== bench_fiber_switch (>=5x vs ucontext)"
(cd "$BUILD_RELEASE" && bench/bench_fiber_switch --json --require-speedup=5)

echo "== bench_micro --json"
(cd "$BUILD_RELEASE" && bench/bench_micro --json > /dev/null)

# Observability gates: the Chrome-trace and metrics exports must be valid JSON end to end, and
# both tracing and metrics instrumentation must stay within their hot-path overhead budgets
# (the bench exits nonzero past either threshold and records the numbers in BENCH_trace.json;
# it reports the median of 7 interleaved repetitions of 10 runs per config, about 2 s).
echo "== Observability exports + trace-overhead budget"
(cd "$BUILD_RELEASE" \
  && tools/pcrsim --scenario keyboard --duration 5 \
       --chrome-trace=ci_chrome_trace.json --metrics-json=ci_metrics.json \
  && python3 -m json.tool ci_chrome_trace.json > /dev/null \
  && python3 -m json.tool ci_metrics.json > /dev/null \
  && bench/bench_trace_overhead --json)

# Streaming-export equivalence: the bounded-memory streaming sink must produce byte-for-byte
# the file the buffered exporter writes — first over a full pcrsim world run, then over a
# pcrcheck failing-schedule repro (the two CLI paths that drive ChromeTraceWriter). cmp, not a
# JSON-level diff: the contract is byte identity, so golden traces stay pinnable either way.
echo "== Streamed vs buffered Chrome export (byte identity)"
(cd "$BUILD_RELEASE" \
  && tools/pcrsim --scenario keyboard --duration 5 --chrome-trace=ci_chrome_buffered.json \
  && tools/pcrsim --scenario keyboard --duration 5 --chrome-stream=ci_chrome_streamed.json \
  && cmp ci_chrome_buffered.json ci_chrome_streamed.json)
rm -rf "$BUILD_RELEASE/ci_ct_buffered" "$BUILD_RELEASE/ci_ct_streamed"
(cd "$BUILD_RELEASE" \
  && tools/pcrcheck --scenario=buggy_monitor --require-bug \
       --chrome-trace-on-failure=ci_ct_buffered --chrome-stream-on-failure=ci_ct_streamed)
for f in "$BUILD_RELEASE"/ci_ct_buffered/*.json; do
  cmp "$f" "$BUILD_RELEASE/ci_ct_streamed/$(basename "$f")"
done

# Benchmark regression gate: the runs above regenerated BENCH_explore/fiber/micro/trace.json in
# the build tree; diff them against the committed baselines. Tolerance is wide (50%) because CI
# hosts differ from the reference machine — this catches mechanism-level regressions (a switch
# path falling back to syscalls, a pool that stopped pooling), not noise.
echo "== bench_compare vs committed baselines"
python3 "$ROOT/tools/bench_compare.py" --baseline-dir="$ROOT" --fresh-dir="$BUILD_RELEASE"

# History append smoke: record this run's numbers, keyed by commit SHA + commit date (argv,
# never wall clock). CI writes into the build tree to stay read-only on the checkout; the
# reference machine appends to bench/history.jsonl itself and commits the line with the
# refreshed baselines, which is how the perf trajectory accumulates.
echo "== bench_history append"
python3 "$ROOT/tools/bench_history.py" \
  --sha="$(git -C "$ROOT" rev-parse --short HEAD 2> /dev/null || echo unknown)" \
  --date="$(git -C "$ROOT" show -s --format=%cs HEAD 2> /dev/null || echo unknown)" \
  --history="$BUILD_RELEASE/bench_history.jsonl" \
  "$BUILD_RELEASE/BENCH_explore.json" "$BUILD_RELEASE/BENCH_trace.json" \
  "$BUILD_RELEASE/BENCH_micro.json" "$BUILD_RELEASE/BENCH_fiber.json" \
  "$BUILD_RELEASE/BENCH_load.json"

# Portable-fallback leg: the ucontext fiber path must keep passing the explore suite (which
# exercises fibers hardest: thousands of schedules, stack recycling, determinism at several
# worker counts) so it cannot rot while the assembly path is the everyday default. The
# behaviour lock runs here too: charges that advance the clock in place must give the same
# outputs on either switch path. So does the campaign suite: campaign replays recycle each
# worker's arena, so its stacks are reused by fibers on either switch path.
BUILD_UCONTEXT=${BUILD_UCONTEXT:-"$ROOT/build-ci-ucontext"}
echo "== Release build with -DPCR_FIBER_UCONTEXT=ON"
cmake -B "$BUILD_UCONTEXT" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DPCR_FIBER_UCONTEXT=ON > /dev/null
cmake --build "$BUILD_UCONTEXT" -j"$JOBS"
(cd "$BUILD_UCONTEXT" && ctest --output-on-failure -j"$JOBS" -L explore)
(cd "$BUILD_UCONTEXT" && ctest --output-on-failure -j"$JOBS" -L campaign)
(cd "$BUILD_UCONTEXT" && ctest --output-on-failure -L lock)
(cd "$BUILD_UCONTEXT" && bench/bench_fiber_switch --require-speedup=5)  # prints the auto-skip

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

echo "== ci_check: all green (Release + $SANITIZER)"
