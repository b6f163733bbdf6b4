// Trace hashing: one 64-bit fingerprint per run, plus prefix fingerprints for coverage.
//
// Two runs are "the same schedule" iff every recorded event matches field-for-field; the hash
// is FNV-1a over the canonical field tuple of each event. Used by Explorer to verify replay
// determinism and to count distinct schedules explored, and by the fuzzing campaign
// (campaign.h) as a state-coverage signal: the running hash after each K-event prefix
// fingerprints *partial* executions, so two schedules that diverge early and reconverge late
// still count as distinct coverage.
//
// The value is byte-wise FNV-1a and must stay bit-identical: the explorer reseeds each segment
// from a prefix fingerprint (MixSeed(q0 ^ f, ...) in explorer.cc), so a different value would
// explore different schedules, and committed repros, corpus hashes and the behaviour lock would
// all move. Speed comes from evaluating the same function in fewer steps, never from changing
// it: a zero byte's xor is a no-op, leaving only the multiply by the prime, so a run of zero
// bytes, together with the multiply that follows the nonzero byte before it, is one multiply by
// a power of the prime. An event is 48 bytes, most of them zero high bytes, so its 48 dependent
// xor-and-multiply steps shrink to one xor-and-multiply per nonzero byte.

#ifndef SRC_EXPLORE_HASH_H_
#define SRC_EXPLORE_HASH_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/trace/tracer.h"

namespace explore {

// Incremental FNV-1a over event field tuples. Feeding the same events in the same order
// always yields the same value; value() may be read at any point to fingerprint the prefix
// consumed so far.
//
// Multiplies by the prime are owed rather than made: pending_exponent_ counts those not yet
// applied to h_, the one after the last nonzero byte plus one per zero byte since, a run that
// may cross words. The next nonzero byte pays them in one multiply by a power of the prime, as
// does MixWord once the run reaches kMaxPendingExponent; value() pays them without consuming
// them, and a copy carries them along.
class TraceHasher {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ull;

  TraceHasher() = default;
  // FNV-1a from another starting value (TraceFold salts its coverage keys this way).
  explicit TraceHasher(uint64_t basis) : h_(basis) {}

  void Mix(const trace::Event& e) {
    MixWord(static_cast<uint64_t>(e.time_us));
    MixWord(static_cast<uint64_t>(e.type));
    MixWord((static_cast<uint64_t>(e.priority) << 32) |
            (static_cast<uint64_t>(e.processor) << 16));
    MixWord(e.thread);
    MixWord(e.object);
    MixWord(e.arg);
  }

  // The eight bytes of `v`, least significant first.
  void MixWord(uint64_t v) {
    unsigned consumed = 0;
    while (v != 0) {
      const unsigned zeros = static_cast<unsigned>(__builtin_ctzll(v)) / 8;
      v >>= zeros * 8;
      h_ = (h_ * kPrimePowers[pending_exponent_ + zeros]) ^ (v & 0xff);
      v >>= 8;
      pending_exponent_ = 1;  // this byte's own multiply
      consumed += zeros + 1;
    }
    pending_exponent_ += 8 - consumed;
    if (pending_exponent_ >= kMaxPendingExponent) {
      h_ *= kPrimePowers[pending_exponent_];
      pending_exponent_ = 0;
    }
  }

  uint64_t value() const { return h_ * kPrimePowers[pending_exponent_]; }

 private:
  static constexpr uint64_t kPrime = 0x100000001b3ull;
  // Between MixWord calls pending_exponent_ stays below this bound; inside one it stays below
  // the bound plus eight, the table's size.
  static constexpr unsigned kMaxPendingExponent = 64;
  static constexpr std::array<uint64_t, kMaxPendingExponent + 8> kPrimePowers = [] {
    std::array<uint64_t, kMaxPendingExponent + 8> powers{};
    uint64_t p = 1;
    for (uint64_t& power : powers) {
      power = p;
      p *= kPrime;
    }
    return powers;
  }();

  uint64_t h_ = kOffsetBasis;
  unsigned pending_exponent_ = 0;  // multiplies by kPrime owed to h_
};

inline uint64_t TraceHash(const trace::Tracer& tracer) {
  TraceHasher hasher;
  for (const trace::Event& e : tracer.view()) {
    hasher.Mix(e);
  }
  return hasher.value();
}

// Prefix fingerprints: the running hash after every `stride` events, plus the final hash.
// A partial execution that matches a known run for its first N*stride events contributes no
// new fingerprints — which is exactly the dedup the campaign's coverage map wants.
inline std::vector<uint64_t> TracePrefixHashes(const trace::Tracer& tracer, size_t stride) {
  std::vector<uint64_t> hashes;
  if (stride == 0) {
    stride = 1;
  }
  TraceHasher hasher;
  size_t n = 0;
  for (const trace::Event& e : tracer.view()) {
    hasher.Mix(e);
    if (++n % stride == 0) {
      hashes.push_back(hasher.value());
    }
  }
  if (n % stride != 0 || n == 0) {
    hashes.push_back(hasher.value());
  }
  return hashes;
}

}  // namespace explore

#endif  // SRC_EXPLORE_HASH_H_
