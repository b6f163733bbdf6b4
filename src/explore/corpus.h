// On-disk fuzzing corpus: one repro string per file, content-addressed, load-order stable.
//
// The campaign's corpus is a set of interesting inputs — (scenario, runtime seed, decision
// prefix, fault plan) schedules in the pcr1 repro format (src/explore/repro.h), one per file.
// Files are named <fnv64-of-content>.repro so the same entry always lands at the same path,
// concurrent campaigns cannot disagree about names, and `git diff` on a committed corpus is
// meaningful. Failing inputs live in a crashes/ subdirectory in the same format. Each entry is
// decoded once, when it is loaded or added, and kept decoded beside its text: the campaign
// mutates and replays the decoded form, and an entry whose text does not decode is never
// admitted.
//
// Determinism contract: entries() is sorted by text, so two corpora holding the same entries
// enumerate identically no matter what order the filesystem returns directory listings or the
// order Add was called in — a prerequisite for byte-identical corpus evolution at any worker
// count.

#ifndef SRC_EXPLORE_CORPUS_H_
#define SRC_EXPLORE_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/explore/repro.h"

namespace explore {

class Corpus {
 public:
  // One entry: its text, which is its file's content and its sort key, and the schedule
  // decoded from that text.
  struct Entry {
    std::string text;
    Repro input;
  };

  // `dir` == "" keeps the corpus purely in memory (tests, worker-invariance checks); otherwise
  // entries persist under dir/ and crashes under dir/crashes/. `read_only` suppresses every
  // write — the mode CI uses to replay a committed corpus without dirtying the checkout.
  explicit Corpus(std::string dir = "", bool read_only = false);

  // Reads every *.repro under dir/ (and dir/crashes/). Unreadable files and files whose text
  // Repro::Decode rejects are reported in `errors` (one line each, naming the file) and
  // skipped; returns false only when the directory itself is unreadable. A missing directory
  // is an empty corpus, not an error (unless read_only).
  bool Load(std::vector<std::string>* errors);

  // Adds one entry, deduplicating by text. Returns true when the entry is new; false for a
  // duplicate or a text that does not decode. Writes the file immediately unless in-memory or
  // read-only.
  bool Add(const std::string& text);
  bool AddCrash(const std::string& text);

  // Sorted by text (see determinism contract above).
  const std::vector<Entry>& entries() const { return entries_; }
  const std::vector<Entry>& crashes() const { return crashes_; }

  const std::string& dir() const { return dir_; }
  bool read_only() const { return read_only_; }

  // FNV-1a over the bytes; the stem of the entry's filename, zero-padded to 16 hex digits.
  static uint64_t ContentHash(const std::string& text);
  static std::string FileName(const std::string& text);

 private:
  bool AddTo(const std::string& text, std::vector<Entry>* list, const std::string& subdir);

  std::string dir_;
  bool read_only_ = false;
  std::vector<Entry> entries_;
  std::vector<Entry> crashes_;
};

}  // namespace explore

#endif  // SRC_EXPLORE_CORPUS_H_
