// Chrome Trace Event / Perfetto export.
//
// Serializes the event log as Chrome `trace_event` JSON so any run opens directly in
// ui.perfetto.dev (or chrome://tracing): one named track per thread showing its state
// intervals, one track per virtual processor showing which thread it ran, one track per
// monitor showing hold spans, plus instant markers for the paper's pathologies — notify /
// broadcast, preemption, YieldButNotToMe (Section 5.2) and spurious lock conflicts (Section
// 6.1). Virtual time maps 1:1 onto the format's microsecond `ts` field.
//
// The writer folds the log one event at a time through TimelineBuilder's observer mode and
// emits each slice the moment it closes, so slices appear in close order and memory holds only
// open spans and track registries.
//
// Output is deterministic (fixed event order, fixed key order, one event per line) so golden
// tests and the behaviour lock can pin it byte-for-byte.

#ifndef SRC_TRACE_EXPORT_CHROME_H_
#define SRC_TRACE_EXPORT_CHROME_H_

#include <iosfwd>
#include <string>

#include "src/trace/tracer.h"

namespace trace {

// Writes the full Chrome trace JSON document for `tracer`'s events to `os`. Propagates
// TimelineError on a corrupt event log.
void ExportChromeTrace(std::ostream& os, const Tracer& tracer);

// Convenience wrapper: ExportChromeTrace to `path`. Returns false if the file cannot be opened
// or written.
bool SaveChromeTraceFile(const std::string& path, const Tracer& tracer);

}  // namespace trace

#endif  // SRC_TRACE_EXPORT_CHROME_H_
