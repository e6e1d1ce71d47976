// Reads the Chrome trace-event JSON that the library exports
// (obs/trace_export.h) and derives each span's self time from span
// containment on its track: a span's parent is the innermost span on the
// same track whose interval holds it, and its self time is its duration
// minus that of its direct children. Nothing about the phase hierarchy is
// assumed, so a span moved or added inside the library is attributed
// wherever it actually ran.

#ifndef PERFBENCH_TRACE_SPANS_H_
#define PERFBENCH_TRACE_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "obs/query_trace.h"

namespace perfbench {

/// One complete ("X") event, in integer nanoseconds.
struct Span {
  int tid = 0;
  int phase = 0;  // index into skysr::kTracePhaseNames
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  // Filled by NestSpans.
  int parent = -1;  // index of the innermost containing span, -1 for roots
  int root = -1;    // index of the outermost containing span (self if root)
  int64_t self_ns = 0;
};

/// Parses every "X" event of a Chrome trace-event JSON document. Events
/// whose name is not a known trace phase are skipped. Returns false on a
/// malformed event.
bool ParseChromeTrace(const std::string& json, std::vector<Span>* out);

/// The events of a single-track trace, read straight from its ring: the
/// same records TraceToChromeJson exports, without the text round trip
/// (a heavy query records millions of spans).
void SpansFromTrace(const skysr::QueryTrace& trace, std::vector<Span>* out);

/// Orders spans by (track, start, longest first) and fills parent, root
/// and self time from containment. A span that only partly overlaps the
/// spans around it (the service records a task's queue wait after the
/// fact, so it overlaps the worker's previous task) is a childless root.
void NestSpans(std::vector<Span>* spans);

/// Sums self time per phase over all spans, in milliseconds.
PhaseSelfMs SumSelfByPhase(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_SPANS_H_
