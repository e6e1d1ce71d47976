#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdio>

namespace skysr {

namespace {

void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
}

/// "M" metadata event naming a (pid, tid) track.
void AppendThreadName(std::string* out, int tid, std::string_view name,
                      bool* first) {
  if (!*first) *out += ',';
  *first = false;
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                "\"args\":{\"name\":\"",
                tid);
  *out += buf;
  AppendEscaped(out, name);
  *out += "\"}}";
}

void AppendEvents(std::string* out, const QueryTrace& trace, int tid,
                  bool* first) {
  const double epoch_us = static_cast<double>(trace.epoch_ns()) / 1000.0;
  trace.ForEachEvent([&](const TraceEvent& e) {
    if (!*first) *out += ',';
    *first = false;
    const double ts_us = epoch_us + static_cast<double>(e.start_ns) / 1000.0;
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"skysr\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}",
                  TracePhaseName(e.phase), ts_us,
                  static_cast<double>(e.dur_ns) / 1000.0, tid);
    *out += buf;
  });
}

}  // namespace

std::string TracesToChromeJson(std::span<const TraceTrack> tracks) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  int tid = 0;
  for (const TraceTrack& t : tracks) {
    if (t.trace == nullptr) continue;
    AppendThreadName(&out, tid, t.name, &first);
    AppendEvents(&out, *t.trace, tid, &first);
    ++tid;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string TraceToChromeJson(const QueryTrace& trace,
                              std::string_view track_name) {
  const TraceTrack track{&trace, std::string(track_name)};
  return TracesToChromeJson(std::span<const TraceTrack>(&track, 1));
}

std::string PhaseBreakdownString(const PhaseAggregates& agg) {
  std::string out;
  for (int i = 0; i < kNumTracePhases; ++i) {
    const PhaseAggregate& a = agg.phase[i];
    if (a.count == 0) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%-15s count %8" PRId64 "  total %10.3f ms  max %9.3f ms"
                  "  mean %8.1f us\n",
                  kTracePhaseNames[i], a.count,
                  static_cast<double>(a.total_ns) / 1e6,
                  static_cast<double>(a.max_ns) / 1e6,
                  a.count > 0 ? static_cast<double>(a.total_ns) / 1e3 /
                                    static_cast<double>(a.count)
                              : 0.0);
    out += buf;
  }
  return out;
}

}  // namespace skysr
