#include "trace_spans.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

// The exporter prints ts/dur with %.3f microseconds, so rounding can move
// an end point by a nanosecond or two; containment allows for that.
constexpr int64_t kSlackNs = 2;

/// Parses a non-negative decimal "123.456" (microseconds) into integer
/// nanoseconds without going through floating point.
bool ParseMicros(const char* p, int64_t* ns) {
  int64_t whole = 0;
  int digits = 0;
  while (*p >= '0' && *p <= '9') {
    whole = whole * 10 + (*p++ - '0');
    ++digits;
  }
  if (digits == 0) return false;
  int64_t frac = 0;
  int frac_digits = 0;
  if (*p == '.') {
    ++p;
    while (*p >= '0' && *p <= '9') {
      if (frac_digits < 3) {
        frac = frac * 10 + (*p - '0');
        ++frac_digits;
      }
      ++p;
    }
  }
  while (frac_digits < 3) {
    frac *= 10;
    ++frac_digits;
  }
  *ns = whole * 1000 + frac;
  return true;
}

/// Position just past `"key":` inside [begin, end), or null.
const char* FindValue(const char* begin, const char* end, const char* key) {
  const size_t len = std::strlen(key);
  for (const char* p = begin; p + len <= end; ++p) {
    if (std::memcmp(p, key, len) == 0) return p + len;
  }
  return nullptr;
}

int PhaseIndex(const char* name_begin, const char* name_end) {
  const size_t len = static_cast<size_t>(name_end - name_begin);
  for (int i = 0; i < skysr::kNumTracePhases; ++i) {
    const char* known = skysr::kTracePhaseNames[i];
    if (std::strlen(known) == len &&
        std::memcmp(known, name_begin, len) == 0) {
      return i;
    }
  }
  return -1;
}

}  // namespace

bool ParseChromeTrace(const std::string& json, std::vector<Span>* out) {
  out->clear();
  const char* const text = json.c_str();
  const char* const text_end = text + json.size();
  static constexpr char kComplete[] = "\"ph\":\"X\"";
  for (const char* hit = std::strstr(text, kComplete); hit != nullptr;
       hit = std::strstr(hit + 1, kComplete)) {
    // "X" events are flat objects: the enclosing braces delimit the event.
    const char* begin = hit;
    while (begin > text && *begin != '{') --begin;
    const char* end = std::strchr(hit, '}');
    if (*begin != '{' || end == nullptr || end > text_end) return false;

    const char* name = FindValue(begin, end, "\"name\":\"");
    const char* ts = FindValue(begin, end, "\"ts\":");
    const char* dur = FindValue(begin, end, "\"dur\":");
    const char* tid = FindValue(begin, end, "\"tid\":");
    if (name == nullptr || ts == nullptr || dur == nullptr || tid == nullptr) {
      return false;
    }
    const char* name_end = std::strchr(name, '"');
    if (name_end == nullptr || name_end > end) return false;
    Span s;
    s.phase = PhaseIndex(name, name_end);
    if (s.phase < 0) continue;
    int64_t dur_ns = 0;
    if (!ParseMicros(ts, &s.start_ns) || !ParseMicros(dur, &dur_ns)) {
      return false;
    }
    s.end_ns = s.start_ns + dur_ns;
    s.tid = static_cast<int>(std::strtol(tid, nullptr, 10));
    out->push_back(s);
  }
  return true;
}

void SpansFromTrace(const skysr::QueryTrace& trace, std::vector<Span>* out) {
  out->clear();
  trace.ForEachEvent([&](const skysr::TraceEvent& e) {
    Span s;
    s.phase = static_cast<int>(e.phase);
    s.start_ns = e.start_ns;
    s.end_ns = e.start_ns + e.dur_ns;
    out->push_back(s);
  });
}

void NestSpans(std::vector<Span>* spans) {
  std::vector<Span>& v = *spans;
  std::sort(v.begin(), v.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;
  });
  for (Span& s : v) {
    s.parent = -1;
    s.self_ns = s.end_ns - s.start_ns;
  }
  std::vector<int> open;  // properly nested chain of enclosing spans
  for (int i = 0; i < static_cast<int>(v.size()); ++i) {
    Span& s = v[static_cast<size_t>(i)];
    while (!open.empty()) {
      const Span& top = v[static_cast<size_t>(open.back())];
      if (top.tid == s.tid && top.end_ns > s.start_ns) break;
      open.pop_back();
    }
    // Innermost enclosing span, searching outward.
    int parent = -1;
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      if (v[static_cast<size_t>(*it)].end_ns + kSlackNs >= s.end_ns) {
        parent = *it;
        break;
      }
    }
    s.parent = parent;
    if (parent >= 0) {
      Span& p = v[static_cast<size_t>(parent)];
      p.self_ns -= s.end_ns - s.start_ns;
      s.root = p.root;
    } else {
      s.root = i;
    }
    // Only a span nested in the top of the chain may enclose later ones.
    if (parent == (open.empty() ? -1 : open.back())) open.push_back(i);
  }
  for (Span& s : v) s.self_ns = std::max<int64_t>(0, s.self_ns);
}

PhaseSelfMs SumSelfByPhase(const std::vector<Span>& spans) {
  PhaseSelfMs out{};
  for (const Span& s : spans) {
    out[static_cast<size_t>(s.phase)] += static_cast<double>(s.self_ns) / 1e6;
  }
  return out;
}

}  // namespace perfbench
