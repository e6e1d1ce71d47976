#include "service/debug_page.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/explain.h"

namespace skysr {

MetricsHistory::MetricsHistory(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 2)) {
  ring_.resize(capacity_);
}

void MetricsHistory::Sample(const MetricsSnapshot& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (s.uptime_seconds < last_uptime_) have_baseline_ = false;  // reset seen
  Point p;
  if (have_baseline_ && s.uptime_seconds > last_uptime_) {
    p.qps = static_cast<double>(s.completed - last_completed_) /
            (s.uptime_seconds - last_uptime_);
  } else {
    p.qps = s.qps;  // first sample: lifetime average is the best estimate
  }
  p.p50_ms = s.latency_p50_ms;
  p.p99_ms = s.latency_p99_ms;
  p.queue_depth = s.queue_depth;
  ring_[head_] = p;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  if (size_ < capacity_) ++size_;
  last_completed_ = s.completed;
  last_uptime_ = s.uptime_seconds;
  have_baseline_ = true;
}

std::vector<MetricsHistory::Point> MetricsHistory::Points() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Point> out;
  out.reserve(size_);
  const size_t first = size_ < capacity_ ? 0 : head_;
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(first + i) % capacity_]);
  }
  return out;
}

void MetricsHistory::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
  have_baseline_ = false;
}

namespace {

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf)));
}

std::string HtmlEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

// Server-rendered sparkline: one SVG polyline over the sampled window,
// scaled to the window's max (min pinned at 0). No scripts — the page
// stays self-contained and loads in anything.
template <typename Get>
void Sparkline(std::string* out, const char* label,
               const std::vector<MetricsHistory::Point>& pts, Get get,
               const char* unit) {
  double maxv = 0;
  for (const auto& p : pts) maxv = std::max(maxv, get(p));
  const double last = pts.empty() ? 0 : get(pts.back());
  constexpr int kW = 240;
  constexpr int kH = 48;
  Appendf(out,
          "<div class=\"spark\"><div class=\"sparkhead\">%s "
          "<b>%.2f%s</b> <span class=\"dim\">max %.2f</span></div>",
          label, last, unit, maxv);
  Appendf(out,
          "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">"
          "<rect width=\"%d\" height=\"%d\" class=\"sparkbg\"/>",
          kW, kH, kW, kH, kW, kH);
  if (pts.size() >= 2 && maxv > 0) {
    std::string points;
    for (size_t i = 0; i < pts.size(); ++i) {
      const double x =
          static_cast<double>(i) / static_cast<double>(pts.size() - 1) * kW;
      const double y = kH - (get(pts[i]) / maxv) * (kH - 4) - 2;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", x, y);
      points += buf;
    }
    Appendf(out, "<polyline points=\"%s\" class=\"sparkline\"/>",
            points.c_str());
  }
  *out += "</svg></div>\n";
}

}  // namespace

std::string DebugPageHtml(const MetricsSnapshot& s,
                          const MetricsHistory& history, int refresh_seconds) {
  const std::vector<MetricsHistory::Point> pts = history.Points();
  std::string out;
  out.reserve(16384);

  out +=
      "<!doctype html>\n<html><head><meta charset=\"utf-8\">\n"
      "<title>skysr /debug</title>\n";
  if (refresh_seconds > 0) {
    Appendf(&out, "<meta http-equiv=\"refresh\" content=\"%d\">\n",
            refresh_seconds);
  }
  out +=
      "<style>\n"
      "body{font:13px/1.4 monospace;margin:16px;background:#111;color:#ddd}\n"
      "h1{font-size:16px;margin:0 0 12px}\n"
      "h2{font-size:13px;margin:16px 0 6px;color:#8ac}\n"
      "table{border-collapse:collapse}\n"
      "td,th{padding:2px 10px 2px 0;text-align:left;vertical-align:top}\n"
      "th{color:#888;font-weight:normal}\n"
      ".dim{color:#777}\n"
      ".row{display:flex;gap:24px;flex-wrap:wrap}\n"
      ".spark{margin:4px 0}\n"
      ".sparkhead{margin-bottom:2px}\n"
      ".sparkbg{fill:#1a1a1a}\n"
      ".sparkline{fill:none;stroke:#6c6;stroke-width:1.5}\n"
      "pre{background:#1a1a1a;padding:6px;margin:4px 0;overflow-x:auto}\n"
      "</style></head><body>\n"
      "<h1>skysr service debug</h1>\n";

  // Headline counters.
  Appendf(&out,
          "<table><tr><th>uptime</th><th>submitted</th><th>completed</th>"
          "<th>errors</th><th>rejected</th>"
          "<th>result cache</th><th>xcache fwd</th><th>queue</th></tr>"
          "<tr><td>%.1fs</td><td>%" PRId64 "</td><td>%" PRId64
          "</td><td>%" PRId64 "</td><td>%" PRId64
          "</td><td>%.0f%% of %" PRId64 "</td><td>%.0f%% of %" PRId64
          "</td><td>%" PRId64 "</td></tr></table>\n",
          s.uptime_seconds, s.submitted, s.completed, s.errors, s.rejected,
          s.cache_hit_rate * 100,
          s.cache_hits + s.cache_misses, s.xcache_fwd_hit_rate * 100,
          s.xcache_fwd_hits + s.xcache_fwd_misses, s.queue_depth);

  // Sparklines over the sampled window.
  out += "<h2>trend (sampled per page load)</h2>\n<div class=\"row\">\n";
  Sparkline(&out, "qps", pts,
            [](const MetricsHistory::Point& p) { return p.qps; }, "");
  Sparkline(&out, "p50", pts,
            [](const MetricsHistory::Point& p) { return p.p50_ms; }, "ms");
  Sparkline(&out, "p99", pts,
            [](const MetricsHistory::Point& p) { return p.p99_ms; }, "ms");
  Sparkline(&out, "queue depth", pts,
            [](const MetricsHistory::Point& p) {
              return static_cast<double>(p.queue_depth);
            },
            "");
  out += "</div>\n";

  // Slow queries, slowest first, with inline explains when present.
  Appendf(&out, "<h2>slow queries (top %zu)</h2>\n", s.slow_queries.size());
  if (s.slow_queries.empty()) {
    out += "<div class=\"dim\">none recorded</div>\n";
  } else {
    for (const SlowQueryRecord& rec : s.slow_queries) {
      Appendf(&out, "<pre>%s", HtmlEscape(rec.ToString()).c_str());
      if (rec.explain != nullptr) {
        out += "\n";
        out += HtmlEscape(rec.explain->ToTreeString(rec.stats));
      }
      out += "</pre>\n";
    }
  }

  out += "</body></html>\n";
  return out;
}

}  // namespace skysr
