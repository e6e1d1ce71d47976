#include "setup.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

namespace perfbench {

Indexed BuildIndexed(const std::function<skysr::Dataset()>& make_dataset) {
  Indexed b;
  const double t0 = NowSeconds();
  b.dataset = std::make_unique<skysr::Dataset>(make_dataset());
  const double t1 = NowSeconds();
  b.ch = std::make_unique<skysr::ChOracle>(
      skysr::ChOracle::Build(b.dataset->graph));
  const double t2 = NowSeconds();
  b.buckets = std::make_unique<skysr::CategoryBucketIndex>(
      skysr::CategoryBucketIndex::Build(b.dataset->graph, *b.ch));
  const double t3 = NowSeconds();
  b.gen_s = t1 - t0;
  b.ch_s = t2 - t1;
  b.bucket_s = t3 - t2;
  return b;
}

SetupTimes SetUpRepeatedly(const std::function<skysr::Dataset()>& make_dataset,
                           int reps) {
  std::vector<double> gen, ch, bucket, total;
  SetupTimes out;
  for (int rep = 0; rep < reps; ++rep) {
    out.last.reset();  // free the previous set-up before building the next
    out.last = std::make_unique<Indexed>(BuildIndexed(make_dataset));
    const Indexed& b = *out.last;
    gen.push_back(b.gen_s);
    ch.push_back(b.ch_s);
    bucket.push_back(b.bucket_s);
    total.push_back(b.gen_s + b.ch_s + b.bucket_s);
  }
  out.median_gen_s = Median(gen);
  out.median_ch_s = Median(ch);
  out.median_bucket_s = Median(bucket);
  out.median_total_s = Median(total);
  Log("set-up (median of %d): gen %.3f s, ch %.3f s, buckets %.3f s, "
      "total %.3f s",
      reps, out.median_gen_s, out.median_ch_s, out.median_bucket_s,
      out.median_total_s);
  return out;
}

skysr::DatasetSpec CitySpec(double multi_category_fraction) {
  skysr::DatasetSpec spec = skysr::TokyoLikeSpec(0.05);
  spec.multi_category_fraction = multi_category_fraction;
  return spec;
}

double Share(const std::vector<char>& flags) {
  if (flags.empty()) return 0;
  int64_t set = 0;
  for (char f : flags) set += f != 0;
  return static_cast<double>(set) / static_cast<double>(flags.size());
}

void AddCacheMetrics(Report* report, const skysr::SharedCacheCounters& c,
                     int64_t resume_runs, int64_t resident_bytes) {
  const int64_t lookups = c.fwd_hits + c.fwd_misses;
  report->Add("cache.fwd_lookups", static_cast<double>(lookups));
  report->Add("cache.fwd_hit_rate",
              lookups > 0 ? static_cast<double>(c.fwd_hits) /
                                static_cast<double>(lookups)
                          : 0.0);
  report->Add("cache.resume_reuse_rate",
              resume_runs > 0 ? static_cast<double>(c.resume_reuses) /
                                    static_cast<double>(resume_runs)
                              : 0.0);
  report->Add("cache.resident_mb",
              static_cast<double>(resident_bytes) / (1024.0 * 1024.0));
}

void PrintTraffic(const char* workload, const skysr::Dataset& ds,
                  const std::vector<Query>& requests,
                  const std::vector<char>& deferred, double repeat_share,
                  const char* arrival) {
  std::map<int, int64_t> k_hist;
  std::set<skysr::VertexId> starts;
  int64_t with_destination = 0;
  for (const Query& q : requests) {
    ++k_hist[q.size()];
    starts.insert(q.start);
    with_destination += q.destination.has_value();
  }
  std::string hist;
  for (const auto& [k, count] : k_hist) {
    char entry[48];
    std::snprintf(entry, sizeof(entry), "%s\"%d\": %lld",
                  hist.empty() ? "" : ", ", k, static_cast<long long>(count));
    hist += entry;
  }
  const double n = std::max<double>(1, static_cast<double>(requests.size()));
  std::printf(
      "traffic {\"workload\": \"%s\", \"vertices\": %lld, \"pois\": %lld, "
      "\"requests\": %zu, \"k_hist\": {%s}, \"deferred_share\": %.4f, "
      "\"destination_share\": %.4f, \"distinct_starts\": %zu, "
      "\"exact_repeat_share\": %.4f, \"arrival\": \"%s\"}\n",
      workload, static_cast<long long>(ds.graph.num_vertices()),
      static_cast<long long>(ds.graph.num_pois()), requests.size(),
      hist.c_str(), Share(deferred),
      static_cast<double>(with_destination) / n, starts.size(), repeat_share,
      arrival);
  std::fflush(stdout);
}

}  // namespace perfbench
