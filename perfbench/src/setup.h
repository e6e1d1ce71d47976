// Set-up shared by the workloads: dataset generation plus the CH oracle
// and category-bucket tables, timed per stage and repeated so setup_s is a
// median; and the traffic record each run prints about its inputs.

#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <functional>
#include <memory>
#include <vector>

#include "cache/shared_query_cache.h"
#include "common.h"
#include "index/ch_oracle.h"
#include "retrieval/category_buckets.h"
#include "workload/dataset.h"

namespace perfbench {

/// A dataset with its index and bucket tables, and how long each took.
struct Indexed {
  std::unique_ptr<skysr::Dataset> dataset;
  std::unique_ptr<skysr::ChOracle> ch;
  std::unique_ptr<skysr::CategoryBucketIndex> buckets;
  double gen_s = 0;
  double ch_s = 0;
  double bucket_s = 0;
};

Indexed BuildIndexed(const std::function<skysr::Dataset()>& make_dataset);

/// Medians over `reps` set-ups; the last set-up is kept for the run.
struct SetupTimes {
  std::unique_ptr<Indexed> last;
  double median_gen_s = 0;
  double median_ch_s = 0;
  double median_bucket_s = 0;
  double median_total_s = 0;
};

SetupTimes SetUpRepeatedly(const std::function<skysr::Dataset()>& make_dataset,
                           int reps);

/// The Tokyo-like city of the paper's §7 setting at 5% of Table 5's size
/// (about 26k vertices and 8.7k PoIs).
skysr::DatasetSpec CitySpec(double multi_category_fraction);

/// Share of set flags.
double Share(const std::vector<char>& flags);

/// Adds the cache.* per-layer metrics from cross-query cache counters.
void AddCacheMetrics(Report* report, const skysr::SharedCacheCounters& c,
                     int64_t resume_runs, int64_t resident_bytes);

/// Prints the run's traffic record, measured from the generated requests,
/// as one `traffic {...}` line on stdout.
void PrintTraffic(const char* workload, const skysr::Dataset& ds,
                  const std::vector<Query>& requests,
                  const std::vector<char>& deferred, double repeat_share,
                  const char* arrival);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
