// Streaming statistics helpers used by benchmarks and tests.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pmemsim {

class JsonWriter;

// Welford running mean/variance with min/max tracking.
class RunningStat {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  void Reset();

  // {"count":N,"mean":...,"stddev":...,"min":...,"max":...,"sum":...}
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Log-bucketed latency histogram (power-of-two buckets with linear sub-buckets)
// supporting approximate percentiles. Good enough for cycle latencies spanning
// 1..10^7. The buckets are allocated on the first sample, so an empty
// histogram (an idle telemetry window) costs no heap.
class Histogram {
 public:
  Histogram();

  void Add(uint64_t value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double mean() const;
  // p in [0, 100]. Returns 0 on an empty histogram — callers that must
  // distinguish "no samples" from "0-cycle latency" check count() first
  // (ToJson emits nulls for exactly this reason).
  uint64_t Percentile(double p) const;
  // Exact-rank quantile extraction, q in [0, 1]: locates the bucket holding
  // the sample of rank ceil(q * count) and interpolates the rank's position
  // linearly across the bucket's value span. Values below 16 land in
  // single-value buckets, so quantiles over them are exact; wider buckets
  // bound the error by the sub-bucket resolution (1/16 relative). Returns 0
  // on an empty histogram (check count(), as with Percentile). q=0 yields
  // Min(), q=1 yields Max().
  uint64_t Quantile(double q) const;
  uint64_t Min() const { return count_ ? min_ : 0; }
  uint64_t Max() const { return count_ ? max_ : 0; }

  void Reset();

  std::string Summary() const;

  // Count/mean/min/max plus the standard percentile ladder (p50..p999).
  // An empty histogram serializes as count:0 with null statistics.
  void ToJson(JsonWriter& w) const;
  std::string ToJson() const;

 private:
  static constexpr int kSubBucketBits = 4;  // 16 linear sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 40;

  static int BucketFor(uint64_t value);
  static uint64_t BucketMidpoint(int bucket);
  void AllocateBuckets();

  std::vector<uint64_t> buckets_;  // empty until the first sample
  uint64_t count_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace pmemsim

#endif  // SRC_COMMON_STATS_H_
