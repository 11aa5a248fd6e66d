#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/trace/json.h"

namespace pmemsim {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::Reset() { *this = RunningStat(); }

void RunningStat::ToJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("count").Value(count_);
  w.Key("mean").Value(mean());
  w.Key("stddev").Value(stddev());
  w.Key("min").Value(min());
  w.Key("max").Value(max());
  w.Key("sum").Value(sum());
  w.EndObject();
}

std::string RunningStat::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.str();
}

Histogram::Histogram() = default;

void Histogram::AllocateBuckets() {
  if (buckets_.empty()) {
    buckets_.assign(static_cast<size_t>(kOctaves) * kSubBuckets, 0);
  }
}

int Histogram::BucketFor(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  const int msb = 63 - __builtin_clzll(value);
  const int octave = msb - kSubBucketBits + 1;
  const int sub = static_cast<int>((value >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  int bucket = (octave + 1) * kSubBuckets + sub;
  return std::min<int>(bucket, kOctaves * kSubBuckets - 1);
}

uint64_t Histogram::BucketMidpoint(int bucket) {
  if (bucket < kSubBuckets) {
    return static_cast<uint64_t>(bucket);
  }
  const int octave = bucket / kSubBuckets - 1;
  const int sub = bucket % kSubBuckets;
  const uint64_t base = (static_cast<uint64_t>(kSubBuckets) | static_cast<uint64_t>(sub))
                        << (octave - 1);
  const uint64_t width = 1ull << std::max(0, octave - 1);
  return base + width / 2;
}

void Histogram::Add(uint64_t value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += static_cast<double>(value);
  AllocateBuckets();
  ++buckets_[static_cast<size_t>(BucketFor(value))];
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  AllocateBuckets();
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

double Histogram::mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  PMEMSIM_CHECK(p >= 0.0 && p <= 100.0);
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::clamp(BucketMidpoint(static_cast<int>(i)), min_, max_);
    }
  }
  return max_;
}

uint64_t Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  PMEMSIM_CHECK(q >= 0.0 && q <= 1.0);
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  // The extreme ranks are tracked exactly; skip the in-bucket interpolation,
  // which can only blur them.
  if (target == 1) {
    return min_;
  }
  if (target == count_) {
    return max_;
  }
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t in_bucket = buckets_[i];
    if (in_bucket == 0) {
      continue;
    }
    if (seen + in_bucket >= target) {
      // The rank-`target` sample is the (target - seen)-th of this bucket's
      // samples; spread the bucket's population uniformly over its value span
      // and read the rank's position off that line.
      const int b = static_cast<int>(i);
      uint64_t lo;
      uint64_t width;
      if (b < kSubBuckets) {
        lo = static_cast<uint64_t>(b);
        width = 1;
      } else {
        const int octave = b / kSubBuckets - 1;
        const int sub = b % kSubBuckets;
        lo = (static_cast<uint64_t>(kSubBuckets) | static_cast<uint64_t>(sub)) << (octave - 1);
        width = 1ull << std::max(0, octave - 1);
      }
      const double pos =
          (static_cast<double>(target - seen) - 0.5) / static_cast<double>(in_bucket);
      const uint64_t v = lo + static_cast<uint64_t>(pos * static_cast<double>(width));
      return std::clamp(v, min_, max_);
    }
    seen += in_bucket;
  }
  return max_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = max_ = 0;
  sum_ = 0.0;
}

std::string Histogram::Summary() const {
  if (count_ == 0) {
    return "n=0 (empty)";
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1f p50=%llu p90=%llu p99=%llu min=%llu max=%llu",
                static_cast<unsigned long long>(count_), mean(),
                static_cast<unsigned long long>(Percentile(50)),
                static_cast<unsigned long long>(Percentile(90)),
                static_cast<unsigned long long>(Percentile(99)),
                static_cast<unsigned long long>(Min()),
                static_cast<unsigned long long>(Max()));
  return buf;
}

void Histogram::ToJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("count").Value(count_);
  if (count_ == 0) {
    // An empty histogram has no summary statistics: nulls, not zeros, so a
    // consumer cannot mistake "never sampled" for "measured zero latency".
    w.Key("mean").Null();
    w.Key("min").Null();
    w.Key("max").Null();
    w.Key("p50").Null();
    w.Key("p90").Null();
    w.Key("p99").Null();
    w.Key("p999").Null();
    w.EndObject();
    return;
  }
  w.Key("mean").Value(mean());
  w.Key("min").Value(Min());
  w.Key("max").Value(Max());
  w.Key("p50").Value(Percentile(50));
  w.Key("p90").Value(Percentile(90));
  w.Key("p99").Value(Percentile(99));
  w.Key("p999").Value(Percentile(99.9));
  w.EndObject();
}

std::string Histogram::ToJson() const {
  JsonWriter w;
  ToJson(w);
  return w.str();
}

}  // namespace pmemsim
