// Bucketed time series: mean of a value keyed by the cycle an event is
// attributed to. Used for the paper's transient experiments (Fig. 6), where
// the latency of each delivered packet is accounted to the cycle the packet
// was *sent* (generated), not the cycle it arrived.
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ofar {

class CheckpointIO;

class TimeSeries {
 public:
  /// Buckets cover [start, start + horizon); events outside are dropped.
  TimeSeries(Cycle start, Cycle horizon, u32 bucket_width)
      : start_(start), bucket_width_(bucket_width),
        end_(start + (horizon + bucket_width - 1) / bucket_width *
                         bucket_width),
        buckets_((horizon + bucket_width - 1) / bucket_width) {
    OFAR_CHECK(bucket_width > 0);
  }

  struct Bucket {
    double sum = 0.0;
    u64 count = 0;
    double mean() const { return count == 0 ? 0.0 : sum / count; }
  };

  void record(Cycle at, double value) {
    Bucket* b = bucket_for(at);
    if (b == nullptr) return;
    b->sum += value;
    ++b->count;
  }

  std::size_t num_buckets() const noexcept { return buckets_.size(); }
  const Bucket& bucket(std::size_t i) const { return buckets_[i]; }
  /// Cycle at the centre of bucket i.
  Cycle bucket_mid(std::size_t i) const {
    return start_ + i * bucket_width_ + bucket_width_ / 2;
  }
  u32 bucket_width() const noexcept { return bucket_width_; }

 private:
  friend class CheckpointIO;  // serializes buckets_

  /// Bucket covering cycle `at`, or nullptr when `at` falls outside the
  /// window. The guard compares cycles against end_, a plain member, rather
  /// than an index against the vector's size: GCC 12 cannot relate the
  /// size to the allocation and flags a spurious -Warray-bounds on
  /// constant-folded out-of-window cycles in test code.
  Bucket* bucket_for(Cycle at) noexcept {
    if (at < start_ || at >= end_) return nullptr;
    return buckets_.data() + (at - start_) / bucket_width_;
  }

  Cycle start_ = 0;
  u32 bucket_width_ = 1;
  Cycle end_ = 0;  ///< start_ + num_buckets() * bucket_width_
  std::vector<Bucket> buckets_;
};

}  // namespace ofar
