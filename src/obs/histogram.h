#ifndef CLYDESDALE_OBS_HISTOGRAM_H_
#define CLYDESDALE_OBS_HISTOGRAM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace clydesdale {
namespace obs {

/// HDR-style fixed-bucket histogram for non-negative int64 values.
///
/// Values < 32 get exact unit buckets; above that each power-of-two range
/// is split into 32 sub-buckets, giving a worst-case quantile error of
/// ~3% across the full int64 range with a fixed ~2K-bucket footprint and
/// O(1) Record(). Thread-safe; for hot paths prefer recording into a
/// task-local Histogram and merging once via MergeFrom().
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void Record(int64_t value);

  int64_t Count() const;
  int64_t Sum() const;
  int64_t Min() const;  ///< smallest recorded value (0 when empty)
  int64_t Max() const;  ///< largest recorded value (0 when empty)
  double Mean() const;  ///< 0 when empty

  /// Value at quantile q in [0, 1] (e.g. 0.95): the lower bound of the
  /// bucket holding the q-th recorded value, clamped to [Min, Max] so
  /// exact small counts round-trip. Returns 0 when empty.
  int64_t Percentile(double q) const;

  /// Accumulates every bucket of `other` into this histogram.
  void MergeFrom(const Histogram& other);

 private:
  // 32 unit buckets + 59 power-of-two ranges x 32 sub-buckets.
  static constexpr int kSubBuckets = 32;
  static constexpr int kNumBuckets = kSubBuckets + 59 * kSubBuckets;

  static int BucketFor(int64_t value);
  static int64_t BucketLowerBound(int bucket);

  int64_t PercentileLocked(double q) const;

  mutable std::mutex mu_;
  std::vector<int64_t> buckets_;  ///< lazily sized to kNumBuckets
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// Named histograms for a job, mirroring how `mr::Counters` maps names to
/// totals. Get() lazily creates; pointers remain valid for the registry's
/// lifetime (histograms are never removed).
class HistogramRegistry {
 public:
  HistogramRegistry() = default;
  HistogramRegistry(const HistogramRegistry& other);
  HistogramRegistry& operator=(const HistogramRegistry& other);

  /// The histogram registered under `name`, creating it if absent.
  Histogram* Get(const std::string& name);

  /// Null when `name` was never recorded to.
  const Histogram* Find(const std::string& name) const;

  /// Name -> snapshot, sorted by name.
  std::map<std::string, Histogram> Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace clydesdale

#endif  // CLYDESDALE_OBS_HISTOGRAM_H_
