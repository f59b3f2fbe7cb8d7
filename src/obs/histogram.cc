#include "obs/histogram.h"

#include <algorithm>
#include <bit>

namespace clydesdale {
namespace obs {

int Histogram::BucketFor(int64_t value) {
  if (value < 0) value = 0;
  if (value < kSubBuckets) return static_cast<int>(value);
  // msb >= 5 here; split [2^msb, 2^(msb+1)) into kSubBuckets slices.
  const int msb = 63 - std::countl_zero(static_cast<uint64_t>(value));
  const int sub = static_cast<int>((value >> (msb - 5)) & (kSubBuckets - 1));
  return (msb - 4) * kSubBuckets + sub;
}

int64_t Histogram::BucketLowerBound(int bucket) {
  if (bucket < kSubBuckets) return bucket;
  const int msb = bucket / kSubBuckets + 4;
  const int sub = bucket % kSubBuckets;
  return static_cast<int64_t>(kSubBuckets + sub) << (msb - 5);
}

Histogram::Histogram(const Histogram& other) { *this = other; }

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  buckets_ = other.buckets_;
  count_ = other.count_;
  sum_ = other.sum_;
  min_ = other.min_;
  max_ = other.max_;
  return *this;
}

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  ++buckets_[BucketFor(value)];
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += value;
}

int64_t Histogram::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

int64_t Histogram::Sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

int64_t Histogram::Min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

int64_t Histogram::Max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::Mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
}

int64_t Histogram::PercentileLocked(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th value, 1-based; q=0 means the first value.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(q * static_cast<double>(count_) + 0.5));
  int64_t seen = 0;
  for (int i = 0; i < static_cast<int>(buckets_.size()); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return std::clamp(BucketLowerBound(i), min_, max_);
  }
  return max_;
}

int64_t Histogram::Percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PercentileLocked(q);
}

void Histogram::MergeFrom(const Histogram& other) {
  if (this == &other) return;
  std::scoped_lock lock(mu_, other.mu_);
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

HistogramRegistry::HistogramRegistry(const HistogramRegistry& other) {
  *this = other;
}

HistogramRegistry& HistogramRegistry::operator=(const HistogramRegistry& other) {
  if (this == &other) return *this;
  auto snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  histograms_.clear();
  for (auto& [name, histogram] : snapshot) {
    histograms_[name] = std::make_unique<Histogram>(histogram);
  }
  return *this;
}

Histogram* HistogramRegistry::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

const Histogram* HistogramRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::map<std::string, Histogram> HistogramRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Histogram> out;
  for (const auto& [name, histogram] : histograms_) out[name] = *histogram;
  return out;
}

}  // namespace obs
}  // namespace clydesdale
