#ifndef CLYDESDALE_OBS_METRICS_H_
#define CLYDESDALE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace clydesdale {
namespace obs {

/// Instantaneous value (slot occupancy, queue depth, bytes in flight).
/// Updates are single relaxed atomic ops — safe to hammer from the
/// executor hot path with no lock.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Monotone event count (Prometheus counter semantics: only ever goes up).
class Counter {
 public:
  void Inc() { Add(1); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

enum class MetricKind { kGauge, kCounter, kHistogram };

/// One flattened sample row: `name{label="v"}` -> int64. Histogram
/// children expand to `<name>_count` and `<name>_sum` rows so a sample is
/// always a single int64 — the unit the poller's time series stores.
struct MetricSampleRow {
  std::string key;  ///< e.g. `mr_running_map_tasks{node="0"}`
  int64_t value = 0;
};

/// One named metric family: a fixed kind and label-key set, with one child
/// cell per distinct label-value tuple (the Prometheus data model). Children
/// are created on first use and never removed, so returned pointers stay
/// valid for the registry's lifetime and the update path is one atomic op.
class MetricFamily {
 public:
  MetricFamily(std::string name, MetricKind kind,
               std::vector<std::string> label_keys);

  MetricFamily(const MetricFamily&) = delete;
  MetricFamily& operator=(const MetricFamily&) = delete;

  MetricKind kind() const { return kind_; }

  /// Child accessors; `label_values` must match the family's label keys in
  /// arity and the accessor must match the family's kind (checked fatally —
  /// a kind mismatch is a programming error, not an input error).
  Gauge* GaugeAt(std::vector<std::string> label_values = {});
  Counter* CounterAt(std::vector<std::string> label_values = {});
  Histogram* HistogramAt(std::vector<std::string> label_values = {});

  /// Flattened rows for the poller (histograms -> _count and _sum).
  void AppendSamples(std::vector<MetricSampleRow>* out) const;

 private:
  struct Cell {
    Gauge gauge;          // used when kind == kGauge
    Counter counter;      // used when kind == kCounter
    Histogram histogram;  // used when kind == kHistogram
  };

  Cell* CellAt(std::vector<std::string> label_values);
  /// `{k1="v1",k2="v2"}` with Prometheus label-value escaping; "" when the
  /// family has no labels.
  std::string LabelString(const std::vector<std::string>& values) const;

  const std::string name_;
  const MetricKind kind_;
  const std::vector<std::string> label_keys_;

  mutable std::mutex mu_;
  std::map<std::vector<std::string>, std::unique_ptr<Cell>> cells_;
};

/// Process-wide (per MrCluster) registry of metric families, the analogue of
/// the stats the Hadoop JobTracker UI scrapes. Families are registered
/// lazily and never removed; re-registering a name returns the existing
/// family (kind must match). Sampling never blocks updates — readers take
/// only the registry map lock and each family's child-map lock, while the
/// hot path touches pre-resolved atomic cells.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or returns the existing) family `name`.
  MetricFamily* Family(const std::string& name, MetricKind kind,
                       std::vector<std::string> label_keys = {});

  /// Null when no family of that name was registered.
  const MetricFamily* Find(const std::string& name) const;

  /// Flattened rows of every family, in name order (one poller sample).
  std::vector<MetricSampleRow> Samples() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricFamily>> families_;
};

}  // namespace obs
}  // namespace clydesdale

#endif  // CLYDESDALE_OBS_METRICS_H_
