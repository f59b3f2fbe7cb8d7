#ifndef CLYDESDALE_OBS_METRICS_POLLER_H_
#define CLYDESDALE_OBS_METRICS_POLLER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace clydesdale {
namespace obs {

/// One timestamped registry snapshot.
struct MetricsSample {
  int64_t t_ms = 0;  ///< milliseconds since the poller started
  std::vector<MetricSampleRow> rows;

  /// Value of a flattened key (`name{label="v"}`), 0 when absent.
  int64_t Value(const std::string& key) const;
};

/// The sampled trajectory of a registry over one job — what the Hadoop
/// JobTracker UI plots as slot occupancy / shuffle backlog over time.
struct MetricsTimeSeries {
  int64_t interval_ms = 0;
  std::vector<MetricsSample> samples;

  /// Largest value the key reached across all samples (0 when never seen).
  int64_t MaxValue(const std::string& key) const;

  /// {"interval_ms":...,"samples":[{"t_ms":...,"values":{key:value,...}}]}
  std::string ToJson() const;
};

/// Background sampler: every `interval_ms` it runs the registered probes
/// (callbacks that refresh derived gauges — e.g. the straggler check) and
/// appends one registry snapshot to the series. Stop() takes a final
/// sample so the series always covers the job's end state.
class MetricsPoller {
 public:
  MetricsPoller(const MetricsRegistry* registry, int64_t interval_ms);
  ~MetricsPoller();  ///< Stops (without harvesting) if still running.

  MetricsPoller(const MetricsPoller&) = delete;
  MetricsPoller& operator=(const MetricsPoller&) = delete;

  /// Registers a per-tick callback; must be called before Start. Probes run
  /// on the poller thread, before each snapshot.
  void AddProbe(std::function<void()> probe);

  void Start();

  /// Signals the thread, joins it, runs the probes once more, takes the
  /// final sample, and returns the series. Idempotent (subsequent calls
  /// return an empty series).
  MetricsTimeSeries Stop();

  /// Samples taken so far (approximate while running).
  size_t num_samples() const;

 private:
  void Loop();
  void TakeSample(int64_t t_ms);

  const MetricsRegistry* const registry_;
  const int64_t interval_ms_;
  std::vector<std::function<void()>> probes_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  MetricsTimeSeries series_;
  std::thread thread_;
};

}  // namespace obs
}  // namespace clydesdale

#endif  // CLYDESDALE_OBS_METRICS_POLLER_H_
