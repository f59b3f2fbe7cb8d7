#ifndef CLYDESDALE_MAPREDUCE_CLUSTER_METRICS_H_
#define CLYDESDALE_MAPREDUCE_CLUSTER_METRICS_H_

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace clydesdale {
namespace mr {

// Conf keys gating the live-observability subsystem.
inline constexpr const char kConfMetricsEnabled[] = "obs.metrics.enabled";
inline constexpr const char kConfStragglerThreshold[] = "obs.straggler.threshold";
inline constexpr const char kConfStragglerMinCompleted[] =
    "obs.straggler.min_completed";
inline constexpr const char kConfProfileEnabled[] = "obs.profile.enabled";
/// Engine-computed estimate of the job's dimension hash-table footprint
/// (bytes), consulted by admission control against JobConf::mem_budget_bytes.
inline constexpr const char kConfMemEstimateBytes[] = "obs.mem.estimate_bytes";

/// Which subsystem a metric family describes.
enum class MetricGroup {
  kExecutor,  ///< slots, queues, attempts, shuffle, stragglers, jobs
  kMem,       ///< MemTracker tree, labeled {node="N"}, poller-sampled
  kCache,     ///< serving-mode dim-table cache, poller-sampled
};

// Every metric family the mapreduce layer exposes (what the Hadoop
// JobTracker UI would scrape), declared once: X(constant, exposed name,
// group, kind, comma-separated label keys), with what it measures in the
// comment above it. The kMetric* constants, StandardMetricFamilyNames() and
// the ClusterMetrics registrations all expand from this table.
//
// kMem: current and high-water tracked bytes per node, and the same summed
// over every job tracker currently parented under that node. kCache: the
// cross-query dim-table cache's resident bytes and entry count, sampled
// through MrCluster's cache stats probe; zero unless a query server is
// attached.
#define CLY_MR_METRIC_FAMILIES(X)                                              \
  /* Map task attempts running on each node */                                 \
  X(kMetricRunningMaps, "mr_running_map_tasks", kExecutor, kGauge, "node")     \
  /* Reduce task attempts running on each node */                              \
  X(kMetricRunningReduces, "mr_running_reduce_tasks", kExecutor, kGauge,       \
    "node")                                                                    \
  /* Map attempts queued and not yet claimed by a tracker */                   \
  X(kMetricQueuedMaps, "mr_queued_map_attempts", kExecutor, kGauge, "")        \
  /* Reduce attempts queued and not yet claimed by a tracker */                \
  X(kMetricQueuedReduces, "mr_queued_reduce_attempts", kExecutor, kGauge, "")  \
  /* Task attempts finished by kind and outcome */                             \
  X(kMetricAttemptsFinished, "mr_task_attempts_finished_total", kExecutor,     \
    kCounter, "kind,outcome")                                                  \
  /* Task attempt wall time in microseconds */                                 \
  X(kMetricAttemptDuration, "mr_task_attempt_duration_micros", kExecutor,      \
    kHistogram, "kind")                                                        \
  /* Sorted shuffle runs published by map attempts */                          \
  X(kMetricShuffleRunsPublished, "mr_shuffle_runs_published_total",            \
    kExecutor, kCounter, "")                                                   \
  /* Shuffle runs fetched by reduce attempts */                                \
  X(kMetricShuffleRunsFetched, "mr_shuffle_runs_fetched_total", kExecutor,     \
    kCounter, "")                                                              \
  /* Shuffle bytes published but not yet fetched */                            \
  X(kMetricShuffleBytesInflight, "mr_shuffle_bytes_inflight", kExecutor,       \
    kGauge, "")                                                                \
  /* Running attempts currently flagged as stragglers */                       \
  X(kMetricStragglersRunning, "mr_straggler_attempts_running", kExecutor,      \
    kGauge, "")                                                                \
  /* Attempts ever flagged as stragglers */                                    \
  X(kMetricStragglersTotal, "mr_straggler_attempts_total", kExecutor,          \
    kCounter, "")                                                              \
  /* Jobs currently executing */                                               \
  X(kMetricJobsRunning, "mr_jobs_running", kExecutor, kGauge, "")              \
  /* Tracked memory bytes resident on each node */                             \
  X(kMetricMemNodeBytes, "cly_mem_node_bytes", kMem, kGauge, "node")           \
  /* High-water tracked memory bytes on each node */                           \
  X(kMetricMemNodePeakBytes, "cly_mem_node_peak_bytes", kMem, kGauge, "node")  \
  /* Tracked memory bytes of running jobs on each node */                      \
  X(kMetricMemJobBytes, "cly_mem_job_bytes", kMem, kGauge, "node")             \
  /* High-water tracked memory bytes of jobs on each node */                   \
  X(kMetricMemJobPeakBytes, "cly_mem_job_peak_bytes", kMem, kGauge, "node")    \
  /* Resident bytes in the cross-query dim-table cache */                      \
  X(kMetricCacheBytes, "cly_cache_bytes", kCache, kGauge, "")                  \
  /* Resident entries in the cross-query dim-table cache */                    \
  X(kMetricCacheEntries, "cly_cache_entries", kCache, kGauge, "")

#define CLY_DECLARE_METRIC_FAMILY(id, name, group, kind, labels) \
  inline constexpr const char id[] = name;
CLY_MR_METRIC_FAMILIES(CLY_DECLARE_METRIC_FAMILY)
#undef CLY_DECLARE_METRIC_FAMILY

/// Every metric family name above, in table order.
std::vector<std::string> StandardMetricFamilyNames();

/// The metric families of `group`, in table order.
std::vector<std::string> MetricFamilyNames(MetricGroup group);

/// Pre-resolved handles into a MetricsRegistry for the executor hot path:
/// one atomic cell per gauge/counter so claims and finishes never touch the
/// registry maps. Owned by MrCluster (one per cluster, like the JobTracker's
/// live stats), shared by every concurrently running JobRunner.
class ClusterMetrics {
 public:
  /// Registers all standard families in `registry` and resolves per-node
  /// children for nodes [0, num_nodes).
  ClusterMetrics(obs::MetricsRegistry* registry, int num_nodes);

  ClusterMetrics(const ClusterMetrics&) = delete;
  ClusterMetrics& operator=(const ClusterMetrics&) = delete;

  int num_nodes() const { return static_cast<int>(running_maps_.size()); }

  // Per-node slot occupancy, labeled {node="N"}.
  obs::Gauge* running_maps(int node) { return running_maps_[node]; }
  obs::Gauge* running_reduces(int node) { return running_reduces_[node]; }

  // Scheduler queue depth (attempts not yet claimed by any tracker).
  obs::Gauge* queued_maps() { return queued_maps_; }
  obs::Gauge* queued_reduces() { return queued_reduces_; }

  // Attempt outcomes, labeled {kind,outcome}; kind is "map"/"reduce",
  // outcome is "succeeded"/"failed"/"killed".
  obs::Counter* attempts_finished(bool is_map, const std::string& outcome);
  obs::Histogram* attempt_duration(bool is_map) {
    return is_map ? map_duration_ : reduce_duration_;
  }

  // Pipelined shuffle: published vs fetched runs and the bytes published
  // but not yet taken by a reducer.
  obs::Counter* shuffle_runs_published() { return shuffle_runs_published_; }
  obs::Counter* shuffle_runs_fetched() { return shuffle_runs_fetched_; }
  obs::Gauge* shuffle_bytes_inflight() { return shuffle_bytes_inflight_; }

  // Online straggler detector: currently-flagged attempts and the monotone
  // total of flag events.
  obs::Gauge* stragglers_running() { return stragglers_running_; }
  obs::Counter* stragglers_total() { return stragglers_total_; }

  obs::Gauge* jobs_running() { return jobs_running_; }

  // MemTracker exposition, labeled {node="N"} (poller-sampled).
  obs::Gauge* mem_node_bytes(int node) { return mem_node_bytes_[node]; }
  obs::Gauge* mem_node_peak_bytes(int node) {
    return mem_node_peak_bytes_[node];
  }
  obs::Gauge* mem_job_bytes(int node) { return mem_job_bytes_[node]; }
  obs::Gauge* mem_job_peak_bytes(int node) { return mem_job_peak_bytes_[node]; }

  // Serving-mode dim-table cache exposition (poller-sampled).
  obs::Gauge* cache_bytes() { return cache_bytes_; }
  obs::Gauge* cache_entries() { return cache_entries_; }

 private:
  std::vector<obs::Gauge*> running_maps_;
  std::vector<obs::Gauge*> running_reduces_;
  obs::Gauge* queued_maps_;
  obs::Gauge* queued_reduces_;
  obs::MetricFamily* attempts_finished_;
  obs::Histogram* map_duration_;
  obs::Histogram* reduce_duration_;
  obs::Counter* shuffle_runs_published_;
  obs::Counter* shuffle_runs_fetched_;
  obs::Gauge* shuffle_bytes_inflight_;
  obs::Gauge* stragglers_running_;
  obs::Counter* stragglers_total_;
  obs::Gauge* jobs_running_;
  std::vector<obs::Gauge*> mem_node_bytes_;
  std::vector<obs::Gauge*> mem_node_peak_bytes_;
  std::vector<obs::Gauge*> mem_job_bytes_;
  std::vector<obs::Gauge*> mem_job_peak_bytes_;
  obs::Gauge* cache_bytes_;
  obs::Gauge* cache_entries_;
};

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_CLUSTER_METRICS_H_
