#ifndef CLYDESDALE_MAPREDUCE_JOB_TRACE_H_
#define CLYDESDALE_MAPREDUCE_JOB_TRACE_H_

#include <string>

#include "common/status.h"
#include "mapreduce/job_report.h"

namespace clydesdale {
namespace mr {

/// Trace output directory (JobConf string property; engines forward it from
/// ObsOptions::trace_dir). When set, it must be an existing directory, and
/// the engine writes one bundle per job into it (WriteJobBundle). Spans are
/// recorded into JobReport::spans whether or not it is set.
inline constexpr const char kConfTraceDir[] = "obs.trace.dir";

// Standard histogram names maintained by the engine (JobReport::histograms).
inline constexpr const char kHistMapTaskMicros[] = "MAP_TASK_MICROS";
inline constexpr const char kHistReduceTaskMicros[] = "REDUCE_TASK_MICROS";
inline constexpr const char kHistShuffleFetchBytes[] = "SHUFFLE_FETCH_BYTES";
inline constexpr const char kHistShuffleFetchMicros[] = "SHUFFLE_FETCH_MICROS";
inline constexpr const char kHistReduceGroupSize[] = "REDUCE_GROUP_SIZE";
/// Per-read latency distribution behind the HDFS_READ_MICROS counter.
inline constexpr const auto& kHistHdfsReadMicros = kCounterHdfsReadMicros;

/// The straggler chain of one job: the slowest map feeds the shuffle
/// barrier, which gates the slowest reduce (the classic MapReduce
/// critical path). Skew = slowest / mean task time per phase; a skew near
/// 1 means the phase is balanced, large skew names the straggler.
struct CriticalPathReport {
  double setup_seconds = 0;       ///< pre-map work (splits, cache, open)
  double map_phase_seconds = 0;   ///< start of first map to last map done
  double reduce_phase_seconds = 0;
  double commit_seconds = 0;
  /// Pipelined shuffle: how long reducers were fetching while maps still
  /// ran (the derived "shuffle-overlap" span). 0 = hard barrier.
  double shuffle_overlap_seconds = 0;
  double wall_seconds = 0;

  int slowest_map = -1;  ///< task index, -1 when the job had no maps
  hdfs::NodeId slowest_map_node = hdfs::kNoNode;
  double slowest_map_seconds = 0;
  double map_skew = 0;

  int slowest_reduce = -1;  ///< -1 for map-only jobs
  hdfs::NodeId slowest_reduce_node = hdfs::kNoNode;
  double slowest_reduce_seconds = 0;
  double reduce_skew = 0;

  /// "m-3@node1 (1.2s, skew 1.8) -> shuffle barrier -> r-0@node2 ...".
  std::string ToString() const;
};

/// Derives the straggler chain and per-phase skew from a finished report.
/// Phase durations come from the report's phase spans; a phase with no span
/// (reduce-phase of a map-only job) reads 0.
CriticalPathReport CriticalPath(const JobReport& report);

/// Writes the job's one observability artifact,
/// `<dir>/<job_name>-<instance>.trace.json`: a Chrome trace_event object
/// (chrome://tracing and Perfetto open it) whose "traceEvents" are the
/// report's spans, plus a "profile" member (ExplainAnalyzeJson) when the
/// job was profiled and a "metrics" member (MetricsTimeSeries::ToJson)
/// when its metrics were sampled. The engine calls it when kConfTraceDir
/// is set.
Status WriteJobBundle(const JobReport& report, const std::string& dir,
                      int64_t instance);

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_JOB_TRACE_H_
