#include "mapreduce/job_trace.h"

#include <fstream>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/chrome_trace.h"

namespace clydesdale {
namespace mr {

namespace {

/// Slowest task + skew (max / mean wall time) over one phase's tasks.
struct PhaseSkew {
  int slowest = -1;
  hdfs::NodeId slowest_node = hdfs::kNoNode;
  double slowest_seconds = 0;
  double skew = 0;
};

PhaseSkew ComputeSkew(const std::vector<TaskReport>& tasks) {
  PhaseSkew out;
  if (tasks.empty()) return out;
  double total = 0;
  for (const TaskReport& t : tasks) {
    total += t.wall_seconds;
    if (t.wall_seconds > out.slowest_seconds) {
      out.slowest_seconds = t.wall_seconds;
      out.slowest = t.index;
      out.slowest_node = t.node;
    }
  }
  const double mean = total / static_cast<double>(tasks.size());
  out.skew = mean > 0 ? out.slowest_seconds / mean : 0;
  return out;
}

/// Duration (seconds) of the first span named `name`, or 0 when the job had
/// no such phase.
double PhaseSeconds(const JobReport& report, const char* name) {
  for (const obs::SpanRecord& span : report.spans) {
    if (span.name == name) {
      return static_cast<double>(span.dur_us) * 1e-6;
    }
  }
  return 0;
}

}  // namespace

CriticalPathReport CriticalPath(const JobReport& report) {
  CriticalPathReport out;
  out.wall_seconds = report.wall_seconds;

  const PhaseSkew map_skew = ComputeSkew(report.map_tasks);
  out.slowest_map = map_skew.slowest;
  out.slowest_map_node = map_skew.slowest_node;
  out.slowest_map_seconds = map_skew.slowest_seconds;
  out.map_skew = map_skew.skew;

  const PhaseSkew reduce_skew = ComputeSkew(report.reduce_tasks);
  out.slowest_reduce = reduce_skew.slowest;
  out.slowest_reduce_node = reduce_skew.slowest_node;
  out.slowest_reduce_seconds = reduce_skew.slowest_seconds;
  out.reduce_skew = reduce_skew.skew;

  out.setup_seconds = PhaseSeconds(report, "setup");
  out.map_phase_seconds = PhaseSeconds(report, "map-phase");
  out.reduce_phase_seconds = PhaseSeconds(report, "reduce-phase");
  out.commit_seconds = PhaseSeconds(report, "commit");
  out.shuffle_overlap_seconds = PhaseSeconds(report, "shuffle-overlap");
  return out;
}

std::string CriticalPathReport::ToString() const {
  std::string out = StrCat("critical path (", FormatDouble(wall_seconds, 3),
                           "s wall): setup ", FormatDouble(setup_seconds, 3),
                           "s -> ");
  if (slowest_map >= 0) {
    out += StrCat("m-", slowest_map, "@node", slowest_map_node, " (",
                  FormatDouble(slowest_map_seconds, 3), "s, skew ",
                  FormatDouble(map_skew, 2), ")");
  } else {
    out += "no maps";
  }
  if (slowest_reduce >= 0) {
    // "shuffle overlap" replaces "shuffle barrier" when reducers were
    // already fetching during the map phase (pipelined shuffle).
    out += shuffle_overlap_seconds > 0
               ? StrCat(" -> shuffle overlap ",
                        FormatDouble(shuffle_overlap_seconds, 3), "s -> r-",
                        slowest_reduce, "@node", slowest_reduce_node, " (",
                        FormatDouble(slowest_reduce_seconds, 3), "s, skew ",
                        FormatDouble(reduce_skew, 2), ")")
               : StrCat(" -> shuffle barrier -> r-", slowest_reduce, "@node",
                        slowest_reduce_node, " (",
                        FormatDouble(slowest_reduce_seconds, 3), "s, skew ",
                        FormatDouble(reduce_skew, 2), ")");
  } else {
    out += " -> map-only";
  }
  out += StrCat(" -> commit ", FormatDouble(commit_seconds, 3), "s");
  return out;
}

Status WriteJobBundle(const JobReport& report, const std::string& dir,
                      int64_t instance) {
  std::vector<std::pair<std::string, std::string>> extra;
  if (!report.profile.empty()) {
    extra.emplace_back("profile", obs::ExplainAnalyzeJson(report.profile));
  }
  if (!report.metrics_series.samples.empty()) {
    extra.emplace_back("metrics", report.metrics_series.ToJson());
  }
  const std::string path =
      StrCat(dir, "/", report.job_name, "-", instance, ".trace.json");
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::IoError("cannot open trace file: " + path);
  file << obs::ChromeTraceJson(report.spans, report.job_name, extra);
  file.close();
  if (!file) return Status::IoError("short write to trace file: " + path);
  return Status::OK();
}

}  // namespace mr
}  // namespace clydesdale
