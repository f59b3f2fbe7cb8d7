#include "mapreduce/cluster_metrics.h"

#include <map>

#include "common/strings.h"

namespace clydesdale {
namespace mr {

std::vector<std::string> StandardMetricFamilyNames() {
  std::vector<std::string> names;
#define CLY_LIST_FAMILY(id, name, group, kind, labels) names.push_back(id);
  CLY_MR_METRIC_FAMILIES(CLY_LIST_FAMILY)
#undef CLY_LIST_FAMILY
  return names;
}

std::vector<std::string> MetricFamilyNames(MetricGroup group) {
  std::vector<std::string> names;
#define CLY_LIST_FAMILY(id, name, row_group, kind, labels) \
  if (MetricGroup::row_group == group) names.push_back(id);
  CLY_MR_METRIC_FAMILIES(CLY_LIST_FAMILY)
#undef CLY_LIST_FAMILY
  return names;
}

ClusterMetrics::ClusterMetrics(obs::MetricsRegistry* registry, int num_nodes) {
  std::map<std::string, obs::MetricFamily*> families;
#define CLY_REGISTER_FAMILY(id, name, group, kind, labels)                \
  families[id] = registry->Family(                                        \
      id, obs::MetricKind::kind,                                          \
      *labels == '\0' ? std::vector<std::string>{} : StrSplit(labels, ','));
  CLY_MR_METRIC_FAMILIES(CLY_REGISTER_FAMILY)
#undef CLY_REGISTER_FAMILY
  auto family = [&families](const char* name) { return families.at(name); };

  for (int node = 0; node < num_nodes; ++node) {
    const std::string label = StrCat(node);
    running_maps_.push_back(family(kMetricRunningMaps)->GaugeAt({label}));
    running_reduces_.push_back(family(kMetricRunningReduces)->GaugeAt({label}));
    mem_node_bytes_.push_back(family(kMetricMemNodeBytes)->GaugeAt({label}));
    mem_node_peak_bytes_.push_back(
        family(kMetricMemNodePeakBytes)->GaugeAt({label}));
    mem_job_bytes_.push_back(family(kMetricMemJobBytes)->GaugeAt({label}));
    mem_job_peak_bytes_.push_back(
        family(kMetricMemJobPeakBytes)->GaugeAt({label}));
  }
  queued_maps_ = family(kMetricQueuedMaps)->GaugeAt();
  queued_reduces_ = family(kMetricQueuedReduces)->GaugeAt();
  attempts_finished_ = family(kMetricAttemptsFinished);
  map_duration_ = family(kMetricAttemptDuration)->HistogramAt({"map"});
  reduce_duration_ = family(kMetricAttemptDuration)->HistogramAt({"reduce"});
  shuffle_runs_published_ = family(kMetricShuffleRunsPublished)->CounterAt();
  shuffle_runs_fetched_ = family(kMetricShuffleRunsFetched)->CounterAt();
  shuffle_bytes_inflight_ = family(kMetricShuffleBytesInflight)->GaugeAt();
  stragglers_running_ = family(kMetricStragglersRunning)->GaugeAt();
  stragglers_total_ = family(kMetricStragglersTotal)->CounterAt();
  jobs_running_ = family(kMetricJobsRunning)->GaugeAt();
  cache_bytes_ = family(kMetricCacheBytes)->GaugeAt();
  cache_entries_ = family(kMetricCacheEntries)->GaugeAt();
}

obs::Counter* ClusterMetrics::attempts_finished(bool is_map,
                                                const std::string& outcome) {
  return attempts_finished_->CounterAt({is_map ? "map" : "reduce", outcome});
}

}  // namespace mr
}  // namespace clydesdale
