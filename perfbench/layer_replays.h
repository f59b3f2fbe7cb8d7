// Isolated per-layer replays for the traced run: the hdfs, storage, core,
// mapreduce and sql public calls timed on their own, against the workload's
// loaded cluster (so at its block size and scale factor). Their rates sit
// next to the in-engine rates in the traced run's layer table.

#ifndef CLYDESDALE_PERFBENCH_LAYER_REPLAYS_H_
#define CLYDESDALE_PERFBENCH_LAYER_REPLAYS_H_

#include <string>
#include <vector>

#include "bench_support.h"
#include "core/star_query.h"
#include "mapreduce/engine.h"
#include "ssb/loader.h"

namespace perfbench {

/// Isolated rates, for the layer table.
struct IsolatedRates {
  double hdfs_read_mb_per_s = 0;
  double scan_rows_per_s_full = 0;
  double scan_rows_per_s_q11 = 0;
  double probe_rows_per_s = 0;
  double noop_job_ms = 0;
  double parse_us_p50 = 0;
};

/// DFS paths of the fact table's CIF column files.
std::vector<std::string> FactColumnFiles(const clydesdale::ssb::SsbDataset& ds);

/// Runs every replay once, recording spans into `tracer`, and adds the
/// isolated per-layer metrics (hdfs.*, storage.list_splits_ms,
/// storage.scan_rows_per_s_*, core.dim_build_ms.*, core.probe_rows_per_s,
/// mapreduce.noop_job_ms) to `metrics`. `shapes` are the workload's query
/// specs, whose dimension joins the build replay uses; `sql` are SQL texts
/// whose parse time is measured.
IsolatedRates RunLayerReplays(
    clydesdale::mr::MrCluster* cluster,
    const clydesdale::ssb::SsbDataset& dataset,
    const std::vector<clydesdale::core::StarQuerySpec>& shapes,
    const std::vector<std::string>& sql, Tracer* tracer, MetricSet* metrics);

}  // namespace perfbench

#endif  // CLYDESDALE_PERFBENCH_LAYER_REPLAYS_H_
