// Reproduces the paper's §6.3 stage-by-stage breakdown of query 2.1 on
// Cluster A at SF1000: Clydesdale (~215 s total: ~27 s hash build, ~164 s
// probe at ~67 MB/s, <10 s sort) versus Hive's five-stage mapjoin plan
// (~15,142 s) and repartition plan (~17,700 s).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "core/clydesdale.h"
#include "mapreduce/job_trace.h"
#include "obs/query_profile.h"

using namespace clydesdale;        // NOLINT(build/namespaces)
using namespace clydesdale::bench; // NOLINT(build/namespaces)

namespace {

/// Walks the merged profile checking the EXPLAIN ANALYZE invariants from the
/// acceptance list: selectivities stay in [0,1] and wall(sum) bounds
/// wall(max) on every node.
void CheckNodeInvariants(const obs::OperatorProfile& node) {
  if (node.rows_in > 0) {
    const double sel = node.selectivity();
    CLY_CHECK(sel >= 0.0 && sel <= 1.0);
  }
  CLY_CHECK(node.wall_ns >= node.wall_max_ns);
  for (const obs::OperatorProfile& child : node.children) {
    CheckNodeInvariants(child);
  }
}

/// Finds the first node named `name` (exact or prefix for scan:<path>)
/// anywhere in the profile tree.
const obs::OperatorProfile* FindNode(const obs::OperatorProfile& node,
                                     const char* prefix) {
  if (node.name.compare(0, std::strlen(prefix), prefix) == 0) return &node;
  for (const obs::OperatorProfile& child : node.children) {
    if (const obs::OperatorProfile* hit = FindNode(child, prefix)) return hit;
  }
  return nullptr;
}

void PrintOutcome(const char* label, const sim::SimOutcome& outcome) {
  std::printf("%s: %.0f s total\n", label, outcome.seconds);
  for (const sim::StageResult& stage : outcome.stages) {
    std::printf("  %-28s %8.0f s   (%d tasks, avg task %.1f s)\n",
                stage.name.c_str(), stage.seconds, stage.num_tasks,
                stage.avg_task_s);
  }
  if (outcome.oom) std::printf("  OOM: %s\n", outcome.oom_detail.c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  BenchEnv env = LoadBenchEnv();
  const sim::ClusterSpec spec = sim::ClusterSpec::ClusterA();
  sim::ModelOptions options;
  options.target_sf = TargetScaleFactor();

  auto query = ssb::QueryById("Q2.1");
  CLY_CHECK(query.ok());
  auto m = sim::MeasureQuery(env.cluster.get(), env.dataset, *query);
  CLY_CHECK(m.ok());

  std::printf("Query 2.1 breakdown on Cluster A at SF%.0f (paper §6.3)\n\n",
              options.target_sf);
  std::printf(
      "measured widths: %.1f B/row projected CIF (paper task read 10.8 GB "
      "per node), %.1f B/row full CIF, %.1f B/row RCFile\n\n",
      m->cif_projected_width, m->cif_full_width, m->rcfile_full_width);

  auto cly = sim::ModelClydesdale(spec, *m, options);
  CLY_CHECK(cly.ok());
  PrintOutcome("Clydesdale (paper: 215 s; 27 s build + 164 s probe)", *cly);

  auto mj = sim::ModelHive(spec, *m, hive::JoinStrategy::kMapJoin, options);
  CLY_CHECK(mj.ok());
  PrintOutcome(
      "Hive mapjoin (paper: 15,142 s; stages 2640 / 2040 / 9180 / 720 / 19)",
      *mj);

  auto rp = sim::ModelHive(spec, *m, hive::JoinStrategy::kRepartition,
                           options);
  CLY_CHECK(rp.ok());
  PrintOutcome(
      "Hive repartition (paper: 17,700 s; stages 9720 / 7140 / 420 + agg)",
      *rp);

  std::printf("speedups: %.0fx over mapjoin, %.0fx over repartition "
              "(paper: ~70x, ~82x)\n",
              mj->seconds / cly->seconds, rp->seconds / cly->seconds);

  // With CLY_TRACE_DIR or CLY_MEMORY_JSON set, re-run Q2.1 once through the
  // functional engine with the full observability stack on: the measured
  // counterpart of the modeled breakdown above. With CLY_TRACE_DIR the job
  // writes its one bundle there (<job>-<instance>.trace.json: the Chrome
  // trace for chrome://tracing / Perfetto, plus "profile" and "metrics"),
  // which run_benches.sh publishes as BENCH_q21.json.
  const char* trace_dir = std::getenv("CLY_TRACE_DIR");
  const char* memory_json = std::getenv("CLY_MEMORY_JSON");
  const bool traced = trace_dir != nullptr && trace_dir[0] != '\0';
  const bool memory = memory_json != nullptr && memory_json[0] != '\0';
  if (traced || memory) {
    core::ClydesdaleOptions copts;
    if (traced) copts.obs.trace_dir = trace_dir;
    copts.obs.metrics = true;
    copts.obs.profile = true;
    core::ClydesdaleEngine engine(env.cluster.get(), env.dataset.star, copts);
    auto run = engine.Execute(*query);
    CLY_CHECK(run.ok());
    const mr::JobReport& report = run->stage_reports[0];
    std::printf("\nobserved functional run (SF%g): %s\n",
                MeasurementScaleFactor(),
                mr::CriticalPath(report).ToString().c_str());
    std::printf("live metrics: %zu samples, %lld straggler flag(s)\n",
                report.metrics_series.samples.size(),
                static_cast<long long>(
                    report.counters.Get(mr::kCounterStragglerAttempts)));

    // EXPLAIN ANALYZE acceptance invariants on the merged profile: the fact
    // scan feeds the probe row-for-row, every selectivity is a real
    // fraction, and the profiled task-attempt envelope accounts for the job
    // wall clock (within 5%, minus a 2 ms floor for sub-smoke runs where
    // split planning dominates).
    const obs::QueryProfile& profile = report.profile;
    CLY_CHECK(!profile.empty());
    for (const obs::OperatorProfile& root : profile.roots) {
      CheckNodeInvariants(root);
    }
    const obs::OperatorProfile* map_root = nullptr;
    for (const obs::OperatorProfile& root : profile.roots) {
      if (root.name == "map") map_root = &root;
    }
    CLY_CHECK(map_root != nullptr);
    const obs::OperatorProfile* scan = FindNode(*map_root, "scan:");
    const obs::OperatorProfile* probe = FindNode(*map_root, "probe");
    CLY_CHECK(scan != nullptr && probe != nullptr);
    CLY_CHECK(scan->rows_out == probe->rows_in);
    const double span_s = profile.ProfiledSpanSeconds();
    CLY_CHECK(span_s <= report.wall_seconds + 1e-6);
    CLY_CHECK(span_s >= 0.95 * report.wall_seconds - 0.002);

    std::printf("\n%s\n", obs::ExplainAnalyzeText(profile).c_str());
    if (traced) std::printf("trace bundle written to %s\n", trace_dir);

    // With CLY_MEMORY_JSON set, report the hierarchical memory accounting
    // of the same run: each operator's peak resident bytes (dim tables,
    // scan arenas, partial aggregates, shuffle runs) and the job peak. Both
    // land in BENCH_memory.json via run_benches.sh.
    if (memory) {
      const char* ops[] = {"scan:", "probe", "aggregate", "shuffle"};
      const char* keys[] = {"scan", "probe", "aggregate", "shuffle"};
      uint64_t peaks[4] = {0, 0, 0, 0};
      std::printf("\npeak memory per operator (tracked, Q2.1):\n");
      for (int i = 0; i < 4; ++i) {
        const obs::OperatorProfile* node = nullptr;
        for (const obs::OperatorProfile& root : profile.roots) {
          if ((node = FindNode(root, ops[i])) != nullptr) break;
        }
        CLY_CHECK(node != nullptr);
        // Acceptance: every memory-bearing operator reports a real footprint.
        CLY_CHECK(node->mem_peak_bytes > 0);
        CLY_CHECK(node->mem_peak_bytes >= node->mem_current_bytes);
        peaks[i] = node->mem_peak_bytes;
        std::printf("  %-10s %10.1f KiB peak (%.1f KiB still resident at "
                    "task end)\n",
                    keys[i], node->mem_peak_bytes / 1024.0,
                    node->mem_current_bytes / 1024.0);
      }
      const int64_t job_peak = run->Counter(mr::kCounterMemJobPeakBytes);
      CLY_CHECK(job_peak > 0);
      std::printf("  job peak (sum of per-node trackers): %.1f KiB\n",
                  job_peak / 1024.0);

      std::FILE* out = std::fopen(memory_json, "w");
      CLY_CHECK(out != nullptr);
      std::fprintf(out, "{\n  \"operator_peak_bytes\": {\n");
      for (int i = 0; i < 4; ++i) {
        std::fprintf(out, "    \"%s\": %llu%s\n", keys[i],
                     static_cast<unsigned long long>(peaks[i]),
                     i < 3 ? "," : "");
      }
      std::fprintf(out, "  },\n  \"job_peak_bytes\": %lld\n}\n",
                   static_cast<long long>(job_peak));
      std::fclose(out);
      std::printf("wrote %s\n", memory_json);
    }
  }

  return 0;
}
