#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "mapreduce/cluster_metrics.h"
#include "mapreduce/engine.h"
#include "mapreduce/input_format.h"
#include "mapreduce/straggler.h"
#include "mapreduce/task_attempt.h"
#include "obs/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/metrics_poller.h"
#include "obs/query_profile.h"
#include "storage/scan_spec.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry / MetricFamily
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, LabeledCounterChildren) {
  MetricsRegistry registry;
  MetricFamily* family =
      registry.Family("requests_total", MetricKind::kCounter, {"kind"});
  family->CounterAt({"map"})->Add(2);
  family->CounterAt({"reduce"})->Inc();
  // Children are stable: a second lookup hits the same atomic cell.
  EXPECT_EQ(family->CounterAt({"map"}), family->CounterAt({"map"}));
  EXPECT_EQ(family->CounterAt({"map"})->Value(), 2);

  // One flattened row per child, in label order.
  const std::vector<MetricSampleRow> rows = registry.Samples();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "requests_total{kind=\"map\"}");
  EXPECT_EQ(rows[0].value, 2);
  EXPECT_EQ(rows[1].key, "requests_total{kind=\"reduce\"}");
  EXPECT_EQ(rows[1].value, 1);
}

TEST(MetricsRegistryTest, HistogramExposesSummaryQuantiles) {
  MetricsRegistry registry;
  MetricFamily* family =
      registry.Family("latency_micros", MetricKind::kHistogram, {"kind"});
  Histogram* h = family->HistogramAt({"map"});
  for (int64_t v = 1; v <= 20; ++v) h->Record(v);
  EXPECT_EQ(h->Percentile(0.5), 10);

  // The flattened poller rows expand to _count and _sum only.
  std::vector<MetricSampleRow> rows = registry.Samples();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "latency_micros_count{kind=\"map\"}");
  EXPECT_EQ(rows[0].value, 20);
  EXPECT_EQ(rows[1].key, "latency_micros_sum{kind=\"map\"}");
  EXPECT_EQ(rows[1].value, 210);
}

TEST(MetricsRegistryTest, PrometheusLabelValuesAreEscaped) {
  MetricsRegistry registry;
  MetricFamily* family = registry.Family("g", MetricKind::kGauge, {"path"});
  family->GaugeAt({"we\"ird\\table\n"})->Set(1);
  const std::vector<MetricSampleRow> rows = registry.Samples();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].key, "g{path=\"we\\\"ird\\\\table\\n\"}");
  EXPECT_EQ(rows[0].value, 1);
}

TEST(MetricsRegistryTest, ReRegistrationReturnsExistingFamily) {
  MetricsRegistry registry;
  MetricFamily* first = registry.Family("g", MetricKind::kGauge, {"node"});
  MetricFamily* second = registry.Family("g", MetricKind::kGauge);
  EXPECT_EQ(first, second);
  EXPECT_EQ(registry.Find("g"), first);
  EXPECT_EQ(registry.Find("absent"), nullptr);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAllLand) {
  MetricsRegistry registry;
  MetricFamily* gauges = registry.Family("g", MetricKind::kGauge, {"node"});
  MetricFamily* counters = registry.Family("c", MetricKind::kCounter);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Gauge* gauge = gauges->GaugeAt({StrCat(t)});
      Counter* counter = counters->CounterAt();
      for (int i = 0; i < kPerThread; ++i) {
        gauge->Add(1);
        counter->Inc();
        // Concurrent sampling must never block or tear an update.
        if (i % 2500 == 0) registry.Samples();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counters->CounterAt()->Value(), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(gauges->GaugeAt({StrCat(t)})->Value(), kPerThread);
  }
}

// ---------------------------------------------------------------------------
// MetricsPoller
// ---------------------------------------------------------------------------

TEST(MetricsPollerTest, SamplesRegistryAndRunsProbes) {
  MetricsRegistry registry;
  Gauge* gauge = registry.Family("g", MetricKind::kGauge)->GaugeAt();
  gauge->Set(5);
  std::atomic<int> probe_runs{0};
  MetricsPoller poller(&registry, /*interval_ms=*/1);
  poller.AddProbe([&probe_runs] { probe_runs.fetch_add(1); });
  poller.Start();
  while (poller.num_samples() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gauge->Set(9);
  const MetricsTimeSeries series = poller.Stop();

  EXPECT_EQ(series.interval_ms, 1);
  ASSERT_GE(series.samples.size(), 3u);
  // Probes run before every snapshot plus once at Stop.
  EXPECT_GE(probe_runs.load(), static_cast<int>(series.samples.size()));
  // Stop takes a final sample, so the series covers the end state.
  EXPECT_EQ(series.samples.back().Value("g"), 9);
  EXPECT_EQ(series.MaxValue("g"), 9);
  EXPECT_EQ(series.MaxValue("absent"), 0);
  // Timestamps are monotone non-decreasing.
  for (size_t i = 1; i < series.samples.size(); ++i) {
    EXPECT_LE(series.samples[i - 1].t_ms, series.samples[i].t_ms);
  }
  // Stop is idempotent: a second call returns an empty series.
  EXPECT_TRUE(poller.Stop().samples.empty());
}

TEST(MetricsPollerTest, SeriesToJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.Family("g", MetricKind::kGauge, {"node"})->GaugeAt({"0"})->Set(2);
  MetricsPoller poller(&registry, 1);
  poller.Start();
  const MetricsTimeSeries series = poller.Stop();
  const std::string json = series.ToJson();
  EXPECT_NE(json.find("\"interval_ms\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"g{node=\\\"0\\\"}\":2"), std::string::npos) << json;
}

}  // namespace
}  // namespace obs

namespace mr {
namespace {

// ---------------------------------------------------------------------------
// StragglerDetector
// ---------------------------------------------------------------------------

TEST(StragglerTest, MedianNeedsMinCompleted) {
  StragglerDetector detector;  // defaults: threshold 2.0, min_completed 3
  EXPECT_EQ(detector.RunningMedianMicros(/*is_map=*/true), -1);
  detector.RecordCompletion(true, 100'000);
  detector.RecordCompletion(true, 200'000);
  EXPECT_EQ(detector.RunningMedianMicros(true), -1)
      << "below min_completed: no median yet";
  // No map/reduce cross-talk: reduce completions don't unlock the map median.
  detector.RecordCompletion(false, 1);
  EXPECT_EQ(detector.RunningMedianMicros(true), -1);
  detector.RecordCompletion(true, 300'000);
  EXPECT_EQ(detector.RunningMedianMicros(true), 200'000);
}

TEST(StragglerTest, MedianOddAndEvenCounts) {
  StragglerDetector detector;
  // Out-of-order insertion: the detector keeps durations sorted.
  for (int64_t v : {50'000, 10'000, 30'000}) detector.RecordCompletion(true, v);
  EXPECT_EQ(detector.RunningMedianMicros(true), 30'000);
  detector.RecordCompletion(true, 40'000);
  // Even count: average of the middle two (30'000, 40'000).
  EXPECT_EQ(detector.RunningMedianMicros(true), 35'000);
}

TEST(StragglerTest, IsStragglerThresholdAndFloor) {
  StragglerPolicy policy;
  policy.threshold = 2.0;
  policy.min_completed = 3;
  policy.min_elapsed_us = 10'000;
  StragglerDetector detector(policy);
  EXPECT_FALSE(detector.IsStraggler(true, 1'000'000))
      << "no median yet: nothing can be flagged";
  for (int64_t v : {20'000, 30'000, 40'000}) detector.RecordCompletion(true, v);
  // Median 30'000: the boundary 60'000 is not a straggler, just past it is.
  EXPECT_FALSE(detector.IsStraggler(true, 60'000));
  EXPECT_TRUE(detector.IsStraggler(true, 60'001));
  EXPECT_FALSE(detector.IsStraggler(false, 60'001))
      << "reduce phase has its own (empty) history";

  // Sub-floor elapsed never trips the rule, whatever the median says.
  StragglerDetector tiny(policy);
  for (int64_t v : {1, 2, 3}) tiny.RecordCompletion(true, v);
  EXPECT_FALSE(tiny.IsStraggler(true, 9'999));
  EXPECT_TRUE(tiny.IsStraggler(true, 10'001));
}

// ---------------------------------------------------------------------------
// Counter / metric name audits. Every name is declared once, in a table
// (counters.h, cluster_metrics.h, core/star_join_job.h), so a declared but
// unlisted or unregistered name cannot be written. These check the rest:
// each group's writer really sets every name of its group.
// ---------------------------------------------------------------------------

/// `counters` holds every name of `group`, nonzero, and nothing else.
void ExpectSetsExactlyGroup(const Counters& counters, CounterGroup group,
                            const char* helper) {
  const std::vector<std::string> names = CounterNames(group);
  ASSERT_FALSE(names.empty()) << helper;
  for (const std::string& name : names) {
    EXPECT_GT(counters.Get(name), 0) << helper << " never sets " << name;
  }
  EXPECT_EQ(counters.Snapshot().size(), names.size())
      << helper << " sets a name outside its group:\n" << counters.ToString();
}

TEST(MetricNamesTest, FlushHelpersSetEveryNameOfTheirGroup) {
  storage::ScanStats scan;
  scan.blocks_skipped = 1;
  scan.rows_pruned = 2;
  scan.bytes_encoded = 3;
  scan.bytes_raw = 4;
  for (uint64_t& blocks : scan.blocks_by_encoding) blocks = 5;
  Counters cif;
  AddCifScanCounters(scan, &cif);
  ExpectSetsExactlyGroup(cif, CounterGroup::kCifScan, "AddCifScanCounters");

  obs::QueryProfile profile;
  obs::OperatorProfile root;
  root.name = "map";
  root.tasks = 2;
  profile.roots.push_back(root);
  Counters prof;
  AddQueryProfileCounters(profile, &prof);
  ExpectSetsExactlyGroup(prof, CounterGroup::kProfile,
                         "AddQueryProfileCounters");

  auto tracker = obs::MemTracker::Create("job");
  tracker->Consume(64);
  tracker->Release(64);  // the peak stays
  Counters mem;
  AddMemTrackerCounters({tracker}, /*budget_bytes=*/1024, &mem);
  ExpectSetsExactlyGroup(mem, CounterGroup::kMem, "AddMemTrackerCounters");

  Counters cache;
  AddDimCacheCounters(/*hits=*/1, /*misses=*/2, /*evictions=*/3,
                      /*resident_bytes=*/4, &cache);
  ExpectSetsExactlyGroup(cache, CounterGroup::kDimCache,
                         "AddDimCacheCounters");
}

TEST(MetricNamesTest, SituationalCountersDisjointFromStandard) {
  const std::vector<std::string> standard = StandardCounterNames();
  const std::vector<std::string> situational = SituationalCounterNames();
  ASSERT_FALSE(situational.empty());
  EXPECT_NE(std::find(situational.begin(), situational.end(),
                      kCounterStragglerAttempts),
            situational.end());
  for (const std::string& name : situational) {
    EXPECT_EQ(std::find(standard.begin(), standard.end(), name),
              standard.end())
        << name << " is both standard and situational";
  }
}

TEST(MetricNamesTest, StandardFamiliesRegisteredOnClusterStartup) {
  ClusterOptions options;
  options.num_nodes = 2;
  MrCluster cluster(options);
  for (const std::string& name : StandardMetricFamilyNames()) {
    EXPECT_NE(cluster.metrics_registry()->Find(name), nullptr)
        << "family " << name << " not registered";
  }
  // Per-node children resolve for every node the cluster actually has.
  ASSERT_EQ(cluster.metrics()->num_nodes(), 2);
  EXPECT_EQ(cluster.metrics()->running_maps(1)->Value(), 0);
}

// ---------------------------------------------------------------------------
// Job fixtures (same shape as task_tracker_test.cc)
// ---------------------------------------------------------------------------

ClusterOptions SmallCluster() {
  ClusterOptions options;
  options.num_nodes = 3;
  options.map_slots_per_node = 2;
  options.dfs_block_size = 1024;
  options.dfs_replication = 2;
  return options;
}

storage::TableDesc WriteWordTable(MrCluster* cluster, int rows) {
  storage::TableDesc desc;
  desc.path = "/words";
  desc.format = storage::kFormatBinaryRow;
  desc.schema = Schema::Make(
      {{"word", TypeKind::kString, 8}, {"n", TypeKind::kInt64, 8}});
  auto writer = storage::OpenTableWriter(cluster->dfs(), desc);
  CLY_CHECK(writer.ok());
  const char* vocab[] = {"ant", "bee", "cat", "dog", "eel", "fox"};
  for (int i = 0; i < rows; ++i) {
    CLY_CHECK_OK((*writer)->Append(
        Row({Value(vocab[i % 6]), Value(int64_t{1})})));
  }
  CLY_CHECK_OK((*writer)->Close());
  auto loaded = cluster->GetTable(desc.path);
  CLY_CHECK(loaded.ok());
  return *loaded;
}

class WordCountMapper final : public Mapper {
 public:
  Status Map(const Row& key, const Row& value, TaskContext*,
             OutputCollector* out) override {
    (void)key;
    return out->Collect(Row({value.Get(0)}), Row({value.Get(1)}));
  }
};

/// Word count whose task 0 dawdles in Setup: every other map finishes in
/// milliseconds, so the running median is tiny and task 0 blows through the
/// straggler threshold while the poller is watching.
class SlowFirstMapper final : public Mapper {
 public:
  Status Setup(TaskContext* context) override {
    if (context->task_index() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    return Status::OK();
  }
  Status Map(const Row& key, const Row& value, TaskContext*,
             OutputCollector* out) override {
    (void)key;
    return out->Collect(Row({value.Get(0)}), Row({value.Get(1)}));
  }
};

class SumCountsReducer final : public Reducer {
 public:
  Status Reduce(const Row& key, const std::vector<Row>& values, TaskContext*,
                OutputCollector* out) override {
    int64_t total = 0;
    for (const Row& v : values) total += v.Get(0).i64();
    return out->Collect(key, Row({Value(total)}));
  }
};

JobConf WordCountJob(const std::string& table, int reduces) {
  JobConf conf;
  conf.job_name = "wordcount";
  conf.num_reduce_tasks = reduces;
  conf.Set(kConfInputTable, table);
  conf.input_format_factory = [] {
    return std::make_unique<TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  conf.reducer_factory = [] { return std::make_unique<SumCountsReducer>(); };
  conf.output_format_factory = [] {
    return std::make_unique<MemoryOutputFormat>();
  };
  return conf;
}

/// What MemHoldMapper tasks share: the nodes that ran one and the trackers
/// they ran under.
struct MemHoldState {
  MrCluster* cluster = nullptr;
  std::mutex mu;
  std::set<int> nodes;
  std::map<int, std::string> job_tracker_names;
  std::map<int, const obs::MemTracker*> job_tracker_parents;
  int64_t instance = 0;
  std::chrono::steady_clock::time_point deadline;
};

/// Charges tracked bytes on its node and holds them until every node has a
/// running map and the poller has sampled this node's current-bytes gauges
/// above zero (or the deadline passes); records the tracker names it ran
/// under.
class MemHoldMapper final : public Mapper {
 public:
  explicit MemHoldMapper(std::shared_ptr<MemHoldState> state)
      : state_(std::move(state)) {}

  Status Setup(TaskContext* context) override {
    const int node = context->node();
    const std::shared_ptr<obs::MemTracker>& job = context->job_mem_tracker();
    if (context->mem_tracker() == nullptr || job == nullptr) {
      return Status::Internal("memory tracking is off");
    }
    CLY_ASSIGN_OR_RETURN(const int64_t instance,
                         context->conf().GetInt("mr.job.instance"));
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->nodes.insert(node);
      state_->job_tracker_names[node] = job->name();
      state_->job_tracker_parents[node] = job->parent().get();
      state_->instance = instance;
    }
    obs::ScopedMemConsumer held(context->mem_tracker());
    held.Add(4096);
    ClusterMetrics* metrics = state_->cluster->metrics();
    const int num_nodes = state_->cluster->num_nodes();
    while (std::chrono::steady_clock::now() < state_->deadline) {
      bool every_node_ran = false;
      {
        std::lock_guard<std::mutex> lock(state_->mu);
        every_node_ran = static_cast<int>(state_->nodes.size()) == num_nodes;
      }
      if (every_node_ran && metrics->mem_node_bytes(node)->Value() > 0 &&
          metrics->mem_job_bytes(node)->Value() > 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  }

  Status Map(const Row& key, const Row& value, TaskContext*,
             OutputCollector* out) override {
    (void)key;
    return out->Collect(Row({value.Get(0)}), Row({value.Get(1)}));
  }

 private:
  std::shared_ptr<MemHoldState> state_;
};

// ---------------------------------------------------------------------------
// Live metrics + straggler detection, end to end
// ---------------------------------------------------------------------------

TEST(MetricsIntegrationTest, SlowMapIsFlaggedAndGaugesSettle) {
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 600);

  JobConf conf = WordCountJob("/words", 2);
  conf.mapper_factory = [] { return std::make_unique<SlowFirstMapper>(); };
  conf.SetBool(kConfMetricsEnabled, true);
  conf.SetDouble(kConfStragglerThreshold, 2.0);
  conf.SetInt(kConfStragglerMinCompleted, 3);

  auto result = RunJob(&cluster, conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JobReport& report = result->report;

  // The output is still a correct word count.
  int64_t total = 0;
  for (const Row& row : result->output_rows) total += row.Get(1).i64();
  EXPECT_EQ(total, 600);

  // The 250ms map was flagged: job counter, live gauge trajectory and
  // monotone total all agree.
  EXPECT_GE(report.counters.Get(kCounterStragglerAttempts), 1);
  ASSERT_FALSE(report.metrics_series.samples.empty());
  EXPECT_GE(report.metrics_series.MaxValue(kMetricStragglersRunning), 1)
      << "poller never saw the straggler gauge high";
  // The 250ms task pins one node's map slot high for ~100 samples; which
  // node is the scheduler's choice, so take the max across all of them.
  int64_t busiest_node = 0;
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    busiest_node = std::max(
        busiest_node, report.metrics_series.MaxValue(
                          StrCat(kMetricRunningMaps, "{node=\"", node, "\"}")));
  }
  EXPECT_GE(busiest_node, 1)
      << "per-node slot occupancy never sampled above zero";

  // The final sample (taken by Stop after Execute returned) is the
  // registry's end state: it carries the straggler total and every node's
  // slot gauge.
  const obs::MetricsSample& last = report.metrics_series.samples.back();
  auto sampled = [&last](const std::string& key) {
    return std::any_of(
        last.rows.begin(), last.rows.end(),
        [&key](const obs::MetricSampleRow& row) { return row.key == key; });
  };
  EXPECT_TRUE(sampled(kMetricStragglersTotal));
  EXPECT_GE(last.Value(kMetricStragglersTotal), 1);
  EXPECT_TRUE(sampled(StrCat(kMetricRunningMaps, "{node=\"0\"}")));

  // After the job, every live gauge settles back to zero — the +/-
  // accounting nets out: no leaked slots, queue entries, stragglers, or
  // in-flight bytes.
  EXPECT_EQ(last.Value(kMetricStragglersRunning), 0);
  EXPECT_EQ(last.Value(kMetricQueuedMaps), 0);
  EXPECT_EQ(last.Value(kMetricQueuedReduces), 0);
  EXPECT_EQ(last.Value(kMetricShuffleBytesInflight), 0);
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    EXPECT_EQ(last.Value(StrCat(kMetricRunningMaps, "{node=\"", node, "\"}")),
              0);
    EXPECT_EQ(
        last.Value(StrCat(kMetricRunningReduces, "{node=\"", node, "\"}")),
        0);
  }

  // Shuffle instrumentation: every published run was eventually fetched.
  const int64_t published =
      cluster.metrics()->shuffle_runs_published()->Value();
  EXPECT_GE(published, 1);
  EXPECT_EQ(cluster.metrics()->shuffle_runs_fetched()->Value(), published);
}

/// Every cly_mem_* family is sampled for every node, off trackers named by
/// the canonical helpers: a family the poller never Sets would read 0 here.
TEST(MetricNamesTest, MemGaugesSampledForEveryNodeFromNamedTrackers) {
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 2000);  // more splits than map slots
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    EXPECT_EQ(cluster.node_mem_tracker(node)->name(), obs::NodeTrackerName(node));
  }

  auto state = std::make_shared<MemHoldState>();
  state->cluster = &cluster;
  state->deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  JobConf conf = WordCountJob("/words", 1);
  conf.mapper_factory = [state] {
    return std::make_unique<MemHoldMapper>(state);
  };
  conf.SetBool(kConfMetricsEnabled, true);
  auto result = RunJob(&cluster, conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(static_cast<int>(state->nodes.size()), cluster.num_nodes())
      << "a node never ran a map";
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    EXPECT_EQ(state->job_tracker_names[node],
              obs::JobTrackerName(state->instance, node));
    EXPECT_EQ(state->job_tracker_parents[node],
              cluster.node_mem_tracker(node).get());
  }
  const obs::MetricsTimeSeries& series = result->report.metrics_series;
  ASSERT_FALSE(series.samples.empty());
  const std::vector<std::string> families =
      MetricFamilyNames(MetricGroup::kMem);
  ASSERT_FALSE(families.empty());
  for (const std::string& family : families) {
    for (int node = 0; node < cluster.num_nodes(); ++node) {
      EXPECT_GT(series.MaxValue(StrCat(family, "{node=\"", node, "\"}")), 0)
          << family << " never sampled above zero on node " << node;
    }
  }
}

TEST(MetricsIntegrationTest, MetricsOffKeepsRegistryQuiet) {
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 120);
  auto result = RunJob(&cluster, WordCountJob("/words", 1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Without kConfMetricsEnabled nothing samples and nothing counts.
  EXPECT_TRUE(result->report.metrics_series.samples.empty());
  EXPECT_EQ(cluster.metrics()->attempts_finished(true, "succeeded")->Value(),
            0);
  EXPECT_EQ(cluster.metrics()->shuffle_runs_published()->Value(), 0);
}

}  // namespace
}  // namespace mr
}  // namespace clydesdale
