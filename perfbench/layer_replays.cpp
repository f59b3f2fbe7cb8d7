#include "layer_replays.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/dim_hash_table.h"
#include "mapreduce/input_format.h"
#include "mapreduce/output_format.h"
#include "sql/parser.h"
#include "storage/cif.h"

namespace perfbench {

using namespace clydesdale;  // NOLINT(build/namespaces)

namespace {

constexpr int kMetadataReps = 20;
constexpr int kBlockLocationSamplesPerFile = 64;
constexpr int kBuildReps = 3;
constexpr int kNoopJobs = 15;
constexpr int kParseReps = 10;
constexpr int64_t kBatchRows = 4096;

double MicrosOf(const Stopwatch& sw) {
  return static_cast<double>(sw.ElapsedNanos()) / 1000.0;
}

// --- hdfs --------------------------------------------------------------------

double ReplayHdfs(mr::MrCluster* cluster, const ssb::SsbDataset& dataset,
                  Tracer* tracer, MetricSet* metrics) {
  CallSpan root(tracer, kLayerBench, "replay.hdfs");
  const hdfs::MiniDfs& dfs = *cluster->dfs();
  const std::vector<std::string> files = FactColumnFiles(dataset);
  std::vector<double> stat_us, open_us, locations_us, blocks;
  for (int rep = 0; rep < kMetadataReps; ++rep) {
    for (const std::string& path : files) {
      Stopwatch sw;
      Result<hdfs::FileInfo> info = [&] {
        CallSpan span(tracer, kLayerHdfs, "MiniDfs::Stat");
        return dfs.Stat(path);
      }();
      stat_us.push_back(MicrosOf(sw));
      CLY_CHECK(info.ok());
      if (rep == 0) blocks.push_back(static_cast<double>(info->blocks.size()));
      sw.Restart();
      {
        CallSpan span(tracer, kLayerHdfs, "MiniDfs::Open");
        CLY_CHECK(dfs.Open(path).ok());
      }
      open_us.push_back(MicrosOf(sw));
    }
  }
  for (const std::string& path : files) {
    const int nblocks = static_cast<int>(dfs.Stat(path)->blocks.size());
    const int step = std::max(1, nblocks / kBlockLocationSamplesPerFile);
    for (int b = 0; b < nblocks; b += step) {
      Stopwatch sw;
      {
        CallSpan span(tracer, kLayerHdfs, "MiniDfs::BlockLocations");
        CLY_CHECK(dfs.BlockLocations(path, b).ok());
      }
      locations_us.push_back(MicrosOf(sw));
    }
  }
  // Sequential read of every column file from node 0 (mostly local: the
  // colocating placement puts a replica of each block on three of four
  // nodes).
  std::vector<uint8_t> buffer(1 << 20);
  uint64_t bytes = 0;
  Stopwatch read;
  for (const std::string& path : files) {
    auto reader = [&] {
      CallSpan span(tracer, kLayerHdfs, "MiniDfs::Open");
      return dfs.Open(path, /*reader_node=*/0);
    }();
    CLY_CHECK(reader.ok());
    while (true) {
      CallSpan span(tracer, kLayerHdfs, "DfsReader::Read");
      Result<size_t> n = (*reader)->Read(buffer.data(), buffer.size());
      CLY_CHECK(n.ok());
      if (*n == 0) break;
      bytes += *n;
    }
  }
  const double read_mb_per_s =
      static_cast<double>(bytes) / (1 << 20) / read.ElapsedSeconds();
  metrics->Add("hdfs.blocks_per_column_file", Median(blocks), "count");
  metrics->Add("hdfs.stat_us_p50", Quantile(stat_us, 0.5), "us");
  metrics->Add("hdfs.stat_us_p99", Quantile(stat_us, 0.99), "us");
  metrics->Add("hdfs.open_us_p50", Quantile(open_us, 0.5), "us");
  metrics->Add("hdfs.block_locations_us_p50", Quantile(locations_us, 0.5),
               "us");
  metrics->Add("hdfs.read_mb_per_s", read_mb_per_s, "MB/s");
  return read_mb_per_s;
}

// --- storage -----------------------------------------------------------------

/// Reads every split of the fact table through the batch reader; returns
/// table rows covered per second.
double ScanRate(mr::MrCluster* cluster, const storage::TableDesc& fact,
                const std::vector<storage::StorageSplit>& splits,
                const storage::ScanOptions& base, const char* name,
                Tracer* tracer) {
  uint64_t rows = 0;
  Stopwatch sw;
  for (const storage::StorageSplit& split : splits) {
    storage::ScanOptions options = base;
    if (!split.preferred_nodes.empty()) {
      options.reader_node = split.preferred_nodes.front();
    }
    CallSpan span(tracer, kLayerStorage, name);
    auto reader =
        storage::OpenCifSplitBatchReader(*cluster->dfs(), fact, split, options);
    CLY_CHECK(reader.ok());
    RowBatch batch((*reader)->output_schema());
    while (true) {
      Result<bool> more = (*reader)->NextBatch(&batch, kBatchRows);
      CLY_CHECK(more.ok());
      if (!*more) break;
    }
    rows += split.row_end - split.row_begin;
  }
  return static_cast<double>(rows) / sw.ElapsedSeconds();
}

void ReplayStorage(mr::MrCluster* cluster, const ssb::SsbDataset& dataset,
                   Tracer* tracer, MetricSet* metrics, IsolatedRates* rates) {
  CallSpan root(tracer, kLayerBench, "replay.storage");
  const storage::TableDesc& fact = dataset.star.fact();
  std::vector<double> list_ms;
  std::vector<storage::StorageSplit> splits;
  for (int rep = 0; rep < 5; ++rep) {
    Stopwatch sw;
    CallSpan span(tracer, kLayerStorage, "ListCifSplits");
    auto listed = storage::ListCifSplits(*cluster->dfs(), fact);
    list_ms.push_back(sw.ElapsedSeconds() * 1000);
    CLY_CHECK(listed.ok());
    splits = std::move(*listed);
  }
  metrics->Add("storage.list_splits_ms", Median(list_ms), "ms");

  rates->scan_rows_per_s_full = ScanRate(cluster, fact, splits, {},
                                         "OpenCifSplitBatchReader.full",
                                         tracer);
  // Q1.1's fact side: its projection, and its predicate pushed below decode.
  storage::ScanOptions q11;
  q11.projection = {"lo_orderdate", "lo_quantity", "lo_discount",
                    "lo_extendedprice"};
  auto spec = std::make_shared<storage::ScanSpec>();
  spec->conjuncts = {Predicate::Between("lo_discount", Value(int32_t{1}),
                                        Value(int32_t{3})),
                     Predicate::Lt("lo_quantity", Value(int32_t{25}))};
  q11.scan_spec = spec;
  rates->scan_rows_per_s_q11 = ScanRate(cluster, fact, splits, q11,
                                        "OpenCifSplitBatchReader.q11", tracer);
  metrics->Add("storage.scan_rows_per_s_full", rates->scan_rows_per_s_full,
               "rows/s");
  metrics->Add("storage.scan_rows_per_s_q11", rates->scan_rows_per_s_q11,
               "rows/s");
}

// --- core --------------------------------------------------------------------

std::shared_ptr<const core::DimHashTable> BuildTable(
    mr::MrCluster* cluster, const core::StarSchema& star,
    const core::DimJoinSpec& join, Tracer* tracer) {
  const core::DimTableInfo* dim = *star.dim(join.dimension);
  auto bytes = cluster->local_store(0)->Read(dim->local_path);
  CLY_CHECK(bytes.ok());
  CallSpan span(tracer, kLayerCore, "DimHashTable::Build");
  auto table = core::DimHashTable::Build(*dim->desc.schema, (*bytes)->data(),
                                         (*bytes)->size(), *join.predicate,
                                         join.dim_pk, join.aux_columns);
  CLY_CHECK(table.ok());
  return *table;
}

void ReplayCore(mr::MrCluster* cluster, const ssb::SsbDataset& dataset,
                const std::vector<core::StarQuerySpec>& shapes, Tracer* tracer,
                MetricSet* metrics, IsolatedRates* rates) {
  CallSpan root(tracer, kLayerBench, "replay.core");
  std::map<std::string, std::vector<double>> build_ms;
  for (const auto& [name, info] : dataset.star.dims()) build_ms[name];
  for (const core::StarQuerySpec& spec : shapes) {
    for (const core::DimJoinSpec& join : spec.dims) {
      std::vector<double> reps;
      for (int rep = 0; rep < kBuildReps; ++rep) {
        Stopwatch sw;
        BuildTable(cluster, dataset.star, join, tracer);
        reps.push_back(sw.ElapsedSeconds() * 1000);
      }
      build_ms[join.dimension].push_back(Median(reps));
    }
  }
  for (const auto& [dim, ms] : build_ms) {
    metrics->Add("core.dim_build_ms." + dim, Mean(ms), "ms");
  }

  // Probe: every fact row's lo_custkey against Q3.1's customer table
  // (c_region = 'ASIA', about a fifth of the keys qualify).
  std::vector<int64_t> keys;
  {
    const storage::TableDesc& fact = dataset.star.fact();
    auto splits = storage::ListCifSplits(*cluster->dfs(), fact);
    CLY_CHECK(splits.ok());
    storage::ScanOptions options;
    options.projection = {"lo_custkey"};
    for (const storage::StorageSplit& split : *splits) {
      auto reader = storage::OpenCifSplitBatchReader(*cluster->dfs(), fact,
                                                     split, options);
      CLY_CHECK(reader.ok());
      RowBatch batch((*reader)->output_schema());
      while (*(*reader)->NextBatch(&batch, kBatchRows)) {
        for (int64_t i = 0; i < batch.num_rows(); ++i) {
          keys.push_back(batch.column(0).KeyAt(i));
        }
      }
    }
  }
  core::DimJoinSpec customers{"customer", "lo_custkey", "c_custkey",
                              Predicate::Eq("c_region", Value("ASIA")),
                              {"c_nation"}};
  auto table = BuildTable(cluster, dataset.star, customers, tracer);
  std::vector<const Row*> out(kBatchRows);
  int64_t hits = 0;
  Stopwatch sw;
  for (size_t begin = 0; begin < keys.size(); begin += kBatchRows) {
    const int64_t n = std::min<int64_t>(
        kBatchRows, static_cast<int64_t>(keys.size() - begin));
    CallSpan span(tracer, kLayerCore, "DimHashTable::ProbeBatch");
    table->ProbeBatch(keys.data() + begin, n, out.data());
    for (int64_t i = 0; i < n; ++i) hits += out[static_cast<size_t>(i)] != nullptr;
  }
  rates->probe_rows_per_s = static_cast<double>(keys.size()) / sw.ElapsedSeconds();
  CLY_CHECK(hits > 0);
  metrics->Add("core.probe_rows_per_s", rates->probe_rows_per_s, "rows/s");
}

// --- mapreduce ---------------------------------------------------------------

class NoopMapper final : public mr::Mapper {
 public:
  Status Map(const Row&, const Row&, mr::TaskContext*,
             mr::OutputCollector*) override {
    return Status::OK();
  }
};

double ReplayNoopJob(mr::MrCluster* cluster, Tracer* tracer) {
  CallSpan root(tracer, kLayerBench, "replay.mapreduce");
  storage::TableDesc desc;
  desc.path = "/perfbench/noop";
  desc.format = storage::kFormatBinaryRow;
  desc.schema = Schema::Make({{"n", TypeKind::kInt64, 8}});
  if (!cluster->dfs()->Exists(desc.path + "/_meta")) {
    auto writer = storage::OpenTableWriter(cluster->dfs(), desc);
    CLY_CHECK(writer.ok());
    CLY_CHECK_OK((*writer)->Append(Row({Value(int64_t{1})})));
    CLY_CHECK_OK((*writer)->Close());
  }
  mr::JobConf conf;
  conf.job_name = "perfbench-noop";
  conf.num_reduce_tasks = 0;
  conf.Set(mr::kConfInputTable, desc.path);
  conf.input_format_factory = [] {
    return std::make_unique<mr::TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<NoopMapper>(); };
  conf.output_format_factory = [] {
    return std::make_unique<mr::MemoryOutputFormat>();
  };
  std::vector<double> ms;
  for (int i = 0; i < kNoopJobs; ++i) {
    Stopwatch sw;
    CallSpan span(tracer, kLayerMapreduce, "RunJob");
    auto job = mr::RunJob(cluster, conf);
    CLY_CHECK(job.ok());
    CLY_CHECK(job->report.map_tasks.size() == 1);
    ms.push_back(sw.ElapsedSeconds() * 1000);
  }
  return Median(ms);
}

// --- sql ---------------------------------------------------------------------

double ReplayParse(const core::StarSchema& star,
                   const std::vector<std::string>& sql, Tracer* tracer) {
  CallSpan root(tracer, kLayerBench, "replay.sql");
  std::vector<double> us;
  for (int rep = 0; rep < kParseReps; ++rep) {
    for (const std::string& text : sql) {
      Stopwatch sw;
      CallSpan span(tracer, kLayerSql, "ParseStarQuery");
      CLY_CHECK(sql::ParseStarQuery(text, star).ok());
      us.push_back(MicrosOf(sw));
    }
  }
  return Quantile(us, 0.5);
}

}  // namespace

std::vector<std::string> FactColumnFiles(const ssb::SsbDataset& ds) {
  const storage::TableDesc& fact = ds.star.fact();
  std::vector<std::string> files;
  for (int f = 0; f < fact.schema->num_fields(); ++f) {
    files.push_back(StrCat(fact.path, "/", fact.schema->field(f).name, ".col"));
  }
  return files;
}

IsolatedRates RunLayerReplays(mr::MrCluster* cluster,
                              const ssb::SsbDataset& dataset,
                              const std::vector<core::StarQuerySpec>& shapes,
                              const std::vector<std::string>& sql,
                              Tracer* tracer, MetricSet* metrics) {
  IsolatedRates rates;
  rates.hdfs_read_mb_per_s = ReplayHdfs(cluster, dataset, tracer, metrics);
  ReplayStorage(cluster, dataset, tracer, metrics, &rates);
  ReplayCore(cluster, dataset, shapes, tracer, metrics, &rates);
  rates.noop_job_ms = ReplayNoopJob(cluster, tracer);
  metrics->Add("mapreduce.noop_job_ms", rates.noop_job_ms, "ms");
  rates.parse_us_p50 = ReplayParse(dataset.star, sql, tracer);
  return rates;
}

}  // namespace perfbench
