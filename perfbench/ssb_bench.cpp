// The repository benchmark (README.md in this directory). For one named
// workload it loads SSB through ssb::LoadSsb, runs the workload's query
// stream through the public engine entry points (ClydesdaleEngine, the two
// HiveEngine plans, or QueryServer after sql::ParseStarQuery), checks every
// result against ssb::ExecuteReference (kept as golden row digests) outside
// the timed window, and prints the end-to-end metrics — or, with --trace 1,
// the per-layer metrics of a separate traced run — followed by one JSON
// result line. With --regenerate 1 it instead rewrites the workload's golden
// digests from the reference executor. --setup-child 1 is internal: a timed
// run starts its own binary that way for each setup it measures.
//
//   ssb_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--dbgen-seed <n>] [--trace-dir <dir>] [--golden-dir <dir>]
//   ssb_bench --workload <name> --regenerate 1 [--dbgen-seed <n>]
//             [--golden-dir <dir>]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_support.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/clydesdale.h"
#include "core/dim_table_cache.h"
#include "hive/hive_engine.h"
#include "layer_replays.h"
#include "reference_digests.h"
#include "serving/query_server.h"
#include "sql/parser.h"
#include "sql_stream.h"
#include "storage/cif.h"
#include "ssb/loader.h"
#include "ssb/queries.h"

namespace perfbench {
namespace {

using namespace clydesdale;  // NOLINT(build/namespaces)

enum class Engine { kClydesdale, kHive, kServing };

struct Workload {
  const char* name;
  double scale_factor;
  uint64_t block_bytes;
  Engine engine;
};

constexpr uint64_t kMiB = 1024 * 1024;
const Workload kWorkloads[] = {
    {"ssb_small_blocks", 0.1, kMiB / 4, Engine::kClydesdale},
    {"hive_plans", 0.005, 4 * kMiB, Engine::kHive},
    {"serving_zipf", 0.1, 4 * kMiB, Engine::kServing},
};

/// The timed run alternates rounds for --seconds: a setup child (a load and
/// a first pass in a fresh process), then a warm chunk of at least this long
/// in the measuring process. The first kWarmupRounds rounds are not counted.
constexpr double kWarmChunkSeconds = 1.0;
constexpr int kWarmupRounds = 1;
constexpr int kServingClients = 3;
constexpr int kServingRenderingsPerShape = 48;
constexpr double kServingZipfExponent = 0.6;

struct Args {
  std::string workload;
  /// The data: SSB dbgen with the loader's default seed unless
  /// --dbgen-seed is given, so runs on different --seed values load the same
  /// tables and their spread is the run-to-run noise.
  uint64_t dbgen_seed = ssb::SsbLoadOptions().seed;
  /// --seed: the query stream (which SQL renderings the serving workload
  /// draws hot, and its zipf draws).
  uint64_t stream_seed = 1;
  double seconds = 10;
  bool trace = false;
  bool regenerate = false;
  /// Internal: run one setup (load and first pass) and report it on stdout;
  /// the timed run starts the benchmark's own binary this way.
  bool setup_child = false;
  std::string trace_dir = ".";
  std::string golden_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->stream_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--dbgen-seed") {
      args->dbgen_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--golden-dir") {
      args->golden_dir = value;
    } else if (flag == "--regenerate") {
      args->regenerate = std::atoi(value) != 0;
    } else if (flag == "--setup-child") {
      args->setup_child = std::atoi(value) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0;
}

// --- the query stream ----------------------------------------------------------

/// One query of a workload's stream.
struct StreamQuery {
  std::string label;
  /// Serving only: the SQL text the client sends.
  std::string sql;
  /// What the engine runs (for serving, the parse of `sql`).
  core::StarQuerySpec spec;
  /// Hive only: 0 = repartition plan, 1 = mapjoin plan.
  int plan = 0;
  /// Reference results are shared between stream queries with equal keys.
  std::string reference_key;
};

std::vector<StreamQuery> ShapeStream(Engine engine) {
  std::vector<StreamQuery> stream;
  for (const core::StarQuerySpec& spec : ssb::AllQueries()) {
    if (engine == Engine::kHive) {
      stream.push_back({spec.id + "/repartition", "", spec, 0, spec.id});
      stream.push_back({spec.id + "/mapjoin", "", spec, 1, spec.id});
    } else {
      stream.push_back({spec.id, "", spec, 0, spec.id});
    }
  }
  return stream;
}

std::vector<StreamQuery> SqlStream(const std::vector<SqlQuery>& texts,
                                   const core::StarSchema& star) {
  std::vector<StreamQuery> stream;
  for (const SqlQuery& q : texts) {
    auto spec = sql::ParseStarQuery(q.text, star);
    CLY_CHECK(spec.ok());
    stream.push_back({q.shape, q.text, std::move(*spec), 0, q.text});
  }
  return stream;
}

// --- correctness gate ------------------------------------------------------------

/// Keeps every distinct result of each stream query with its count, so the
/// reference comparison runs after the timed window and still judges every
/// execution.
class ResultCheck {
 public:
  explicit ResultCheck(size_t queries) {
    for (size_t i = 0; i < queries; ++i) slots_.push_back(std::make_unique<Slot>());
  }

  void Record(size_t query, const std::vector<Row>& rows) {
    Slot& slot = *slots_[query];
    std::lock_guard<std::mutex> lock(slot.mu);
    for (auto& [seen, count] : slot.results) {
      if (seen == rows) {
        ++count;
        return;
      }
    }
    slot.results.emplace_back(rows, 1);
  }

  /// Compares the digest of every kept result with the reference's;
  /// returns the number of executions whose rows differ from it.
  int64_t Verify(mr::MrCluster* cluster, const core::StarSchema& star,
                 const std::vector<StreamQuery>& stream,
                 ReferenceDigests* references, Tracer* tracer) {
    int64_t wrong = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i]->results.empty()) continue;
      const StreamQuery& q = stream[i];
      const ReferenceDigests::Entry reference =
          references->Get(cluster, star, ToReference(q), tracer);
      for (const auto& [rows, count] : slots_[i]->results) {
        if (DigestRows(rows) == reference.digest) continue;
        wrong += count;
        std::fprintf(stderr,
                     "WRONG RESULT: %s returned %zu rows, reference has %llu "
                     "(%lld executions)\n",
                     q.label.c_str(), rows.size(),
                     static_cast<unsigned long long>(reference.rows),
                     static_cast<long long>(count));
      }
    }
    return wrong;
  }

  /// Per stream query, the digest of its one kept result (0 when it has
  /// none or several) — how a setup child reports its first pass.
  std::vector<uint64_t> Digests() const {
    std::vector<uint64_t> digests;
    for (const auto& slot : slots_) {
      digests.push_back(slot->results.size() == 1
                            ? DigestRows(slot->results.front().first)
                            : 0);
    }
    return digests;
  }

  static ReferenceQuery ToReference(const StreamQuery& q) {
    return {q.reference_key, q.label.substr(0, q.label.find('/')), &q.spec};
  }

 private:
  struct Slot {
    std::mutex mu;
    std::vector<std::pair<std::vector<Row>, int64_t>> results;
  };
  std::vector<std::unique_ptr<Slot>> slots_;
};

// --- per-layer accounting from the engines' JobReports ---------------------------

/// Sums what the engines' JobReports say about the queries of a phase.
struct EngineTotals {
  /// Queries that ran at least one job (all but serving result-cache hits);
  /// the per-query layer metrics divide by this.
  int64_t queries_with_jobs = 0;
  int64_t jobs = 0;
  double execute_wall_s = 0;
  double job_wall_s = 0;
  std::vector<double> map_task_ms;
  int64_t data_local_maps = 0;
  uint64_t shuffle_bytes = 0;
  int64_t mem_job_peak_bytes = 0;
  std::map<std::string, int64_t> counters;
  /// Hive only: summed stage wall by stage kind.
  double hive_join_s = 0;
  double hive_groupby_s = 0;
  double hive_orderby_s = 0;

  void Add(const core::QueryResult& result, double execute_s) {
    if (result.stage_reports.empty() || result.from_result_cache) return;
    ++queries_with_jobs;
    execute_wall_s += execute_s;
    for (const mr::JobReport& job : result.stage_reports) {
      ++jobs;
      job_wall_s += job.wall_seconds;
      for (const auto& [name, value] : job.counters.Snapshot()) {
        counters[name] += value;
      }
      mem_job_peak_bytes = std::max(
          mem_job_peak_bytes, job.counters.Get(mr::kCounterMemJobPeakBytes));
      for (const mr::TaskReport& task : job.map_tasks) {
        map_task_ms.push_back(task.wall_seconds * 1000);
      }
      data_local_maps += job.DataLocalMaps();
      shuffle_bytes += job.TotalShuffleBytes();
      if (!StartsWith(job.job_name, "hive-")) continue;
      if (EndsWith(job.job_name, "-groupby")) {
        hive_groupby_s += job.wall_seconds;
      } else if (EndsWith(job.job_name, "-orderby")) {
        hive_orderby_s += job.wall_seconds;
      } else {
        hive_join_s += job.wall_seconds;
      }
    }
  }

  void MergeFrom(const EngineTotals& other) {
    queries_with_jobs += other.queries_with_jobs;
    jobs += other.jobs;
    execute_wall_s += other.execute_wall_s;
    job_wall_s += other.job_wall_s;
    map_task_ms.insert(map_task_ms.end(), other.map_task_ms.begin(),
                       other.map_task_ms.end());
    data_local_maps += other.data_local_maps;
    shuffle_bytes += other.shuffle_bytes;
    mem_job_peak_bytes = std::max(mem_job_peak_bytes, other.mem_job_peak_bytes);
    for (const auto& [name, value] : other.counters) counters[name] += value;
    hive_join_s += other.hive_join_s;
    hive_groupby_s += other.hive_groupby_s;
    hive_orderby_s += other.hive_orderby_s;
  }

  int64_t Counter(const char* name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double PerQuery(double total) const {
    return queries_with_jobs > 0 ? total / static_cast<double>(queries_with_jobs)
                                 : 0;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- a loaded cluster and its engines ----------------------------------------------

class Session {
 public:
  Session(const Workload& workload, uint64_t dbgen_seed, Tracer* tracer)
      : workload_(workload) {
    mr::ClusterOptions copts;  // default 4 nodes x 2 map slots
    copts.dfs_block_size = workload.block_bytes;
    cluster_ = std::make_unique<mr::MrCluster>(copts);
    load_seconds_ = LoadInto(cluster_.get(), workload, dbgen_seed,
                             /*with_rcfile=*/true, tracer, &dataset_);
    switch (workload.engine) {
      case Engine::kClydesdale:
        clydesdale_ = std::make_unique<core::ClydesdaleEngine>(
            cluster_.get(), dataset_.star);
        break;
      case Engine::kHive: {
        core::StarSchema hive_star = dataset_.star;
        *hive_star.mutable_fact() = dataset_.fact_rcfile;
        for (hive::JoinStrategy strategy :
             {hive::JoinStrategy::kRepartition, hive::JoinStrategy::kMapJoin}) {
          hive::HiveOptions options;
          options.strategy = strategy;
          hive_.push_back(std::make_unique<hive::HiveEngine>(
              cluster_.get(), hive_star, options));
        }
        break;
      }
      case Engine::kServing:
        server_ = std::make_unique<serving::QueryServer>(cluster_.get(),
                                                         dataset_.star);
        break;
    }
  }

  /// LoadSsb with the loader's defaults except scale factor and seed;
  /// returns its wall time.
  static double LoadInto(mr::MrCluster* cluster, const Workload& workload,
                         uint64_t dbgen_seed, bool with_rcfile, Tracer* tracer,
                         ssb::SsbDataset* dataset) {
    ssb::SsbLoadOptions options;
    options.scale_factor = workload.scale_factor;
    options.seed = dbgen_seed;
    options.with_rcfile = with_rcfile;
    Stopwatch sw;
    CallSpan span(tracer, kLayerSsb, "LoadSsb");
    auto loaded = ssb::LoadSsb(cluster, options);
    const double seconds = sw.ElapsedSeconds();
    CLY_CHECK(loaded.ok());
    *dataset = std::move(*loaded);
    return seconds;
  }

  mr::MrCluster* cluster() { return cluster_.get(); }
  const ssb::SsbDataset& dataset() const { return dataset_; }
  double load_seconds() const { return load_seconds_; }
  serving::QueryServer* server() { return server_.get(); }

  /// Sends one stream query; `execute_s` gets the engine call's wall time.
  Result<core::QueryResult> Execute(const StreamQuery& q, Tracer* tracer,
                                    int query_id, double* execute_s) {
    Stopwatch sw;
    switch (workload_.engine) {
      case Engine::kClydesdale: {
        CallSpan span(tracer, kLayerCore, "ClydesdaleEngine::Execute",
                      query_id);
        auto result = clydesdale_->Execute(q.spec);
        *execute_s = sw.ElapsedSeconds();
        return result;
      }
      case Engine::kHive: {
        CallSpan span(tracer, kLayerHive, "HiveEngine::Execute", query_id);
        auto result = hive_[static_cast<size_t>(q.plan)]->Execute(q.spec);
        *execute_s = sw.ElapsedSeconds();
        return result;
      }
      case Engine::kServing:
        break;
    }
    Result<core::StarQuerySpec> spec = [&] {
      CallSpan span(tracer, kLayerSql, "ParseStarQuery", query_id);
      return sql::ParseStarQuery(q.sql, dataset_.star);
    }();
    if (!spec.ok()) return spec.status();
    sw.Restart();
    CallSpan span(tracer, kLayerServing, "QueryServer::Execute", query_id);
    auto result = server_->Execute(*spec);
    *execute_s = sw.ElapsedSeconds();
    return result;
  }

 private:
  const Workload& workload_;
  // Declared first so the engines below are destroyed before the cluster.
  std::unique_ptr<mr::MrCluster> cluster_;
  ssb::SsbDataset dataset_;
  double load_seconds_ = 0;
  std::unique_ptr<core::ClydesdaleEngine> clydesdale_;
  std::vector<std::unique_ptr<hive::HiveEngine>> hive_;
  std::unique_ptr<serving::QueryServer> server_;
};

// --- running queries -------------------------------------------------------------

/// What one client (or the merged clients) saw during a phase.
struct Tally {
  std::vector<double> latency_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  EngineTotals engine;

  void MergeFrom(const Tally& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    engine.MergeFrom(other.engine);
  }
};

std::atomic<int> next_query_id{0};

/// Runs one stream query end to end: latency from send to returned rows.
void RunOne(Session* session, const std::vector<StreamQuery>& stream,
            size_t index, ResultCheck* check, Tracer* tracer, Tally* tally) {
  const int query_id = next_query_id.fetch_add(1);
  CallSpan root(tracer, kLayerBench, "query", query_id);
  double execute_s = 0;
  Stopwatch sw;
  auto result = session->Execute(stream[index], tracer, query_id, &execute_s);
  tally->latency_ms.push_back(sw.ElapsedSeconds() * 1000);
  ++tally->attempted;
  if (!result.ok()) {
    ++tally->failed;
    std::fprintf(stderr, "QUERY FAILED: %s: %s\n", stream[index].label.c_str(),
                 result.status().ToString().c_str());
    return;
  }
  check->Record(index, result->rows);
  tally->engine.Add(*result, execute_s);
}

/// One client sending the stream in order, pass after pass, until `seconds`
/// have elapsed. It runs at least one pass and finishes the pass it is in,
/// so every stream query is sampled equally often.
Tally RunSequential(Session* session, const std::vector<StreamQuery>& stream,
                    ResultCheck* check, Tracer* tracer, double seconds) {
  Tally tally;
  Stopwatch phase;
  for (size_t i = 0;; ++i) {
    if (i > 0 && i % stream.size() == 0 && phase.ElapsedSeconds() >= seconds) {
      break;
    }
    RunOne(session, stream, i % stream.size(), check, tracer, &tally);
  }
  return tally;
}

/// How much the serving stream repeats, measured at send time: exact
/// repeats of earlier SQL text, and dimension filters (dimension, predicate,
/// key and aux columns) already used by an earlier, non-identical query.
class RepeatMeter {
 public:
  void Observe(const StreamQuery& q) {
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_;
    if (!texts_.insert(q.sql).second) {
      ++exact_repeats_;
      return;
    }
    for (const core::DimJoinSpec& join : q.spec.dims) {
      const uint64_t key = HashCombine(
          HashString(join.dimension),
          core::FilterFingerprint(*join.predicate, join.dim_pk,
                                  join.aux_columns));
      ++joins_;
      if (!filters_.insert(key).second) ++reused_joins_;
    }
  }
  double exact_repeat_share() const { return Ratio(exact_repeats_, queries_); }
  double dim_filter_reuse_share() const { return Ratio(reused_joins_, joins_); }

 private:
  std::mutex mu_;
  std::set<std::string> texts_;
  std::set<uint64_t> filters_;
  double queries_ = 0;
  double exact_repeats_ = 0;
  double joins_ = 0;
  double reused_joins_ = 0;
};

/// kServingClients closed-loop clients, each drawing zipfian from the pool
/// with its own seed and sending its next query when the previous returns,
/// until `seconds` have elapsed.
Tally RunServingClients(Session* session, const std::vector<StreamQuery>& pool,
                        ResultCheck* check, Tracer* tracer, double seconds,
                        uint64_t stream_seed, int round, RepeatMeter* meter) {
  const ZipfSampler zipf(pool.size(), kServingZipfExponent);
  std::vector<Tally> tallies(kServingClients);
  std::vector<std::thread> clients;
  Stopwatch phase;
  for (int c = 0; c < kServingClients; ++c) {
    clients.emplace_back([&, c] {
      Random rng(HashCombine(stream_seed,
                             static_cast<uint64_t>(round * 1000 + c)));
      while (phase.ElapsedSeconds() < seconds) {
        const size_t index = zipf.Draw(&rng);
        meter->Observe(pool[index]);
        RunOne(session, pool, index, check, tracer,
               &tallies[static_cast<size_t>(c)]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  Tally merged;
  for (const Tally& t : tallies) merged.MergeFrom(t);
  return merged;
}

// --- the run ---------------------------------------------------------------------

struct Streams {
  /// The first pass after each load: the 13 shapes (both plans on Hive).
  std::vector<StreamQuery> first_pass;
  /// The warm phase: the same shapes, or the zipf pool of SQL renderings.
  std::vector<StreamQuery> warm;
};

Streams MakeStreams(const Workload& w, const core::StarSchema& star,
                    uint64_t stream_seed) {
  if (w.engine != Engine::kServing) {
    return {ShapeStream(w.engine), ShapeStream(w.engine)};
  }
  return {SqlStream(BaseSsbSql(), star),
          SqlStream(SsbSqlPool(kServingRenderingsPerShape, stream_seed), star)};
}

double FactBytesPerRow(Session* session) {
  uint64_t bytes = 0;
  for (const std::string& path : FactColumnFiles(session->dataset())) {
    auto info = session->cluster()->dfs()->Stat(path);
    CLY_CHECK(info.ok());
    bytes += info->length;
  }
  return Ratio(static_cast<double>(bytes),
               static_cast<double>(session->dataset().lineorder_rows));
}

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Runs the warm phase: sequential passes or serving clients.
Tally RunWarm(const Workload& w, Session* session, const Streams& streams,
              ResultCheck* check, Tracer* tracer, double seconds,
              uint64_t stream_seed, int round, RepeatMeter* meter) {
  if (w.engine == Engine::kServing) {
    return RunServingClients(session, streams.warm, check, tracer, seconds,
                             stream_seed, round, meter);
  }
  return RunSequential(session, streams.warm, check, tracer, seconds);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

/// One setup measured in a child process: its load time and the first pass
/// after it, with every query's latency and result digest.
struct SetupSample {
  double load_s = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> first_pass_ms;
  std::vector<uint64_t> digests;
};

/// The child's side (--setup-child 1): loads a fresh cluster, runs one first
/// pass and writes the sample to stdout.
int RunSetupChild(const Workload& w, const Args& args) {
  Tracer off(false);
  Session session(w, args.dbgen_seed, &off);
  const Streams streams =
      MakeStreams(w, session.dataset().star, args.stream_seed);
  ResultCheck check(streams.first_pass.size());
  const Tally tally =
      RunSequential(&session, streams.first_pass, &check, &off, 0);
  std::ostringstream out;
  out.precision(17);
  out << session.load_seconds() << " " << tally.attempted << " "
      << tally.failed;
  for (double ms : tally.latency_ms) out << " " << ms;
  for (uint64_t d : check.Digests()) out << " " << d;
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// Starts this binary again as a setup child and waits for its sample, so
/// each setup starts from a fresh process whatever threads this one runs,
/// and this process's peak RSS covers only its own load.
SetupSample MeasureSetupInChild(const Workload& w, const Args& args) {
  int fds[2];
  CLY_CHECK(pipe(fds) == 0);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string seed = std::to_string(args.stream_seed);
  const std::string dbgen_seed = std::to_string(args.dbgen_seed);
  const char* argv[] = {"ssb_bench",   "--workload",   w.name,
                        "--seed",      seed.c_str(),   "--dbgen-seed",
                        dbgen_seed.c_str(), "--setup-child", "1",
                        nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                  const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  CLY_CHECK(spawned == 0);
  std::string report;
  char buffer[4096];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof(buffer))) > 0;) {
    report.append(buffer, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  CLY_CHECK(waitpid(pid, &status, 0) == pid);
  CLY_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  SetupSample sample;
  std::istringstream in(report);
  in >> sample.load_s >> sample.attempted >> sample.failed;
  sample.first_pass_ms.resize(static_cast<size_t>(sample.attempted));
  sample.digests.resize(static_cast<size_t>(sample.attempted));
  for (double& ms : sample.first_pass_ms) in >> ms;
  for (uint64_t& d : sample.digests) in >> d;
  CLY_CHECK(!in.fail());
  return sample;
}

/// first_pass_s: per query of the first pass, the median of its latency
/// over the samples, summed over the pass. A stall that hits one query of
/// one pass moves no median.
double FirstPassSeconds(const std::vector<SetupSample>& samples) {
  double sum_ms = 0;
  for (size_t q = 0; q < samples.front().first_pass_ms.size(); ++q) {
    std::vector<double> ms;
    for (const SetupSample& sample : samples) {
      ms.push_back(sample.first_pass_ms[q]);
    }
    sum_ms += Median(ms);
  }
  return sum_ms / 1000;
}

/// Untraced timed run: the end-to-end metrics. After the measuring
/// process's own load and first pass, setup children and warm chunks
/// alternate for --seconds, so every metric's samples spread over the whole
/// run. setup_s is the median of the children's load times and first_pass_s
/// comes from their first passes; the warm metrics cover every query of the
/// warm chunks.
Outcome TimedRun(const Workload& w, const Args& args, MetricSet* metrics) {
  Tracer off(false);
  Session parent(w, args.dbgen_seed, &off);
  Session* session = &parent;
  const Streams streams =
      MakeStreams(w, session->dataset().star, args.stream_seed);
  ResultCheck first_check(streams.first_pass.size());
  Tally first =
      RunSequential(session, streams.first_pass, &first_check, &off, 0);

  // Warm-up rounds are checked for correctness like the others but count
  // in no metric.
  ResultCheck warm_check(streams.warm.size());
  RepeatMeter meter;
  std::vector<SetupSample> children;
  Tally warmup, warm;
  double warm_s = 0;
  double warm_cpu_s = 0;
  Stopwatch run_clock;
  for (int round = 0;
       round <= kWarmupRounds || run_clock.ElapsedSeconds() < args.seconds;
       ++round) {
    if (round == kWarmupRounds) run_clock.Restart();
    children.push_back(MeasureSetupInChild(w, args));
    const double cpu0 = ProcessCpuSeconds();
    Stopwatch chunk_clock;
    Tally chunk = RunWarm(w, session, streams, &warm_check, &off,
                          kWarmChunkSeconds, args.stream_seed, round, &meter);
    if (round < kWarmupRounds) {
      warmup.MergeFrom(chunk);
      continue;
    }
    warm_s += chunk_clock.ElapsedSeconds();
    warm_cpu_s += ProcessCpuSeconds() - cpu0;
    warm.MergeFrom(chunk);
  }
  const std::vector<SetupSample> timed(children.begin() + kWarmupRounds,
                                       children.end());
  std::vector<double> setup_s;
  for (const SetupSample& child : timed) setup_s.push_back(child.load_s);

  ReferenceDigests references(args.golden_dir, w.scale_factor,
                              args.dbgen_seed);
  int64_t wrong =
      first_check.Verify(session->cluster(), session->dataset().star,
                         streams.first_pass, &references, &off) +
      warm_check.Verify(session->cluster(), session->dataset().star,
                        streams.warm, &references, &off);
  for (const SetupSample& child : children) {
    first.attempted += child.attempted;
    first.failed += child.failed;
    for (size_t i = 0; i < child.digests.size(); ++i) {
      const StreamQuery& q = streams.first_pass[i];
      if (child.digests[i] !=
          references
              .Get(session->cluster(), session->dataset().star,
                   ResultCheck::ToReference(q), &off)
              .digest) {
        ++wrong;
        std::fprintf(stderr, "WRONG RESULT: %s in a setup's first pass\n",
                     q.label.c_str());
      }
    }
  }

  const double queries = static_cast<double>(warm.latency_ms.size());
  std::printf("workload %s: sf=%g block=%llu KiB dbgen_seed=%llu "
              "stream_seed=%llu\n",
              w.name, w.scale_factor,
              static_cast<unsigned long long>(w.block_bytes / 1024),
              static_cast<unsigned long long>(args.dbgen_seed),
              static_cast<unsigned long long>(args.stream_seed));
  std::printf("warm samples: %.0f queries in %.2f s; rounds: %zu, each a "
              "load and a first pass of %zu queries (%d warm-up round%s not "
              "counted)\n",
              queries, warm_s, timed.size(), streams.first_pass.size(),
              kWarmupRounds, kWarmupRounds == 1 ? "" : "s");
  std::printf("references: %zu computed, %zu read from %s\n",
              references.computed(), references.file_entries(),
              references.path().c_str());
  if (w.engine == Engine::kServing) {
    std::printf("stream: exact repeats %.3f, dim-filter reuse %.3f of joins "
                "in non-repeated queries\n",
                meter.exact_repeat_share(), meter.dim_filter_reuse_share());
  }
  if (queries < 100) {
    std::fprintf(stderr, "warning: only %.0f warm samples (want >= 100)\n",
                 queries);
  }
  metrics->Add("setup_s", Median(setup_s), "s");
  metrics->Add("first_pass_s", FirstPassSeconds(timed), "s");
  metrics->Add("query_p50_ms", Quantile(warm.latency_ms, 0.5), "ms");
  metrics->Add("query_p90_ms", Quantile(warm.latency_ms, 0.9), "ms");
  metrics->Add("queries_per_s", Ratio(queries, warm_s), "1/s");
  metrics->Add("cpu_s_per_query", Ratio(warm_cpu_s, queries), "s");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MB");
  metrics->Add("fact_bytes_per_row", FactBytesPerRow(session), "bytes");

  Outcome outcome;
  outcome.attempted = first.attempted + warmup.attempted + warm.attempted;
  outcome.failed = first.failed + warmup.failed + warm.failed + wrong;
  std::printf("  %-40s %16.6f %s\n", "error_rate",
              Ratio(static_cast<double>(outcome.failed),
                    static_cast<double>(outcome.attempted)),
              "ratio");
  return outcome;
}

/// Traced run: per-layer metrics, the span file and the layer table.
Outcome TracedRun(const Workload& w, const Args& args, MetricSet* metrics) {
  Tracer tracer(true);
  Tracer off(false);
  Session session(w, args.dbgen_seed, &tracer);
  double cif_only_s = 0;
  {
    mr::ClusterOptions copts;
    copts.dfs_block_size = w.block_bytes;
    mr::MrCluster scratch(copts);
    ssb::SsbDataset unused;
    cif_only_s = Session::LoadInto(&scratch, w, args.dbgen_seed,
                                   /*with_rcfile=*/false, &tracer, &unused);
  }
  const Streams streams =
      MakeStreams(w, session.dataset().star, args.stream_seed);
  ResultCheck first_check(streams.first_pass.size());
  Tally first =
      RunSequential(&session, streams.first_pass, &first_check, &tracer, 0);

  ResultCheck warm_check(streams.warm.size());
  RepeatMeter meter;
  const serving::QueryServerStats before =
      session.server() != nullptr ? session.server()->stats()
                                  : serving::QueryServerStats{};
  Tally untraced, traced;
  double untraced_s = 0, traced_s = 0;
  const double window = args.seconds / 4;
  // The windows run untraced, traced, traced, untraced, so a trend in the
  // run (serving caches still warming) weighs on both sides alike.
  const bool traced_window[] = {false, true, true, false};
  for (int i = 0; i < 4; ++i) {
    Stopwatch sw;
    Tally tally = RunWarm(w, &session, streams, &warm_check,
                          traced_window[i] ? &tracer : &off, window,
                          args.stream_seed, i, &meter);
    (traced_window[i] ? traced : untraced).MergeFrom(tally);
    (traced_window[i] ? traced_s : untraced_s) += sw.ElapsedSeconds();
  }
  const serving::QueryServerStats after =
      session.server() != nullptr ? session.server()->stats()
                                  : serving::QueryServerStats{};

  std::vector<std::string> sql_texts;
  if (w.engine == Engine::kServing) {
    for (const StreamQuery& q : streams.warm) sql_texts.push_back(q.sql);
  } else {
    for (const SqlQuery& q : BaseSsbSql()) sql_texts.push_back(q.text);
  }
  const IsolatedRates isolated =
      RunLayerReplays(session.cluster(), session.dataset(), ssb::AllQueries(),
                      sql_texts, &tracer, metrics);

  ReferenceDigests references(args.golden_dir, w.scale_factor,
                              args.dbgen_seed);
  const int64_t wrong =
      first_check.Verify(session.cluster(), session.dataset().star,
                         streams.first_pass, &references, &tracer) +
      warm_check.Verify(session.cluster(), session.dataset().star,
                        streams.warm, &references, &tracer);

  // --- metrics from the traced windows' JobReports ---
  const EngineTotals& e = traced.engine;
  auto splits = storage::ListCifSplits(*session.cluster()->dfs(),
                                       session.dataset().star.fact());
  CLY_CHECK(splits.ok());
  const bool cif_engine = w.engine != Engine::kHive;
  metrics->Add("hdfs.read_ops_per_query",
               e.PerQuery(e.Counter(mr::kCounterHdfsReadOps)), "count");
  metrics->Add("hdfs.read_micros_per_query",
               e.PerQuery(e.Counter(mr::kCounterHdfsReadMicros)), "us");
  metrics->Add("hdfs.bytes_written_per_query",
               e.PerQuery(e.Counter(mr::kCounterHdfsBytesWritten)), "bytes");
  metrics->Add("storage.encoded_per_raw",
               Ratio(e.Counter(mr::kCounterCifBytesEncoded),
                     e.Counter(mr::kCounterCifBytesRaw)),
               "ratio");
  metrics->Add("storage.blocks_skipped_share",
               cif_engine ? Ratio(e.PerQuery(e.Counter(
                                      mr::kCounterCifBlocksSkipped)),
                                  static_cast<double>(splits->size()))
                          : 0,
               "ratio");
  metrics->Add("ssb.load_cif_only_s", cif_only_s, "s");
  metrics->Add("ssb.rcfile_share_of_setup",
               1 - Ratio(cif_only_s, session.load_seconds()), "ratio");
  metrics->Add("core.outside_job_share",
               Ratio(e.execute_wall_s - e.job_wall_s, e.execute_wall_s),
               "ratio");
  metrics->Add("core.mem_job_peak_mb",
               static_cast<double>(e.mem_job_peak_bytes) / kMiB, "MB");
  metrics->Add("mapreduce.job_wall_ms",
               Ratio(e.job_wall_s * 1000, static_cast<double>(e.jobs)), "ms");
  metrics->Add("mapreduce.map_task_ms_p50", Quantile(e.map_task_ms, 0.5), "ms");
  metrics->Add("mapreduce.map_task_ms_max", Quantile(e.map_task_ms, 1.0), "ms");
  metrics->Add("mapreduce.maps_per_query",
               e.PerQuery(static_cast<double>(e.map_task_ms.size())), "count");
  metrics->Add("mapreduce.data_local_share",
               Ratio(static_cast<double>(e.data_local_maps),
                     static_cast<double>(e.map_task_ms.size())),
               "ratio");
  metrics->Add("mapreduce.shuffle_bytes_per_query",
               e.PerQuery(static_cast<double>(e.shuffle_bytes)), "bytes");
  const bool hive = w.engine == Engine::kHive;
  metrics->Add("hive.jobs_per_query",
               hive ? e.PerQuery(static_cast<double>(e.jobs)) : 0, "count");
  metrics->Add("hive.stage_ms.join", e.PerQuery(e.hive_join_s * 1000), "ms");
  metrics->Add("hive.stage_ms.groupby", e.PerQuery(e.hive_groupby_s * 1000),
               "ms");
  metrics->Add("hive.stage_ms.orderby", e.PerQuery(e.hive_orderby_s * 1000),
               "ms");
  const int64_t served = after.queries - before.queries;
  const int64_t dim_hits = after.dim_cache.hits - before.dim_cache.hits;
  const int64_t dim_misses = after.dim_cache.misses - before.dim_cache.misses;
  metrics->Add("serving.result_hit_rate",
               Ratio(static_cast<double>(after.result_cache_hits -
                                         before.result_cache_hits),
                     static_cast<double>(served)),
               "ratio");
  metrics->Add("serving.dim_hit_rate",
               Ratio(static_cast<double>(dim_hits),
                     static_cast<double>(dim_hits + dim_misses)),
               "ratio");
  metrics->Add("serving.dim_cache_mb",
               static_cast<double>(after.dim_cache.resident_bytes) / kMiB,
               "MB");
  metrics->Add("serving.dim_evictions",
               static_cast<double>(after.dim_cache.evictions -
                                   before.dim_cache.evictions),
               "count");
  metrics->Add("serving.exact_repeat_share", meter.exact_repeat_share(),
               "ratio");
  metrics->Add("serving.dim_filter_reuse_share",
               meter.dim_filter_reuse_share(), "ratio");
  metrics->Add("sql.parse_us_p50", isolated.parse_us_p50, "us");
  const double qps_untraced =
      Ratio(static_cast<double>(untraced.attempted), untraced_s);
  const double qps_traced = Ratio(static_cast<double>(traced.attempted), traced_s);
  metrics->Add("obs.trace_overhead", Ratio(qps_traced, qps_untraced), "ratio");

  // --- spans and the layer table ---
  const std::string span_path =
      StrCat(args.trace_dir, "/", w.name, "-seed", args.stream_seed,
             ".spans.jsonl");
  std::map<std::string, double> self_ms = [&] {
    Stopwatch sw;
    auto result = tracer.Finish(span_path);
    result[kLayerObs] += sw.ElapsedSeconds() * 1000;
    return result;
  }();
  const double map_task_s = std::max(1e-9, Sum(e.map_task_ms) / 1000);
  const double engine_read_mb_per_s =
      Ratio(static_cast<double>(e.Counter(mr::kCounterHdfsBytesReadLocal) +
                                e.Counter(mr::kCounterHdfsBytesReadRemote)) /
                kMiB,
            static_cast<double>(e.Counter(mr::kCounterHdfsReadMicros)) / 1e6);
  std::printf("workload %s (traced): %lld traced queries, spans in %s\n",
              w.name, static_cast<long long>(traced.attempted),
              span_path.c_str());
  std::printf("  %-10s %12s  %-44s %s\n", "layer", "self_ms", "in-engine",
              "isolated");
  auto row = [&](const char* layer, const std::string& engine,
                 const std::string& alone) {
    std::printf("  %-10s %12.1f  %-44s %s\n", layer, self_ms[layer],
                engine.c_str(), alone.c_str());
  };
  row(kLayerBench, "", "");
  row(kLayerSsb, "", StrCat("load ", FormatDouble(session.load_seconds(), 2),
                            " s, cif-only ", FormatDouble(cif_only_s, 2), " s"));
  row(kLayerHdfs, StrCat("read ", FormatDouble(engine_read_mb_per_s, 0), " MB/s"),
      StrCat("read ", FormatDouble(isolated.hdfs_read_mb_per_s, 0), " MB/s"));
  // Rows the map tasks covered: those that reached the probe plus those the
  // scan pruned (pushdown, zone maps, key filters), as the isolated scans
  // count them.
  const double covered_rows =
      static_cast<double>(e.Counter(mr::kCounterMapInputRecords) +
                          e.Counter(mr::kCounterCifRowsPruned));
  row(kLayerStorage,
      StrCat("scan ", FormatDouble(covered_rows / map_task_s, 0),
             " covered rows per map-task s"),
      StrCat("scan ", FormatDouble(isolated.scan_rows_per_s_full, 0),
             " (full) / ", FormatDouble(isolated.scan_rows_per_s_q11, 0),
             " (q1.1) rows/s"));
  row(kLayerCore,
      StrCat("probe ",
             FormatDouble(e.Counter(core::kCounterProbeRows) / map_task_s, 0),
             " rows per map-task s; ",
             FormatDouble(100 * Ratio(e.execute_wall_s - e.job_wall_s,
                                      e.execute_wall_s), 1),
             "% outside jobs"),
      StrCat("probe ", FormatDouble(isolated.probe_rows_per_s, 0), " rows/s"));
  row(kLayerMapreduce,
      StrCat("job wall ",
             FormatDouble(Ratio(e.job_wall_s * 1000, static_cast<double>(e.jobs)), 2),
             " ms"),
      StrCat("noop job ", FormatDouble(isolated.noop_job_ms, 2), " ms"));
  row(kLayerHive, "", "");
  row(kLayerServing, "", "");
  row(kLayerSql, "", StrCat("parse p50 ", FormatDouble(isolated.parse_us_p50, 1),
                            " us"));
  row(kLayerObs,
      StrCat("traced/untraced qps ",
             FormatDouble(Ratio(qps_traced, qps_untraced), 3)),
      "");

  Outcome outcome;
  outcome.attempted = first.attempted + untraced.attempted + traced.attempted;
  outcome.failed = first.failed + untraced.failed + traced.failed + wrong;
  return outcome;
}

/// Rewrites the golden digests of every query the workload can send.
int Regenerate(const Workload& w, const Args& args) {
  Tracer off(false);
  Session session(w, args.dbgen_seed, &off);
  const Streams streams =
      MakeStreams(w, session.dataset().star, args.stream_seed);
  std::vector<ReferenceQuery> queries;
  for (const auto* stream : {&streams.first_pass, &streams.warm}) {
    for (const StreamQuery& q : *stream) {
      queries.push_back(ResultCheck::ToReference(q));
    }
  }
  ReferenceDigests references(args.golden_dir, w.scale_factor,
                              args.dbgen_seed);
  references.Regenerate(session.cluster(), session.dataset().star, queries);
  std::printf("wrote %s: references of %s's %zu stream queries\n",
              references.path().c_str(), w.name, queries.size());
  return 0;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ssb_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--dbgen-seed <n>] [--trace-dir <dir>] "
                 "[--golden-dir <dir>]\n"
                 "       ssb_bench --workload <name> --regenerate 1 "
                 "[--dbgen-seed <n>] [--golden-dir <dir>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  SetLogThreshold(LogLevel::kWarning);
  if (args.regenerate) return Regenerate(*workload, args);
  if (args.setup_child) return RunSetupChild(*workload, args);
  MetricSet metrics;
  const Outcome outcome = args.trace ? TracedRun(*workload, args, &metrics)
                                     : TimedRun(*workload, args, &metrics);
  metrics.Print();
  const bool correct = outcome.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "FAILED: %lld of %lld queries failed or returned "
                         "wrong rows\n",
                 static_cast<long long>(outcome.failed),
                 static_cast<long long>(outcome.attempted));
    return 1;
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
