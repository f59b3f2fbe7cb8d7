#ifndef CLYDESDALE_MAPREDUCE_COUNTERS_H_
#define CLYDESDALE_MAPREDUCE_COUNTERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_profile.h"

namespace clydesdale {
namespace mr {

/// Which part of the engine populates a counter. kStandard counters are set
/// by every suitably shaped job (MapReduceTest.StandardCountersAllPopulated
/// asserts it); every other group is situational and is populated by exactly
/// one flush helper below, which MetricNamesTest checks name by name.
enum class CounterGroup {
  kStandard,
  kStraggler,  ///< online straggler detector; needs a slow task
  kCifScan,    ///< AddCifScanCounters
  kProfile,    ///< AddQueryProfileCounters (obs.profile.enabled runs)
  kMem,        ///< AddMemTrackerCounters (every RunJob)
  kDimCache,   ///< AddDimCacheCounters (serving-mode dim-table cache)
};

// Every engine-maintained counter, declared once: X(constant, exposed name,
// group). The kCounter* constants, StandardCounterNames(),
// SituationalCounterNames() and CounterNames() all expand from this table.
// Engines add their own tables (core/star_join_job.h).
//
// kCifScan: zone-map-skipped column blocks and rows pruned by pushed-down
// predicates/key filters before decode; on-disk vs plain-equivalent bytes of
// the blocks a scan loaded (their ratio is the observed compression); loaded
// blocks per storage/column_codec.h encoding tag.
// kProfile: merged operator nodes in the job's QueryProfile and the task
// attempts that contributed.
// kMem: the job's high-water tracked bytes summed across its per-node
// trackers, the highest single-node high-water mark, and the configured
// budget (set only when JobConf::mem_budget_bytes > 0).
// kDimCache: per-dimension lookups served from a resident or in-flight
// entry vs builds paid, entries evicted while the query ran, and the cache's
// resident bytes when the query flushed (Set, not summed).
#define CLY_MR_COUNTERS(X)                                                  \
  X(kCounterHdfsBytesReadLocal, "HDFS_BYTES_READ_LOCAL", kStandard)         \
  X(kCounterHdfsBytesReadRemote, "HDFS_BYTES_READ_REMOTE", kStandard)       \
  X(kCounterHdfsBytesWritten, "HDFS_BYTES_WRITTEN", kStandard)              \
  X(kCounterLocalBytesRead, "LOCAL_DISK_BYTES_READ", kStandard)             \
  X(kCounterMapInputRecords, "MAP_INPUT_RECORDS", kStandard)                \
  X(kCounterMapOutputRecords, "MAP_OUTPUT_RECORDS", kStandard)              \
  X(kCounterMapOutputBytes, "MAP_OUTPUT_BYTES", kStandard)                  \
  X(kCounterCombineInputRecords, "COMBINE_INPUT_RECORDS", kStandard)        \
  X(kCounterCombineOutputRecords, "COMBINE_OUTPUT_RECORDS", kStandard)      \
  X(kCounterReduceInputRecords, "REDUCE_INPUT_RECORDS", kStandard)          \
  X(kCounterReduceInputGroups, "REDUCE_INPUT_GROUPS", kStandard)            \
  X(kCounterReduceOutputRecords, "REDUCE_OUTPUT_RECORDS", kStandard)        \
  X(kCounterShuffleBytes, "SHUFFLE_BYTES", kStandard)                       \
  X(kCounterShuffleBytesRemote, "SHUFFLE_BYTES_REMOTE", kStandard)          \
  X(kCounterDataLocalMaps, "DATA_LOCAL_MAPS", kStandard)                    \
  X(kCounterRackRemoteMaps, "RACK_REMOTE_MAPS", kStandard)                  \
  X(kCounterDistCacheBytes, "DISTRIBUTED_CACHE_BYTES", kStandard)           \
  X(kCounterHdfsReadOps, "HDFS_READ_OPS", kStandard)                        \
  X(kCounterHdfsReadMicros, "HDFS_READ_MICROS", kStandard)                  \
  X(kCounterSchedPulls, "SCHED_PULLS", kStandard)                           \
  X(kCounterStragglerAttempts, "STRAGGLER_ATTEMPTS", kStraggler)            \
  X(kCounterCifBlocksSkipped, "CIF_BLOCKS_SKIPPED", kCifScan)               \
  X(kCounterCifRowsPruned, "CIF_ROWS_PRUNED", kCifScan)                     \
  X(kCounterCifBytesEncoded, "CIF_BYTES_ENCODED", kCifScan)                 \
  X(kCounterCifBytesRaw, "CIF_BYTES_RAW", kCifScan)                         \
  X(kCounterCifBlocksPlain, "CIF_BLOCKS_PLAIN", kCifScan)                   \
  X(kCounterCifBlocksRle, "CIF_BLOCKS_RLE", kCifScan)                       \
  X(kCounterCifBlocksBitpack, "CIF_BLOCKS_BITPACK", kCifScan)               \
  X(kCounterCifBlocksFor, "CIF_BLOCKS_FOR", kCifScan)                       \
  X(kCounterCifBlocksDict, "CIF_BLOCKS_DICT", kCifScan)                     \
  X(kCounterCifBlocksDictRle, "CIF_BLOCKS_DICT_RLE", kCifScan)              \
  X(kCounterProfOperators, "PROF_OPERATORS", kProfile)                      \
  X(kCounterProfTasksProfiled, "PROF_TASKS_PROFILED", kProfile)             \
  X(kCounterMemJobPeakBytes, "MEM_JOB_PEAK_BYTES", kMem)                    \
  X(kCounterMemNodePeakBytes, "MEM_NODE_PEAK_BYTES", kMem)                  \
  X(kCounterMemBudgetBytes, "MEM_BUDGET_BYTES", kMem)                       \
  X(kCounterCacheDimHits, "CACHE_DIM_HITS", kDimCache)                      \
  X(kCounterCacheDimMisses, "CACHE_DIM_MISSES", kDimCache)                  \
  X(kCounterCacheDimEvictions, "CACHE_DIM_EVICTIONS", kDimCache)            \
  X(kCounterCacheBytes, "CACHE_BYTES", kDimCache)

#define CLY_DECLARE_COUNTER(id, name, group) \
  inline constexpr const char id[] = name;
CLY_MR_COUNTERS(CLY_DECLARE_COUNTER)

/// Every counter of `group`, in table order.
std::vector<std::string> CounterNames(CounterGroup group);

/// The kStandard counters: a suitably shaped job populates all of them.
std::vector<std::string> StandardCounterNames();

/// Every other engine-maintained counter: each fires only in a specific
/// situation (a slow task, a CIF scan, a profiled or tracked run, a serving
/// cache), so the all-populated audit skips them.
std::vector<std::string> SituationalCounterNames();

/// Named monotonically increasing job statistics, Hadoop-style. Thread-safe.
class Counters {
 public:
  Counters() = default;

  // Copy/move take the source's lock; only safe once its producers stopped.
  Counters(const Counters& other) : values_(other.Snapshot()) {}
  Counters& operator=(const Counters& other) {
    if (this != &other) {
      auto snapshot = other.Snapshot();
      std::lock_guard<std::mutex> lock(mu_);
      values_ = std::move(snapshot);
    }
    return *this;
  }
  // Moves steal the map under the source's lock, so the noexcept claim is
  // honest (no allocation on this path, unlike Snapshot()).
  Counters(Counters&& other) noexcept {
    std::lock_guard<std::mutex> lock(other.mu_);
    values_ = std::move(other.values_);
    other.values_.clear();
  }
  Counters& operator=(Counters&& other) noexcept {
    if (this != &other) {
      std::scoped_lock lock(mu_, other.mu_);
      values_ = std::move(other.values_);
      other.values_.clear();
    }
    return *this;
  }

  void Add(const std::string& name, int64_t delta);
  void Set(const std::string& name, int64_t value);
  int64_t Get(const std::string& name) const;

  /// Merges `other` into this (summing).
  void MergeFrom(const Counters& other);

  /// Snapshot in name order.
  std::map<std::string, int64_t> Snapshot() const;

  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> values_;
};

}  // namespace mr

namespace storage {
struct ScanStats;
}  // namespace storage

namespace obs {
class MemTracker;
}  // namespace obs

namespace mr {

/// Folds one scan's CIF pruning/compression stats into `counters`: the
/// zone-map skip and row-prune counts, the encoded/raw byte totals, one
/// CIF_BLOCKS_<encoding> count per loaded block. Zero values are not added,
/// so situational counters stay absent from jobs that never trip them.
void AddCifScanCounters(const storage::ScanStats& stats, Counters* counters);

/// Folds a job's merged per-operator profile into `counters`
/// (PROF_OPERATORS / PROF_TASKS_PROFILED). No-op for an empty profile.
void AddQueryProfileCounters(const obs::QueryProfile& profile,
                             Counters* counters);

/// Folds the job's MemTracker high-water marks into `counters` at job end:
/// MEM_JOB_PEAK_BYTES (sum of the job's per-node tracker peaks),
/// MEM_NODE_PEAK_BYTES (largest single per-node peak) and MEM_BUDGET_BYTES
/// (the configured limit). Zero values are not added, so a job that
/// charged nothing carries no MEM_* counters.
void AddMemTrackerCounters(
    const std::vector<std::shared_ptr<obs::MemTracker>>& job_trackers,
    uint64_t budget_bytes, Counters* counters);

/// Folds serving-mode dim-table cache activity into `counters` — the only
/// place the CACHE_* counters are populated. Hits/misses/evictions are
/// summed deltas; `resident_bytes` is the cache's current footprint and
/// overwrites (Set) rather than sums.
/// Zero deltas and negative bytes are not recorded, so cache-less jobs carry
/// no CACHE_* counters.
void AddDimCacheCounters(int64_t hits, int64_t misses, int64_t evictions,
                         int64_t resident_bytes, Counters* counters);

/// Builds one "scan" OperatorProfile node (tasks=1) from a completed scan's
/// stats: rows out, decoded/raw bytes, skip/prune counts, per-encoding block
/// histogram, plus the caller-measured timings.
obs::OperatorProfile ScanProfileNode(const std::string& name,
                                     const storage::ScanStats& stats,
                                     uint64_t wall_ns, uint64_t cpu_ns);

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_COUNTERS_H_
