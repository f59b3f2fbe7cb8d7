#ifndef CLYDESDALE_STORAGE_STATS_CATALOG_H_
#define CLYDESDALE_STORAGE_STATS_CATALOG_H_

#include <string>
#include <vector>

#include "common/sketch.h"
#include "common/status.h"
#include "schema/value.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace storage {

/// Per-column statistics produced by ANALYZE: the input surface a cost-based
/// planner needs to choose between star-join, mapjoin, and repartition join
/// (ROADMAP item 3, the paper's §6.3 dissection automated).
struct ColumnStats {
  std::string name;
  TypeKind type = TypeKind::kInt32;
  /// Non-null values observed (CIF columns are never null today, so this
  /// equals the table row count; the split is kept so a nullable format can
  /// reuse the struct unchanged).
  uint64_t row_count = 0;
  uint64_t null_count = 0;
  /// Valid only when row_count > 0.
  Value min;
  Value max;
  /// HLL estimate of the number of distinct non-null values.
  double ndv = 0;
  /// The sketch itself is persisted so a future segment roll-in can merge
  /// instead of rescanning history.
  HllSketch sketch;
  /// Numeric columns only (empty for strings).
  EquiDepthHistogram histogram;

  double null_fraction() const {
    const uint64_t total = row_count + null_count;
    return total == 0 ? 0.0
                      : static_cast<double>(null_count) /
                            static_cast<double>(total);
  }
};

/// ANALYZE output for one table.
struct TableStats {
  std::string table_path;
  /// Exact row count observed by the scan (not the metadata claim).
  uint64_t num_rows = 0;
  std::vector<ColumnStats> columns;

  const ColumnStats* Column(const std::string& name) const;
};

struct AnalyzeOptions {
  int histogram_buckets = 32;
  /// Per-column reservoir feeding the equi-depth histogram.
  size_t sample_capacity = 8192;
  ScanStats* scan_stats = nullptr;
};

/// Streams every split of `desc` (any storage format; CIF streams
/// column-block-wise) and computes exact row counts / min / max plus
/// sketched NDV and a sampled equi-depth histogram per column.
Result<TableStats> AnalyzeTable(const hdfs::MiniDfs& dfs,
                                const TableDesc& desc,
                                const AnalyzeOptions& options = {});

/// Text round-trip used by the catalog's sim-HDFS persistence. One field per
/// line (`key<space>value`, values may contain spaces but not newlines).
std::string SerializeTableStats(const TableStats& stats);
Result<TableStats> ParseTableStats(std::string_view text);

/// Persistent statistics store over sim-HDFS. Entries are keyed by table
/// path and invalidated at load time when the live TableDesc disagrees with
/// the recorded shape (row count drift from a roll-in/roll-out), so a stale
/// entry degrades to "not analyzed yet" rather than to wrong estimates.
class StatsCatalog {
 public:
  explicit StatsCatalog(hdfs::MiniDfs* dfs, std::string root = "/stats");

  /// ANALYZE + persist; returns the fresh statistics.
  Result<TableStats> Analyze(const TableDesc& desc,
                             const AnalyzeOptions& options = {});

  /// Loads the entry for desc.path. NotFound when the table was never
  /// analyzed or the entry is invalidated by desc (num_rows mismatch).
  Result<TableStats> Load(const TableDesc& desc) const;

  bool Has(const TableDesc& desc) const;

  /// Drops the entry (no-op when absent).
  Status Invalidate(const TableDesc& desc);

  /// DFS path of the entry for desc.path.
  std::string EntryPath(const TableDesc& desc) const;

 private:
  hdfs::MiniDfs* dfs_;
  std::string root_;
};

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_STATS_CATALOG_H_
