#ifndef CLYDESDALE_MAPREDUCE_OUTPUT_FORMAT_H_
#define CLYDESDALE_MAPREDUCE_OUTPUT_FORMAT_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapreduce/job_conf.h"
#include "mapreduce/mr_types.h"

namespace clydesdale {
namespace mr {

class MrCluster;

/// The Hadoop OutputFormat extensibility point: turns final key/value pairs
/// into an on-disk (or in-memory) artifact. Writers here are created once
/// per job and must be thread-safe, because reduce tasks run concurrently.
class OutputFormat {
 public:
  virtual ~OutputFormat() = default;

  /// Called once before tasks emit; may create DFS files.
  virtual Status Open(MrCluster* cluster, const JobConf& conf) = 0;

  /// Thread-safe emit of one final record.
  virtual Status Write(const Row& key, const Row& value) = 0;

  /// Called once after all tasks finish; finalizes the artifact.
  virtual Status Commit(MrCluster* cluster, const JobConf& conf) = 0;

  /// Collected result rows, for formats that keep them in memory (empty for
  /// on-disk formats). Valid after Commit; moves the rows out.
  virtual std::vector<Row> TakeRows() { return {}; }
};

// --- Configuration keys ------------------------------------------------------

/// For TableOutputFormat: DFS directory of the result table.
inline constexpr const char kConfOutputTable[] = "output.table";
/// For TableOutputFormat: comma-separated "name:type" column declarations of
/// the emitted key followed by value fields, e.g. "d_year:int32,rev:int64".
inline constexpr const char kConfOutputColumns[] = "output.columns";
/// For TableOutputFormat: storage format of the result (default binrow).
inline constexpr const char kConfOutputFormat[] = "output.format";

/// Collects `key ++ value` rows in memory; the job result for queries whose
/// final answer returns to the client.
class MemoryOutputFormat final : public OutputFormat {
 public:
  Status Open(MrCluster* cluster, const JobConf& conf) override;
  Status Write(const Row& key, const Row& value) override;
  Status Commit(MrCluster* cluster, const JobConf& conf) override;
  std::vector<Row> TakeRows() override;

 private:
  std::mutex mu_;
  std::vector<Row> rows_;
};

/// Writes `key ++ value` rows as a stored table (Hive's inter-job
/// intermediate results; paper §6.3 notes these round-trips through HDFS).
class TableOutputFormat final : public OutputFormat {
 public:
  Status Open(MrCluster* cluster, const JobConf& conf) override;
  Status Write(const Row& key, const Row& value) override;
  Status Commit(MrCluster* cluster, const JobConf& conf) override;

 private:
  std::mutex mu_;
  std::vector<Row> rows_;  // buffered; written sequentially at Commit
  uint64_t rows_per_split_ = 0;  // output.rows_per_split, read at Open
};

/// Parses a kConfOutputColumns declaration into a schema.
Result<SchemaPtr> ParseColumnsDecl(const std::string& decl);

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_OUTPUT_FORMAT_H_
