// Reference results for the correctness gate, kept as row digests. A digest
// of ssb::ExecuteReference comes from a golden file under perfbench/golden/
// when the file has it, and is computed on the spot otherwise. One golden
// file covers one scale factor and one dbgen seed, with one entry per query;
// `ssb_bench --regenerate 1` rewrites the entries of a workload's queries
// from the reference executor.

#ifndef CLYDESDALE_PERFBENCH_REFERENCE_DIGESTS_H_
#define CLYDESDALE_PERFBENCH_REFERENCE_DIGESTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_support.h"
#include "core/star_query.h"
#include "core/star_schema.h"
#include "mapreduce/engine.h"
#include "schema/row.h"

namespace perfbench {

/// FNV-1a digest of rows in order, over their pipe-separated renderings.
uint64_t DigestRows(const std::vector<clydesdale::Row>& rows);

/// A query whose reference digest is wanted. `key` identifies it within the
/// golden file (the SSB shape id or the SQL text), `label` is its shape.
struct ReferenceQuery {
  std::string key;
  std::string label;
  const clydesdale::core::StarQuerySpec* spec;
};

class ReferenceDigests {
 public:
  struct Entry {
    uint64_t digest = 0;
    uint64_t rows = 0;
  };

  /// Reads the golden file of (`scale_factor`, `dbgen_seed`) in `dir` if it
  /// exists.
  ReferenceDigests(const std::string& dir, double scale_factor,
                   uint64_t dbgen_seed);

  /// The reference entry of `q`: from the golden file, or computed with
  /// ssb::ExecuteReference (a span in `tracer`) and remembered.
  Entry Get(clydesdale::mr::MrCluster* cluster,
            const clydesdale::core::StarSchema& star, const ReferenceQuery& q,
            Tracer* tracer);

  /// Computes every query in `queries` with ssb::ExecuteReference and
  /// writes the golden file: its earlier entries plus these, replaced.
  void Regenerate(clydesdale::mr::MrCluster* cluster,
                  const clydesdale::core::StarSchema& star,
                  const std::vector<ReferenceQuery>& queries);

  const std::string& path() const { return path_; }
  /// Entries read from the golden file, and references computed since.
  size_t file_entries() const { return file_entries_; }
  size_t computed() const { return computed_; }

 private:
  struct Stored {
    Entry entry;
    std::string label;
  };
  Entry Compute(clydesdale::mr::MrCluster* cluster,
                const clydesdale::core::StarSchema& star,
                const ReferenceQuery& q, Tracer* tracer);

  std::string path_;
  std::string header_;
  /// By FNV-1a of the query key.
  std::map<uint64_t, Stored> golden_;
  size_t file_entries_ = 0;
  size_t computed_ = 0;
};

}  // namespace perfbench

#endif  // CLYDESDALE_PERFBENCH_REFERENCE_DIGESTS_H_
