// A/B benchmark for CIF scan pushdown. The rows are written once, with
// SSB-shaped columns (orderdate in chronological runs -> RLE, quantity and
// discount in small domains -> bit-pack, revenue incompressible -> plain,
// mode -> dictionary), and each filtered case is scanned two ways:
//
//   unpushed  scan_spec = nullptr: every row is materialized and the filter
//             runs engine-side after the scan (BoundPredicate::EvalBatch, or
//             the key filter's Contains per row);
//   pushed    the same filter handed to the reader as a ScanSpec: zone maps
//             skip blocks and predicates/key filters run in the compressed
//             domain before the projection is materialized. The engine-side
//             re-check still runs, as it does in the engine.
//
// Cases: a ~5%-selectivity clustered id range, an SSB Q1.1-shaped predicate
// (orderdate range AND discount BETWEEN 1 AND 3 AND quantity < 25), and the
// date dimension pushed as a semi-join key filter on orderdate. Both arms of
// a case must keep exactly the same rows. An unfiltered full scan reports
// the raw decode rate and the observed compression.
//
// With CLY_SCAN_JSON set, writes the results (rows/s, per-pass wall
// seconds, speedups, pruning stats, compression ratio, per-encoding block
// counts) as JSON; run_benches.sh publishes it as BENCH_scan.json and
// fails if the encoded fields are missing.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "hdfs/dfs.h"
#include "schema/expr.h"
#include "schema/row_batch.h"
#include "storage/column_codec.h"
#include "storage/scan_spec.h"
#include "storage/table_format.h"

using namespace clydesdale;  // NOLINT(build/namespaces)

namespace {

SchemaPtr FactSchema() {
  return Schema::Make({{"id", TypeKind::kInt32, 4},
                       {"orderdate", TypeKind::kInt64, 8},
                       {"quantity", TypeKind::kInt32, 4},
                       {"discount", TypeKind::kInt32, 4},
                       {"revenue", TypeKind::kInt64, 8},
                       {"mode", TypeKind::kString, 10}});
}

// Rows per distinct orderdate: long chronological runs, the shape a
// rolled-in fact table has, so orderdate blocks are stored as RLE.
constexpr int64_t kRowsPerDate = 4000;

Row MakeRow(int64_t i) {
  static const char* kModes[] = {"AIR",      "RAIL",  "SHIP",    "TRUCK",
                                 "PIPELINE", "BARGE", "COURIER", "DRONE"};
  const uint64_t h = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull;
  return Row({Value(static_cast<int32_t>(i)),
              Value(INT64_C(19920101) + i / kRowsPerDate),
              Value(static_cast<int32_t>(1 + h % 50)),
              Value(static_cast<int32_t>((h >> 8) % 11)),
              Value(static_cast<int64_t>(h)),  // incompressible: stays plain
              Value(kModes[i % 8])});
}

storage::TableDesc WriteTable(hdfs::MiniDfs* dfs, const std::string& path,
                              int64_t rows, int64_t rows_per_split) {
  storage::TableDesc desc;
  desc.path = path;
  desc.format = storage::kFormatCif;
  desc.schema = FactSchema();
  desc.rows_per_split = static_cast<uint64_t>(rows_per_split);
  auto writer = storage::OpenTableWriter(dfs, desc);
  CLY_CHECK(writer.ok());
  for (int64_t i = 0; i < rows; ++i) {
    CLY_CHECK_OK((*writer)->Append(MakeRow(i)));
  }
  CLY_CHECK_OK((*writer)->Close());
  auto loaded = storage::LoadTableDesc(*dfs, path);
  CLY_CHECK(loaded.ok());
  return *loaded;
}

/// Engine-side filter over one scanned batch: clears `sel` for rows that
/// fail. Null means the case has no filter.
using Recheck = std::function<void(const RowBatch&, std::vector<uint8_t>*)>;

/// One full pass over the table; returns the number of surviving rows.
/// `recheck`, when set, runs batch-wise after the scan — the engine-side
/// re-check both arms pay.
int64_t ScanPass(const hdfs::MiniDfs& dfs, const storage::TableDesc& desc,
                 const std::vector<storage::StorageSplit>& splits,
                 const storage::ScanOptions& base, const Recheck& recheck,
                 storage::ScanStats* stats) {
  int64_t rows_out = 0;
  std::vector<uint8_t> sel;
  for (const storage::StorageSplit& split : splits) {
    storage::ScanOptions options = base;
    options.scan_stats = stats;
    auto reader = storage::OpenSplitBatchReader(dfs, desc, split, options);
    CLY_CHECK(reader.ok());
    RowBatch batch((*reader)->output_schema());
    while (true) {
      auto more = (*reader)->NextBatch(&batch, 4096);
      CLY_CHECK(more.ok());
      if (!*more) break;
      const int64_t n = batch.num_rows();
      if (!recheck) {
        rows_out += n;
        continue;
      }
      sel.assign(static_cast<size_t>(n), 1);
      recheck(batch, &sel);
      for (int64_t i = 0; i < n; ++i) rows_out += sel[static_cast<size_t>(i)];
    }
  }
  return rows_out;
}

/// Hash-set membership filter standing in for a built dimension hash table
/// (the engine wraps DimHashTables in exactly this shape to push the
/// semi-join below the scan). Costs one hash probe per Contains, like the
/// real thing.
class SetKeyFilter final : public storage::ScanKeyFilter {
 public:
  explicit SetKeyFilter(std::unordered_set<int64_t> keys)
      : keys_(std::move(keys)) {
    for (int64_t k : keys_) {
      lo_ = std::min(lo_, k);
      hi_ = std::max(hi_, k);
    }
  }
  bool Contains(int64_t key) const override { return keys_.count(key) > 0; }
  bool RangeMightMatch(int64_t lo, int64_t hi) const override {
    return !keys_.empty() && !(hi < lo_ || lo > hi_);
  }

 private:
  std::unordered_set<int64_t> keys_;
  int64_t lo_ = INT64_MAX;
  int64_t hi_ = INT64_MIN;
};

struct CaseResult {
  double wall_seconds = 0;   // per pass
  double rows_per_sec = 0;   // table rows scanned per second
  int64_t rows_out = 0;
  storage::ScanStats stats;  // last pass
};

CaseResult TimeCase(const hdfs::MiniDfs& dfs, const storage::TableDesc& desc,
                    const std::vector<storage::StorageSplit>& splits,
                    int64_t table_rows, const storage::ScanOptions& base,
                    const Recheck& recheck) {
  CaseResult result;
  // Warmup: page in the column files and settle allocators.
  ScanPass(dfs, desc, splits, base, recheck, nullptr);
  Stopwatch sw;
  int passes = 0;
  do {
    result.stats = storage::ScanStats();
    result.rows_out =
        ScanPass(dfs, desc, splits, base, recheck, &result.stats);
    ++passes;
  } while (sw.ElapsedSeconds() < 0.3);
  const double elapsed = sw.ElapsedSeconds();
  result.wall_seconds = elapsed / passes;
  result.rows_per_sec = static_cast<double>(table_rows) * passes / elapsed;
  return result;
}

void PrintCase(const char* name, const char* a_tag, const CaseResult& a,
               const char* b_tag, const CaseResult& b) {
  std::printf("%-20s %s %10.2f Mrows/s   %s %10.2f Mrows/s   %s/%s %5.2fx\n",
              name, a_tag, a.rows_per_sec / 1e6, b_tag, b.rows_per_sec / 1e6,
              b_tag, a_tag, b.rows_per_sec / a.rows_per_sec);
}

/// One filtered case: the unpushed arm, the pushed arm (reported as "v3",
/// the format version it scans) and the pushdown speedup.
void EmitCase(std::FILE* out, const char* name, const CaseResult& unpushed,
              const CaseResult& pushed) {
  std::fprintf(out,
               "  \"%s\": {\n"
               "    \"unpushed\": {\"rows_per_sec\": %.1f, "
               "\"wall_seconds\": %.6f, \"rows_out\": %lld},\n"
               "    \"v3\": {\"rows_per_sec\": %.1f, \"wall_seconds\": %.6f, "
               "\"rows_out\": %lld, \"blocks_skipped\": %llu, "
               "\"rows_pruned\": %llu},\n"
               "    \"pushdown_speedup\": %.3f\n"
               "  },\n",
               name, unpushed.rows_per_sec, unpushed.wall_seconds,
               static_cast<long long>(unpushed.rows_out), pushed.rows_per_sec,
               pushed.wall_seconds, static_cast<long long>(pushed.rows_out),
               static_cast<unsigned long long>(pushed.stats.blocks_skipped),
               static_cast<unsigned long long>(pushed.stats.rows_pruned),
               pushed.rows_per_sec / unpushed.rows_per_sec);
}

}  // namespace

int main() {
  SetLogThreshold(LogLevel::kWarning);
  const char* sf_env = std::getenv("CLY_BENCH_SF");
  const double sf = sf_env != nullptr ? std::atof(sf_env) : 0.02;
  const int64_t rows =
      std::max<int64_t>(20000, static_cast<int64_t>(sf * 2e6));
  // At least ~20 splits so zone-map skipping has blocks to refute even at
  // smoke scale; capped so the widest column (8 B/row plus the footer)
  // stays within one 256 KiB DFS block per split.
  const int64_t rows_per_split =
      std::min<int64_t>(16384, std::max<int64_t>(1024, rows / 32));

  hdfs::DfsOptions dfs_options;
  dfs_options.num_nodes = 2;
  dfs_options.block_size = 256 * 1024;
  dfs_options.replication = 1;
  hdfs::MiniDfs dfs(dfs_options);

  const storage::TableDesc desc =
      WriteTable(&dfs, "/scan_ab", rows, rows_per_split);
  auto splits = storage::ListTableSplits(dfs, desc);
  CLY_CHECK(splits.ok());

  // ~5% selectivity, clustered on the sequential id column — the shape a
  // date-range predicate over a chronologically rolled-in fact table has.
  const int64_t cutoff = rows / 20 - 1;
  Predicate::Ptr id_leaf =
      Predicate::Le("id", Value(static_cast<int32_t>(cutoff)));
  auto id_spec = std::make_shared<storage::ScanSpec>();
  id_spec->conjuncts.push_back(id_leaf);

  // SSB Q1.1 shape: a half-table orderdate range (zone-refutable) AND two
  // small-domain leaves evaluated per packed code / per run.
  const int64_t date_hi = INT64_C(19920101) + (rows / 2) / kRowsPerDate;
  std::vector<Predicate::Ptr> q11_leaves = {
      Predicate::Le("orderdate", Value(date_hi)),
      Predicate::Between("discount", Value(int32_t{1}), Value(int32_t{3})),
      Predicate::Lt("quantity", Value(int32_t{25})),
  };
  auto q11_spec = std::make_shared<storage::ScanSpec>();
  for (const auto& leaf : q11_leaves) q11_spec->conjuncts.push_back(leaf);

  storage::ScanOptions full;
  storage::ScanOptions predicate;
  predicate.projection = {"id", "revenue"};
  storage::ScanOptions predicate_pushed = predicate;
  predicate_pushed.scan_spec = id_spec;
  storage::ScanOptions q11_scan;
  q11_scan.projection = {"orderdate", "quantity", "discount", "revenue"};
  storage::ScanOptions q11_pushed_scan = q11_scan;
  q11_pushed_scan.scan_spec = q11_spec;

  // SSB's date filter as the engine really executes it: the date-dimension
  // hash table pushed into the scan as a semi-join key filter on the fact's
  // orderdate FK. Every other date is a member, so zone maps cannot refute
  // whole blocks and the probing granularity is what's measured — one probe
  // per row unpushed, one per RLE run pushed.
  const int64_t num_dates = (rows + kRowsPerDate - 1) / kRowsPerDate;
  std::unordered_set<int64_t> member_dates;
  for (int64_t d = 0; d < num_dates; d += 2) {
    member_dates.insert(INT64_C(19920101) + d);
  }
  auto date_filter = std::make_shared<SetKeyFilter>(std::move(member_dates));
  auto keyfilter_spec = std::make_shared<storage::ScanSpec>();
  keyfilter_spec->key_filters.push_back({"orderdate", date_filter});
  storage::ScanOptions keyfilter;
  keyfilter.projection = {"orderdate", "revenue"};
  storage::ScanOptions keyfilter_pushed = keyfilter;
  keyfilter_pushed.scan_spec = keyfilter_spec;

  auto bound_one = [](const Predicate::Ptr& leaf, const SchemaPtr& schema) {
    auto bound = leaf->Bind(*schema);
    CLY_CHECK(bound.ok());
    return std::move(*bound);
  };
  const auto pred_schema = Schema::Make(
      {{"id", TypeKind::kInt32, 4}, {"revenue", TypeKind::kInt64, 8}});
  const auto id_bound = bound_one(id_leaf, pred_schema);
  const auto q11_schema = Schema::Make({{"orderdate", TypeKind::kInt64, 8},
                                        {"quantity", TypeKind::kInt32, 4},
                                        {"discount", TypeKind::kInt32, 4},
                                        {"revenue", TypeKind::kInt64, 8}});
  std::vector<std::shared_ptr<const BoundPredicate>> q11_bound;
  for (const auto& leaf : q11_leaves) {
    q11_bound.push_back(bound_one(leaf, q11_schema));
  }
  const Recheck no_recheck;
  const Recheck id_recheck = [&](const RowBatch& batch,
                                 std::vector<uint8_t>* sel) {
    id_bound->EvalBatch(batch, sel);
  };
  const Recheck q11_recheck = [&](const RowBatch& batch,
                                  std::vector<uint8_t>* sel) {
    for (const auto& pred : q11_bound) pred->EvalBatch(batch, sel);
  };
  const Recheck key_recheck = [&](const RowBatch& batch,
                                  std::vector<uint8_t>* sel) {
    const std::vector<int64_t>& dates = batch.column(0).i64();
    for (size_t i = 0; i < dates.size(); ++i) {
      (*sel)[i] &= static_cast<uint8_t>(date_filter->Contains(dates[i]));
    }
  };

  std::printf("CIF scan pushdown A/B: %lld rows, %zu splits, id-predicate "
              "selectivity %.1f%%\n\n",
              static_cast<long long>(rows), splits->size(),
              100.0 * static_cast<double>(cutoff + 1) /
                  static_cast<double>(rows));

  const CaseResult full_scan =
      TimeCase(dfs, desc, *splits, rows, full, no_recheck);
  const CaseResult pred_unpushed =
      TimeCase(dfs, desc, *splits, rows, predicate, id_recheck);
  const CaseResult pred_pushed =
      TimeCase(dfs, desc, *splits, rows, predicate_pushed, id_recheck);
  const CaseResult q11_unpushed =
      TimeCase(dfs, desc, *splits, rows, q11_scan, q11_recheck);
  const CaseResult q11_pushed =
      TimeCase(dfs, desc, *splits, rows, q11_pushed_scan, q11_recheck);
  const CaseResult key_unpushed =
      TimeCase(dfs, desc, *splits, rows, keyfilter, key_recheck);
  const CaseResult key_pushed =
      TimeCase(dfs, desc, *splits, rows, keyfilter_pushed, key_recheck);

  // The pushed-down scans must surface exactly the rows the engine-side
  // filter keeps; anything else is a correctness bug, not a speedup.
  CLY_CHECK(full_scan.rows_out == rows);
  CLY_CHECK(pred_unpushed.rows_out == cutoff + 1);
  CLY_CHECK(pred_pushed.rows_out == pred_unpushed.rows_out);
  CLY_CHECK(q11_unpushed.rows_out > 0);
  CLY_CHECK(q11_pushed.rows_out == q11_unpushed.rows_out);
  CLY_CHECK(key_unpushed.rows_out > 0 && key_unpushed.rows_out < rows);
  CLY_CHECK(key_pushed.rows_out == key_unpushed.rows_out);

  // Observed compression of the full scan (every block loaded).
  const storage::ScanStats& enc = full_scan.stats;
  CLY_CHECK(enc.bytes_encoded > 0);
  const double ratio = static_cast<double>(enc.bytes_raw) /
                       static_cast<double>(enc.bytes_encoded);

  std::printf("%-20s %10.2f Mrows/s\n", "full scan",
              full_scan.rows_per_sec / 1e6);
  PrintCase("predicate 5%", "unpushed", pred_unpushed, "pushed", pred_pushed);
  PrintCase("Q1.1", "unpushed", q11_unpushed, "pushed", q11_pushed);
  PrintCase("keyfilter", "unpushed", key_unpushed, "pushed", key_pushed);
  std::printf("\nid-predicate pruning: %llu blocks skipped, %llu rows "
              "pruned before decode\n",
              static_cast<unsigned long long>(pred_pushed.stats.blocks_skipped),
              static_cast<unsigned long long>(pred_pushed.stats.rows_pruned));
  std::printf("compression: %.2fx (%llu encoded / %llu raw bytes); "
              "blocks:",
              ratio, static_cast<unsigned long long>(enc.bytes_encoded),
              static_cast<unsigned long long>(enc.bytes_raw));
  for (int e = 0; e < storage::kEncCount; ++e) {
    std::printf(" %s=%llu", storage::EncodingName(static_cast<uint8_t>(e)),
                static_cast<unsigned long long>(enc.blocks_by_encoding[e]));
  }
  std::printf("\n");

  const char* json_path = std::getenv("CLY_SCAN_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    std::FILE* out = std::fopen(json_path, "w");
    CLY_CHECK(out != nullptr);
    std::fprintf(out,
                 "{\n  \"rows\": %lld,\n  \"splits\": %zu,\n"
                 "  \"predicate_selectivity\": %.4f,\n",
                 static_cast<long long>(rows), splits->size(),
                 static_cast<double>(cutoff + 1) / static_cast<double>(rows));
    std::fprintf(out,
                 "  \"scan_encoded_full\": {\"v3\": {\"rows_per_sec\": %.1f, "
                 "\"wall_seconds\": %.6f, \"rows_out\": %lld}},\n",
                 full_scan.rows_per_sec, full_scan.wall_seconds,
                 static_cast<long long>(full_scan.rows_out));
    EmitCase(out, "scan_predicate", pred_unpushed, pred_pushed);
    EmitCase(out, "scan_encoded_predicate", q11_unpushed, q11_pushed);
    EmitCase(out, "scan_encoded_keyfilter", key_unpushed, key_pushed);
    std::fprintf(out, "  \"compression_ratio\": %.3f,\n  \"encodings\": {",
                 ratio);
    for (int e = 0; e < storage::kEncCount; ++e) {
      std::fprintf(out, "%s\"%s\": %llu", e == 0 ? "" : ", ",
                   storage::EncodingName(static_cast<uint8_t>(e)),
                   static_cast<unsigned long long>(enc.blocks_by_encoding[e]));
    }
    std::fprintf(out,
                 "},\n  \"bytes_encoded\": %llu,\n  \"bytes_raw\": %llu\n}\n",
                 static_cast<unsigned long long>(enc.bytes_encoded),
                 static_cast<unsigned long long>(enc.bytes_raw));
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
