#include "storage/stats_catalog.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"

namespace clydesdale {
namespace storage {

namespace {

/// %.17g: the exact double round-trips through strtod (same discipline as
/// the job-history serializer).
std::string FmtDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* TypeToken(TypeKind type) {
  switch (type) {
    case TypeKind::kInt32: return "int32";
    case TypeKind::kInt64: return "int64";
    case TypeKind::kDouble: return "double";
    case TypeKind::kString: return "string";
  }
  return "int32";
}

Result<TypeKind> ParseTypeToken(std::string_view token) {
  if (token == "int32") return TypeKind::kInt32;
  if (token == "int64") return TypeKind::kInt64;
  if (token == "double") return TypeKind::kDouble;
  if (token == "string") return TypeKind::kString;
  return Status::InvalidArgument(StrCat("unknown stats type ", token));
}

Result<Value> ParseTypedValue(TypeKind type, const std::string& text) {
  switch (type) {
    case TypeKind::kInt32:
      return Value(static_cast<int32_t>(std::strtoll(text.c_str(), nullptr, 10)));
    case TypeKind::kInt64:
      return Value(static_cast<int64_t>(std::strtoll(text.c_str(), nullptr, 10)));
    case TypeKind::kDouble:
      return Value(std::strtod(text.c_str(), nullptr));
    case TypeKind::kString:
      return Value(text);
  }
  return Status::InvalidArgument("bad type");
}

/// Per-column accumulation state while streaming batches.
struct ColumnAccumulator {
  ColumnStats stats;
  ReservoirSample sample;
  bool has_bounds = false;
  int64_t min_i = 0, max_i = 0;
  double min_d = 0, max_d = 0;
  std::string min_s, max_s;

  explicit ColumnAccumulator(size_t sample_capacity)
      : sample(sample_capacity) {}
};

void AccumulateColumn(const ColumnVector& col, int64_t num_rows,
                      ColumnAccumulator* acc) {
  acc->stats.row_count += static_cast<uint64_t>(num_rows);
  switch (acc->stats.type) {
    case TypeKind::kInt32:
      for (int32_t v : col.i32()) {
        acc->stats.sketch.AddInt64(v);
        acc->sample.Add(static_cast<double>(v));
        if (!acc->has_bounds || v < acc->min_i) acc->min_i = v;
        if (!acc->has_bounds || v > acc->max_i) acc->max_i = v;
        acc->has_bounds = true;
      }
      break;
    case TypeKind::kInt64:
      for (int64_t v : col.i64()) {
        acc->stats.sketch.AddInt64(v);
        acc->sample.Add(static_cast<double>(v));
        if (!acc->has_bounds || v < acc->min_i) acc->min_i = v;
        if (!acc->has_bounds || v > acc->max_i) acc->max_i = v;
        acc->has_bounds = true;
      }
      break;
    case TypeKind::kDouble:
      for (double v : col.f64()) {
        acc->stats.sketch.AddDouble(v);
        acc->sample.Add(v);
        if (!acc->has_bounds || v < acc->min_d) acc->min_d = v;
        if (!acc->has_bounds || v > acc->max_d) acc->max_d = v;
        acc->has_bounds = true;
      }
      break;
    case TypeKind::kString:
      for (int64_t i = 0; i < num_rows; ++i) {
        const std::string_view v = col.StringViewAt(i);
        acc->stats.sketch.AddString(v);
        if (!acc->has_bounds || v < acc->min_s) acc->min_s = std::string(v);
        if (!acc->has_bounds || v > acc->max_s) acc->max_s = std::string(v);
        acc->has_bounds = true;
      }
      break;
  }
}

void FinalizeColumn(const AnalyzeOptions& options, ColumnAccumulator* acc) {
  ColumnStats* stats = &acc->stats;
  stats->ndv = stats->row_count == 0 ? 0.0 : stats->sketch.Estimate();
  if (acc->has_bounds) {
    switch (stats->type) {
      case TypeKind::kInt32:
        stats->min = Value(static_cast<int32_t>(acc->min_i));
        stats->max = Value(static_cast<int32_t>(acc->max_i));
        break;
      case TypeKind::kInt64:
        stats->min = Value(acc->min_i);
        stats->max = Value(acc->max_i);
        break;
      case TypeKind::kDouble:
        stats->min = Value(acc->min_d);
        stats->max = Value(acc->max_d);
        break;
      case TypeKind::kString:
        stats->min = Value(acc->min_s);
        stats->max = Value(acc->max_s);
        break;
    }
  }
  if (stats->type != TypeKind::kString) {
    stats->histogram = BuildEquiDepthHistogram(acc->sample.values(),
                                               options.histogram_buckets);
  }
}

}  // namespace

const ColumnStats* TableStats::Column(const std::string& name) const {
  for (const ColumnStats& column : columns) {
    if (column.name == name) return &column;
  }
  return nullptr;
}

Result<TableStats> AnalyzeTable(const hdfs::MiniDfs& dfs,
                                const TableDesc& desc,
                                const AnalyzeOptions& options) {
  if (desc.schema == nullptr) {
    return Status::InvalidArgument("AnalyzeTable: desc has no schema");
  }
  TableStats stats;
  stats.table_path = desc.path;

  const Schema& schema = *desc.schema;
  std::vector<ColumnAccumulator> accumulators;
  accumulators.reserve(static_cast<size_t>(schema.num_fields()));
  for (const Field& field : schema.fields()) {
    accumulators.emplace_back(options.sample_capacity);
    accumulators.back().stats.name = field.name;
    accumulators.back().stats.type = field.type;
  }

  CLY_ASSIGN_OR_RETURN(std::vector<StorageSplit> splits,
                       ListTableSplits(dfs, desc));
  ScanOptions scan;
  scan.scan_stats = options.scan_stats;
  for (const StorageSplit& split : splits) {
    CLY_ASSIGN_OR_RETURN(std::unique_ptr<BatchReader> reader,
                         OpenSplitBatchReader(dfs, desc, split, scan));
    RowBatch batch(reader->output_schema());
    while (true) {
      CLY_ASSIGN_OR_RETURN(bool more, reader->NextBatch(&batch, 16384));
      if (!more) break;
      const int64_t rows = batch.num_rows();
      stats.num_rows += static_cast<uint64_t>(rows);
      for (int c = 0; c < batch.num_columns(); ++c) {
        AccumulateColumn(batch.column(c), rows,
                         &accumulators[static_cast<size_t>(c)]);
      }
    }
  }

  for (ColumnAccumulator& acc : accumulators) {
    FinalizeColumn(options, &acc);
    stats.columns.push_back(std::move(acc.stats));
  }
  return stats;
}

std::string SerializeTableStats(const TableStats& stats) {
  std::string out = "statscatalog 1\n";
  out.append(StrCat("table ", stats.table_path, "\n"));
  out.append(StrCat("num_rows ", stats.num_rows, "\n"));
  out.append(StrCat("columns ", stats.columns.size(), "\n"));
  for (const ColumnStats& column : stats.columns) {
    out.append(StrCat("column ", column.name, "\n"));
    out.append(StrCat("type ", TypeToken(column.type), "\n"));
    out.append(StrCat("rows ", column.row_count, "\n"));
    out.append(StrCat("nulls ", column.null_count, "\n"));
    if (column.row_count > 0) {
      out.append(StrCat("min ", column.min.ToString(), "\n"));
      out.append(StrCat("max ", column.max.ToString(), "\n"));
    }
    out.append(StrCat("ndv ", FmtDouble(column.ndv), "\n"));
    out.append(StrCat("hll ", column.sketch.SerializeHex(), "\n"));
    if (!column.histogram.empty()) {
      std::vector<std::string> bounds, counts;
      for (double b : column.histogram.bounds) bounds.push_back(FmtDouble(b));
      for (uint64_t c : column.histogram.counts) counts.push_back(StrCat(c));
      out.append(StrCat("histbounds ", StrJoin(bounds, ","), "\n"));
      out.append(StrCat("histcounts ", StrJoin(counts, ","), "\n"));
    }
    out.append("endcolumn\n");
  }
  out.append("end\n");
  return out;
}

Result<TableStats> ParseTableStats(std::string_view text) {
  TableStats stats;
  ColumnStats* column = nullptr;
  bool saw_header = false;
  bool saw_end = false;
  std::string pending_min, pending_max;
  bool has_min = false, has_max = false;

  auto finish_column = [&]() -> Status {
    if (column == nullptr) return Status::OK();
    if (has_min) {
      CLY_ASSIGN_OR_RETURN(column->min,
                           ParseTypedValue(column->type, pending_min));
    }
    if (has_max) {
      CLY_ASSIGN_OR_RETURN(column->max,
                           ParseTypedValue(column->type, pending_max));
    }
    column = nullptr;
    has_min = has_max = false;
    return Status::OK();
  };

  for (const std::string& line : StrSplit(text, '\n')) {
    if (line.empty()) continue;
    const size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string rest =
        space == std::string::npos ? "" : line.substr(space + 1);
    if (key == "statscatalog") {
      if (rest != "1") {
        return Status::InvalidArgument(
            StrCat("unknown stats catalog version ", rest));
      }
      saw_header = true;
    } else if (key == "table") {
      stats.table_path = rest;
    } else if (key == "num_rows") {
      stats.num_rows = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "columns") {
      stats.columns.reserve(std::strtoull(rest.c_str(), nullptr, 10));
    } else if (key == "column") {
      CLY_RETURN_IF_ERROR(finish_column());
      stats.columns.emplace_back();
      column = &stats.columns.back();
      column->name = rest;
    } else if (key == "endcolumn") {
      CLY_RETURN_IF_ERROR(finish_column());
    } else if (key == "end") {
      CLY_RETURN_IF_ERROR(finish_column());
      saw_end = true;
    } else if (column == nullptr) {
      return Status::InvalidArgument(
          StrCat("stats field outside a column block: ", key));
    } else if (key == "type") {
      CLY_ASSIGN_OR_RETURN(column->type, ParseTypeToken(rest));
    } else if (key == "rows") {
      column->row_count = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "nulls") {
      column->null_count = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "min") {
      pending_min = rest;
      has_min = true;
    } else if (key == "max") {
      pending_max = rest;
      has_max = true;
    } else if (key == "ndv") {
      column->ndv = std::strtod(rest.c_str(), nullptr);
    } else if (key == "hll") {
      CLY_ASSIGN_OR_RETURN(column->sketch, HllSketch::DeserializeHex(rest));
    } else if (key == "histbounds") {
      for (const std::string& b : StrSplit(rest, ',')) {
        column->histogram.bounds.push_back(std::strtod(b.c_str(), nullptr));
      }
    } else if (key == "histcounts") {
      for (const std::string& c : StrSplit(rest, ',')) {
        column->histogram.counts.push_back(std::strtoull(c.c_str(), nullptr, 10));
      }
    } else {
      // Unknown keys are skipped so a newer writer stays loadable.
    }
  }
  if (!saw_header || !saw_end) {
    return Status::InvalidArgument("truncated stats catalog entry");
  }
  return stats;
}

StatsCatalog::StatsCatalog(hdfs::MiniDfs* dfs, std::string root)
    : dfs_(dfs), root_(std::move(root)) {}

std::string StatsCatalog::EntryPath(const TableDesc& desc) const {
  std::string escaped = desc.path;
  for (char& c : escaped) {
    if (c == '/') c = '_';
  }
  return StrCat(root_, "/", escaped, ".stats");
}

Result<TableStats> StatsCatalog::Analyze(const TableDesc& desc,
                                         const AnalyzeOptions& options) {
  CLY_ASSIGN_OR_RETURN(TableStats stats, AnalyzeTable(*dfs_, desc, options));
  const std::string path = EntryPath(desc);
  if (dfs_->Exists(path)) CLY_RETURN_IF_ERROR(dfs_->Delete(path));
  CLY_RETURN_IF_ERROR(dfs_->WriteFile(path, SerializeTableStats(stats)));
  return stats;
}

Result<TableStats> StatsCatalog::Load(const TableDesc& desc) const {
  const std::string path = EntryPath(desc);
  if (!dfs_->Exists(path)) {
    return Status::NotFound(StrCat("no stats for ", desc.path));
  }
  CLY_ASSIGN_OR_RETURN(std::string text, dfs_->ReadFileToString(path));
  CLY_ASSIGN_OR_RETURN(TableStats stats, ParseTableStats(text));
  // Load-time invalidation: the entry must describe the table as it stands.
  // A roll-in/roll-out changes num_rows, and stale statistics are worse
  // than none.
  if (stats.num_rows != desc.num_rows) {
    return Status::NotFound(StrCat("stats for ", desc.path,
                                   " are stale (recorded ", stats.num_rows,
                                   " rows, table has ", desc.num_rows, ")"));
  }
  return stats;
}

bool StatsCatalog::Has(const TableDesc& desc) const {
  return Load(desc).ok();
}

Status StatsCatalog::Invalidate(const TableDesc& desc) {
  const std::string path = EntryPath(desc);
  if (!dfs_->Exists(path)) return Status::OK();
  return dfs_->Delete(path);
}

}  // namespace storage
}  // namespace clydesdale
