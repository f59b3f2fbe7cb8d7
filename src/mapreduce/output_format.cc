#include "mapreduce/output_format.h"

#include "common/strings.h"
#include "mapreduce/engine.h"

namespace clydesdale {
namespace mr {

Result<SchemaPtr> ParseColumnsDecl(const std::string& decl) {
  if (decl.empty()) {
    return Status::InvalidArgument("output.columns is not set");
  }
  std::vector<Field> fields;
  for (const std::string& item : StrSplit(decl, ',')) {
    const std::vector<std::string> parts = StrSplit(item, ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument(
          StrCat("bad column declaration: '", item, "'"));
    }
    TypeKind type;
    if (parts[1] == "int32") {
      type = TypeKind::kInt32;
    } else if (parts[1] == "int64") {
      type = TypeKind::kInt64;
    } else if (parts[1] == "double") {
      type = TypeKind::kDouble;
    } else if (parts[1] == "string") {
      type = TypeKind::kString;
    } else {
      return Status::InvalidArgument(StrCat("bad column type: '", parts[1], "'"));
    }
    fields.push_back(Field{parts[0], type, 0});
  }
  return Schema::Make(std::move(fields));
}

// --- MemoryOutputFormat ------------------------------------------------------

Status MemoryOutputFormat::Open(MrCluster*, const JobConf&) {
  return Status::OK();
}

Status MemoryOutputFormat::Write(const Row& key, const Row& value) {
  Row combined = key;
  combined.Extend(value);
  std::lock_guard<std::mutex> lock(mu_);
  rows_.push_back(std::move(combined));
  return Status::OK();
}

Status MemoryOutputFormat::Commit(MrCluster*, const JobConf&) {
  return Status::OK();
}

std::vector<Row> MemoryOutputFormat::TakeRows() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(rows_);
}

// --- TableOutputFormat -------------------------------------------------------

Status TableOutputFormat::Open(MrCluster*, const JobConf& conf) {
  const std::string table = conf.Get(kConfOutputTable);
  if (table.empty()) {
    return Status::InvalidArgument("output.table is not set");
  }
  // Validate the declaration early so misconfiguration fails before work.
  CLY_RETURN_IF_ERROR(ParseColumnsDecl(conf.Get(kConfOutputColumns)).status());
  CLY_ASSIGN_OR_RETURN(const int64_t rows_per_split,
                       conf.GetInt("output.rows_per_split", 64 * 1024));
  rows_per_split_ = static_cast<uint64_t>(rows_per_split);
  return Status::OK();
}

Status TableOutputFormat::Write(const Row& key, const Row& value) {
  Row combined = key;
  combined.Extend(value);
  std::lock_guard<std::mutex> lock(mu_);
  rows_.push_back(std::move(combined));
  return Status::OK();
}

Status TableOutputFormat::Commit(MrCluster* cluster, const JobConf& conf) {
  CLY_ASSIGN_OR_RETURN(SchemaPtr schema,
                       ParseColumnsDecl(conf.Get(kConfOutputColumns)));
  storage::TableDesc desc;
  desc.path = conf.Get(kConfOutputTable);
  desc.format = conf.Get(kConfOutputFormat, storage::kFormatBinaryRow);
  desc.schema = schema;
  desc.rows_per_split = rows_per_split_;

  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows = std::move(rows_);
  }
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<storage::TableWriter> writer,
                       storage::OpenTableWriter(cluster->dfs(), desc));
  for (const Row& row : rows) {
    if (row.size() != schema->num_fields()) {
      return Status::Internal(
          StrCat("output row arity ", row.size(), " != declared ",
                 schema->num_fields()));
    }
    CLY_RETURN_IF_ERROR(writer->Append(row));
  }
  CLY_RETURN_IF_ERROR(writer->Close());
  cluster->InvalidateTable(desc.path);
  return Status::OK();
}

}  // namespace mr
}  // namespace clydesdale
