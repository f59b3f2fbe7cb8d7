#include "reference_digests.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "ssb/reference_executor.h"

namespace perfbench {
namespace {

using namespace clydesdale;  // NOLINT(build/namespaces)

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv1a(const std::string& s, uint64_t h = kFnvOffset) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

uint64_t DigestRows(const std::vector<Row>& rows) {
  uint64_t h = kFnvOffset;
  for (const Row& row : rows) h = Fnv1a(row.ToString() + "\n", h);
  return h;
}

ReferenceDigests::ReferenceDigests(const std::string& dir, double scale_factor,
                                   uint64_t dbgen_seed) {
  std::ostringstream sf;
  sf << scale_factor;
  path_ = StrCat(dir, "/sf", sf.str(), "-dbgen", dbgen_seed, ".txt");
  header_ = StrCat(
      "# Row digests of ssb::ExecuteReference at SF ", sf.str(),
      ", dbgen seed ", dbgen_seed,
      ".\n# Written by `python3 perfbench/run.py --workload <name> "
      "--regenerate 1`.\n# fnv1a(query key)  fnv1a(rows)  rows  shape\n");
  std::ifstream in(path_);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t key = 0;
    Stored stored;
    fields >> std::hex >> key >> stored.entry.digest >> std::dec >>
        stored.entry.rows >> stored.label;
    CLY_CHECK(!fields.fail()) << "bad line in " << path_ << ": " << line;
    golden_[key] = stored;
  }
  file_entries_ = golden_.size();
}

ReferenceDigests::Entry ReferenceDigests::Compute(mr::MrCluster* cluster,
                                                  const core::StarSchema& star,
                                                  const ReferenceQuery& q,
                                                  Tracer* tracer) {
  CallSpan span(tracer, kLayerSsb, "ExecuteReference");
  auto rows = ssb::ExecuteReference(cluster, star, *q.spec);
  CLY_CHECK(rows.ok()) << rows.status().ToString();
  return {DigestRows(*rows), rows->size()};
}

ReferenceDigests::Entry ReferenceDigests::Get(mr::MrCluster* cluster,
                                              const core::StarSchema& star,
                                              const ReferenceQuery& q,
                                              Tracer* tracer) {
  const uint64_t key = Fnv1a(q.key);
  auto it = golden_.find(key);
  if (it == golden_.end()) {
    ++computed_;
    it = golden_.emplace(key, Stored{Compute(cluster, star, q, tracer), q.label})
             .first;
  }
  return it->second.entry;
}

void ReferenceDigests::Regenerate(mr::MrCluster* cluster,
                                  const core::StarSchema& star,
                                  const std::vector<ReferenceQuery>& queries) {
  Tracer off(false);
  std::set<uint64_t> done;
  for (const ReferenceQuery& q : queries) {
    const uint64_t key = Fnv1a(q.key);
    if (!done.insert(key).second) continue;
    golden_[key] = Stored{Compute(cluster, star, q, &off), q.label};
  }
  std::ofstream out(path_);
  CLY_CHECK(out.good()) << "cannot write " << path_;
  out << header_;
  char line[128];
  for (const auto& [key, stored] : golden_) {
    std::snprintf(line, sizeof(line), "%016" PRIx64 " %016" PRIx64 " %" PRIu64
                  " %s\n", key, stored.entry.digest, stored.entry.rows,
                  stored.label.c_str());
    out << line;
  }
  CLY_CHECK(out.good()) << "cannot write " << path_;
}

}  // namespace perfbench
