// ANALYZE / statistics-catalog tests: HLL accuracy (the 2%-at-1M-distinct
// acceptance band), equi-depth histogram edge cases (all-equal, all-distinct,
// empty), deterministic reservoir sampling, exact AnalyzeTable row counts
// and min/max over CIF, the text persistence round trip, and the
// catalog's load-time invalidation plus process-restart survival.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/sketch.h"
#include "common/strings.h"
#include "hdfs/dfs.h"
#include "storage/stats_catalog.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace {

TEST(HllSketchTest, EmptyEstimatesZero) {
  HllSketch sketch;
  EXPECT_DOUBLE_EQ(sketch.Estimate(), 0.0);
}

TEST(HllSketchTest, SmallCardinalityIsNearExact) {
  HllSketch sketch;
  for (int64_t v = 0; v < 100; ++v) sketch.AddInt64(v);
  // Linear counting regime: tiny cardinalities come back almost exact.
  EXPECT_NEAR(sketch.Estimate(), 100.0, 2.0);
  // Duplicates don't move the estimate.
  for (int64_t v = 0; v < 100; ++v) sketch.AddInt64(v);
  EXPECT_NEAR(sketch.Estimate(), 100.0, 2.0);
}

TEST(HllSketchTest, OneMillionDistinctWithinTwoPercent) {
  HllSketch sketch;
  constexpr int64_t kDistinct = 1'000'000;
  for (int64_t v = 0; v < kDistinct; ++v) sketch.AddInt64(v);
  const double estimate = sketch.Estimate();
  const double relative_error =
      std::abs(estimate - static_cast<double>(kDistinct)) / kDistinct;
  EXPECT_LT(relative_error, 0.02)
      << "estimate " << estimate << " off by " << relative_error * 100 << "%";
}

TEST(HllSketchTest, MergeOfDisjointStreamsEstimatesUnion) {
  HllSketch a, b;
  for (int64_t v = 0; v < 50'000; ++v) a.AddInt64(v);
  for (int64_t v = 50'000; v < 100'000; ++v) b.AddInt64(v);
  a.Merge(b);
  const double estimate = a.Estimate();
  EXPECT_LT(std::abs(estimate - 100'000.0) / 100'000.0, 0.02);
}

TEST(HllSketchTest, HexSerializationRoundTrips) {
  HllSketch sketch;
  for (int64_t v = 0; v < 12'345; ++v) sketch.AddInt64(v);
  const std::string hex = sketch.SerializeHex();
  EXPECT_EQ(hex.size(), 2 * HllSketch::kNumRegisters);
  auto back = HllSketch::DeserializeHex(hex);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->registers(), sketch.registers());
  EXPECT_DOUBLE_EQ(back->Estimate(), sketch.Estimate());

  EXPECT_FALSE(HllSketch::DeserializeHex("abc").ok()) << "wrong length";
  std::string corrupt = hex;
  corrupt[3] = 'x';
  EXPECT_FALSE(HllSketch::DeserializeHex(corrupt).ok()) << "non-hex digit";
}

TEST(EquiDepthHistogramTest, EmptyInputYieldsEmptyHistogram) {
  const EquiDepthHistogram h = BuildEquiDepthHistogram({}, 8);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total_rows(), 0u);
  EXPECT_DOUBLE_EQ(h.SelectivityLessEq(5.0), 0.0);
}

TEST(EquiDepthHistogramTest, AllEqualDegeneratesToOneBucket) {
  std::vector<double> values(1000, 42.0);
  const EquiDepthHistogram h = BuildEquiDepthHistogram(values, 8);
  ASSERT_EQ(h.counts.size(), 1u)
      << "equal values never straddle buckets; all-equal is one bucket";
  EXPECT_EQ(h.counts[0], 1000u);
  EXPECT_DOUBLE_EQ(h.bounds.front(), 42.0);
  EXPECT_DOUBLE_EQ(h.bounds.back(), 42.0);
  EXPECT_DOUBLE_EQ(h.SelectivityLessEq(41.0), 0.0);
  EXPECT_DOUBLE_EQ(h.SelectivityLessEq(42.0), 1.0);
}

TEST(EquiDepthHistogramTest, AllDistinctBucketsAreBalanced) {
  std::vector<double> values;
  for (int i = 0; i < 1024; ++i) values.push_back(static_cast<double>(i));
  const EquiDepthHistogram h = BuildEquiDepthHistogram(values, 8);
  ASSERT_EQ(h.counts.size(), 8u);
  ASSERT_EQ(h.bounds.size(), 9u);
  uint64_t total = 0;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    EXPECT_EQ(h.counts[i], 128u) << "equi-depth: equal bucket heights";
    EXPECT_LT(h.bounds[i], h.bounds[i + 1]) << "bounds strictly increase";
    total += h.counts[i];
  }
  EXPECT_EQ(total, 1024u);
  EXPECT_DOUBLE_EQ(h.bounds.front(), 0.0);
  EXPECT_DOUBLE_EQ(h.bounds.back(), 1023.0);
  // Selectivity is monotone and anchored at the extremes.
  EXPECT_DOUBLE_EQ(h.SelectivityLessEq(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.SelectivityLessEq(2000.0), 1.0);
  EXPECT_NEAR(h.SelectivityLessEq(511.0), 0.5, 0.05);
}

TEST(EquiDepthHistogramTest, HeavyHitterGetsOneOversizedBucket) {
  // 900 copies of 5 among 100 distinct others: the heavy value must land in
  // exactly one bucket (no boundary straddle -> no lying bucket counts).
  std::vector<double> values(900, 5.0);
  for (int i = 0; i < 100; ++i) values.push_back(1000.0 + i);
  const EquiDepthHistogram h = BuildEquiDepthHistogram(values, 8);
  uint64_t heavy_buckets = 0;
  for (uint64_t c : h.counts) heavy_buckets += c >= 900;
  EXPECT_EQ(heavy_buckets, 1u);
  EXPECT_EQ(h.total_rows(), 1000u);
}

TEST(ReservoirSampleTest, DeterministicAndCapacityBounded) {
  ReservoirSample a(64), b(64);
  for (int i = 0; i < 10'000; ++i) {
    a.Add(static_cast<double>(i));
    b.Add(static_cast<double>(i));
  }
  EXPECT_EQ(a.seen(), 10'000u);
  EXPECT_EQ(a.values().size(), 64u);
  EXPECT_EQ(a.values(), b.values()) << "fixed seed: ANALYZE is reproducible";
}

// ---------------------------------------------------------------------------
// AnalyzeTable + StatsCatalog over sim-HDFS
// ---------------------------------------------------------------------------

class StatsCatalogTest : public ::testing::Test {
 protected:
  StatsCatalogTest() : dfs_(MakeOptions()) {}

  static hdfs::DfsOptions MakeOptions() {
    hdfs::DfsOptions options;
    options.num_nodes = 2;
    options.block_size = 64 * 1024;
    options.replication = 1;
    return options;
  }

  storage::TableDesc WriteFact(const std::string& path, int rows) {
    storage::TableDesc desc;
    desc.path = path;
    desc.format = storage::kFormatCif;
    desc.schema = Schema::Make({{"id", TypeKind::kInt32, 4},
                                {"qty", TypeKind::kInt32, 4},
                                {"price", TypeKind::kDouble, 8},
                                {"mode", TypeKind::kString, 6}});
    desc.rows_per_split = 256;
    auto writer = storage::OpenTableWriter(&dfs_, desc);
    CLY_CHECK(writer.ok());
    const char* modes[] = {"AIR", "RAIL", "SHIP", "TRUCK"};
    for (int i = 0; i < rows; ++i) {
      CLY_CHECK_OK((*writer)->Append(Row({Value(i), Value(i % 10),
                                          Value(i * 0.5),
                                          Value(modes[i % 4])})));
    }
    CLY_CHECK_OK((*writer)->Close());
    auto loaded = storage::LoadTableDesc(dfs_, path);
    CLY_CHECK(loaded.ok());
    return *loaded;
  }

  hdfs::MiniDfs dfs_;
};

TEST_F(StatsCatalogTest, AnalyzeTableComputesExactShapeStats) {
  const storage::TableDesc desc = WriteFact("/fact", 2000);
  auto stats = storage::AnalyzeTable(dfs_, desc);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->table_path, "/fact");
  EXPECT_EQ(stats->num_rows, 2000u) << "exact scan count, not metadata";
  ASSERT_EQ(stats->columns.size(), 4u);

  const storage::ColumnStats* id = stats->Column("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->row_count, 2000u);
  EXPECT_EQ(id->null_count, 0u);
  EXPECT_DOUBLE_EQ(id->null_fraction(), 0.0);
  EXPECT_EQ(id->min.i32(), 0);
  EXPECT_EQ(id->max.i32(), 1999);
  EXPECT_NEAR(id->ndv, 2000.0, 2000.0 * 0.02);
  EXPECT_FALSE(id->histogram.empty()) << "numeric column gets a histogram";

  const storage::ColumnStats* qty = stats->Column("qty");
  ASSERT_NE(qty, nullptr);
  EXPECT_NEAR(qty->ndv, 10.0, 1.0);

  const storage::ColumnStats* mode = stats->Column("mode");
  ASSERT_NE(mode, nullptr);
  EXPECT_NEAR(mode->ndv, 4.0, 1.0);
  EXPECT_TRUE(mode->histogram.empty()) << "no histogram for strings";
  EXPECT_EQ(mode->min.str(), "AIR");
  EXPECT_EQ(mode->max.str(), "TRUCK");

  EXPECT_EQ(stats->Column("nope"), nullptr);
}

TEST_F(StatsCatalogTest, SerializationRoundTripsEveryField) {
  const storage::TableDesc desc = WriteFact("/rt", 500);
  auto stats = storage::AnalyzeTable(dfs_, desc);
  ASSERT_TRUE(stats.ok());
  const std::string text = storage::SerializeTableStats(*stats);
  auto back = storage::ParseTableStats(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // A parse -> serialize round trip is byte-identical: doubles are %.17g,
  // sketches hex — nothing is lossy.
  EXPECT_EQ(storage::SerializeTableStats(*back), text);
  EXPECT_EQ(back->num_rows, stats->num_rows);
  ASSERT_EQ(back->columns.size(), stats->columns.size());
  for (size_t i = 0; i < stats->columns.size(); ++i) {
    EXPECT_EQ(back->columns[i].name, stats->columns[i].name);
    EXPECT_EQ(back->columns[i].ndv, stats->columns[i].ndv) << "exact double";
    EXPECT_EQ(back->columns[i].sketch.registers(),
              stats->columns[i].sketch.registers());
    EXPECT_EQ(back->columns[i].histogram.bounds,
              stats->columns[i].histogram.bounds);
    EXPECT_EQ(back->columns[i].histogram.counts,
              stats->columns[i].histogram.counts);
  }
  EXPECT_FALSE(storage::ParseTableStats("garbage").ok());
}

TEST_F(StatsCatalogTest, CatalogPersistsAcrossRestart) {
  const storage::TableDesc desc = WriteFact("/sales", 1000);
  {
    storage::StatsCatalog catalog(&dfs_);
    EXPECT_FALSE(catalog.Has(desc));
    EXPECT_TRUE(catalog.Load(desc).status().IsNotFound());
    auto analyzed = catalog.Analyze(desc);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_TRUE(catalog.Has(desc));
  }
  // "Restart": a fresh catalog over the same DFS finds the entry — the
  // statistics live in sim-HDFS, not in catalog memory.
  storage::StatsCatalog reopened(&dfs_);
  auto loaded = reopened.Load(desc);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows, 1000u);
  const storage::ColumnStats* id = loaded->Column("id");
  ASSERT_NE(id, nullptr);
  EXPECT_NEAR(id->ndv, 1000.0, 1000.0 * 0.02);

  // Entries key on the table path: another table reads as never-analyzed.
  storage::TableDesc other = desc;
  other.path = "/other";
  EXPECT_FALSE(reopened.Has(other));
  EXPECT_NE(reopened.EntryPath(desc), reopened.EntryPath(other));
}

TEST_F(StatsCatalogTest, LoadInvalidatesOnRowCountDrift) {
  const storage::TableDesc desc = WriteFact("/drifting", 800);
  storage::StatsCatalog catalog(&dfs_);
  ASSERT_TRUE(catalog.Analyze(desc).ok());
  ASSERT_TRUE(catalog.Load(desc).ok());

  // A roll-in changed the row count: the stale entry must degrade to
  // NotFound (re-ANALYZE), never to wrong estimates.
  storage::TableDesc grown = desc;
  grown.num_rows = 1600;
  EXPECT_TRUE(catalog.Load(grown).status().IsNotFound());
  EXPECT_FALSE(catalog.Has(grown));

  // Explicit invalidation drops the entry for the original shape too.
  CLY_CHECK_OK(catalog.Invalidate(desc));
  EXPECT_FALSE(catalog.Has(desc));
  EXPECT_TRUE(catalog.Load(desc).status().IsNotFound());
  CLY_CHECK_OK(catalog.Invalidate(desc));  // idempotent
}

TEST_F(StatsCatalogTest, AnalyzeWorksOnEveryCifVersion) {
  // v3 is the only CIF version that loads: ANALYZE and the catalog work on
  // it, and a table whose _meta names v1 or v2 is refused before any scan.
  for (int version : {1, 2, 3}) {
    SCOPED_TRACE(StrCat("cif v", version));
    const std::string path = StrCat("/v", version);
    const storage::TableDesc desc = WriteFact(path, 600);
    if (version != 3) {
      auto meta = dfs_.ReadFileToString(path + "/_meta");
      ASSERT_TRUE(meta.ok());
      const size_t at = meta->find("cif_version=3\n");
      ASSERT_NE(at, std::string::npos) << *meta;
      (*meta)[at + std::string("cif_version=").size()] =
          static_cast<char>('0' + version);
      CLY_CHECK_OK(dfs_.Delete(path + "/_meta"));
      CLY_CHECK_OK(dfs_.WriteFile(path + "/_meta", *meta));
      auto loaded = storage::LoadTableDesc(dfs_, path);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
          << loaded.status().ToString();
      continue;
    }
    storage::StatsCatalog catalog(&dfs_);
    auto stats = catalog.Analyze(desc);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->num_rows, 600u);
    auto loaded = catalog.Load(desc);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->num_rows, 600u);
  }
}

}  // namespace
}  // namespace clydesdale
