// Tests for the columnar fast-path layer: typed projections, dictionary
// codes, Compare ranks, the sorted index, and the version/generation
// invalidation protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/metrics.h"
#include "storage/column_cache.h"
#include "storage/table.h"

namespace daisy {
namespace {

Schema MixedSchema() {
  return Schema({{"amount", ValueType::kDouble}, {"city", ValueType::kString}});
}

Table MixedTable() {
  Table t("mixed", MixedSchema());
  EXPECT_TRUE(t.AppendRow({Value(5.0), Value("LA")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(5), Value("SF")}).ok());  // int 5 == 5.0
  EXPECT_TRUE(t.AppendRow({Value(2.5), Value("LA")}).ok());
  EXPECT_TRUE(t.AppendRow({Value::Null(), Value("NY")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(7.0), Value::Null()}).ok());
  return t;
}

TEST(ColumnCacheTest, NumericProjectionMatchesValues) {
  Table t = MixedTable();
  const ColumnCache::Column& col = t.columns().column(0);
  ASSERT_EQ(col.num.size(), 5u);
  EXPECT_EQ(col.num[0], 5.0);
  EXPECT_EQ(col.num[1], 5.0);
  EXPECT_EQ(col.num[2], 2.5);
  // Null maps onto the stable hash coordinate, exactly like the theta-join
  // row path always did.
  EXPECT_EQ(col.num[3], ColumnCache::NumericCoord(Value::Null()));
  EXPECT_TRUE(col.numeric_only);
  EXPECT_EQ(col.nulls, (std::vector<uint8_t>{0, 0, 0, 1, 0}));
}

TEST(ColumnCacheTest, DictionaryCodesConsistentWithEquals) {
  Table t = MixedTable();
  const ColumnCache::Column& amount = t.columns().column(0);
  // int 5 and double 5.0 are Equals-equal -> same code.
  EXPECT_EQ(amount.codes[0], amount.codes[1]);
  EXPECT_NE(amount.codes[0], amount.codes[2]);
  EXPECT_EQ(amount.dict.size(), 4u);  // {5, 2.5, null, 7}

  const ColumnCache::Column& city = t.columns().column(1);
  EXPECT_FALSE(city.numeric_only);
  EXPECT_EQ(city.codes[0], city.codes[2]);  // LA twice
  EXPECT_NE(city.codes[0], city.codes[1]);
  EXPECT_EQ(city.dict.size(), 4u);  // {LA, SF, NY, null}
}

TEST(ColumnCacheTest, RanksFollowValueCompare) {
  Table t = MixedTable();
  const ColumnCache::Column& amount = t.columns().column(0);
  // Compare order: null < 2.5 < 5 < 7.
  EXPECT_EQ(amount.ranks[3], 0u);
  EXPECT_EQ(amount.ranks[2], 1u);
  EXPECT_EQ(amount.ranks[0], 2u);
  EXPECT_EQ(amount.ranks[1], 2u);
  EXPECT_EQ(amount.ranks[4], 3u);

  const ColumnCache::Column& city = t.columns().column(1);
  // null < "LA" < "NY" < "SF" (nulls first, strings lexicographic).
  EXPECT_EQ(city.ranks[4], 0u);
  EXPECT_EQ(city.ranks[0], 1u);
  EXPECT_EQ(city.ranks[3], 2u);
  EXPECT_EQ(city.ranks[1], 3u);
  // sorted_distinct mirrors the rank order.
  ASSERT_EQ(city.sorted_distinct.size(), 4u);
  EXPECT_EQ(city.sorted_distinct[1], Value("LA"));
  EXPECT_EQ(city.sorted_distinct[3], Value("SF"));
}

TEST(ColumnCacheTest, SortedIndexOrdersByProjectionThenRowId) {
  Table t("t", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value(3)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2)}).ok());
  const ColumnCache::Column& col = t.columns().column(0);
  EXPECT_EQ(col.sorted_rows, (std::vector<RowId>{1, 3, 0, 2}));
  EXPECT_EQ(col.sorted_num, (std::vector<double>{1, 2, 3, 3}));
}

TEST(ColumnCacheTest, NanSortsLastInRanksAndSortedIndexAcrossExtend) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {2.0, nan, 1.0, nan, 0.5, 3.0, nan};
  // Built after three rows, then extended by four (new distinct values, so
  // the ranks are relabeled and the tail merges into the sorted index).
  Table extended("t", Schema({{"x", ValueType::kDouble}}));
  Table rebuilt("t", Schema({{"x", ValueType::kDouble}}));
  for (size_t i = 0; i < values.size(); ++i) {
    if (i == 3) EXPECT_TRUE(extended.columns().column(0).has_nan);
    ASSERT_TRUE(extended.AppendRow({Value(values[i])}).ok());
    ASSERT_TRUE(rebuilt.AppendRow({Value(values[i])}).ok());
  }
  const ColumnCache::Column& ext = extended.columns().column(0);
  const ColumnCache::Column& full = rebuilt.columns().column(0);
  // (num, row id) with every NaN key last; each NaN cell has its own code.
  EXPECT_EQ(ext.sorted_rows, (std::vector<RowId>{4, 2, 0, 5, 1, 3, 6}));
  EXPECT_EQ(full.sorted_rows, ext.sorted_rows);
  EXPECT_EQ(ext.ranks, (std::vector<uint32_t>{2, 4, 1, 5, 0, 3, 6}));
  EXPECT_EQ(full.ranks, ext.ranks);
  EXPECT_TRUE(full.has_nan);
}

TEST(ColumnCacheTest, AllNanColumnExtendsLikeItRebuilds) {
  // Every NaN cell takes a fresh code without probing the dictionary
  // index, whether it arrives in a rebuild or in an extension.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr size_t kRows = 2000;
  Table extended("t", Schema({{"x", ValueType::kDouble}}));
  Table rebuilt("t", Schema({{"x", ValueType::kDouble}}));
  for (size_t i = 0; i < kRows; ++i) {
    if (i == kRows / 2) (void)extended.columns().column(0);
    ASSERT_TRUE(extended.AppendRow({Value(nan)}).ok());
    ASSERT_TRUE(rebuilt.AppendRow({Value(nan)}).ok());
  }
  const ColumnCache::Column& ext = extended.columns().column(0);
  const ColumnCache::Column& full = rebuilt.columns().column(0);
  std::vector<uint32_t> own_codes(kRows);
  std::iota(own_codes.begin(), own_codes.end(), 0u);
  EXPECT_EQ(full.codes, own_codes);
  EXPECT_EQ(ext.codes, full.codes);
  EXPECT_EQ(ext.ranks, full.ranks);
  EXPECT_EQ(ext.sorted_rows, full.sorted_rows);
  EXPECT_EQ(ext.dict.size(), kRows);
  EXPECT_TRUE(ext.has_nan);
  EXPECT_FALSE(ext.ranks_exact());
  uint32_t code = 0;
  EXPECT_FALSE(extended.columns().FindCode(0, Value(nan), &code));
}

TEST(ColumnCacheTest, RebuildingAnUnchangedNanColumnKeepsGeneration) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table t("t", Schema({{"x", ValueType::kDouble}, {"y", ValueType::kInt}}));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i % 2 == 0 ? nan : 1.0 * i), Value(i)})
                    .ok());
  }
  ColumnCache& cache = t.columns();
  const uint64_t g0 = cache.generation(0);
  // A mutable_cell access forces a rebuild; the NaNs are the same bits.
  (void)t.mutable_cell(0, 0);
  EXPECT_EQ(cache.generation(0), g0);
  // A real change still advances it.
  t.mutable_cell(1, 0) = Cell(Value(nan));
  EXPECT_GT(cache.generation(0), g0);
}

TEST(ColumnCacheTest, DoublesBesideWideIntsMakeRanksInexact) {
  const int64_t two53 = int64_t{1} << 53;
  Table t("t", Schema({{"x", ValueType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(two53 + 1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(two53 - 1)}).ok());
  EXPECT_TRUE(t.columns().column(0).has_wide_int);
  EXPECT_TRUE(t.columns().column(0).ranks_exact());  // ints only
  ASSERT_TRUE(t.AppendRow({Value(0.5)}).ok());        // extension
  EXPECT_FALSE(t.columns().column(0).ranks_exact());
  Table small("t", Schema({{"x", ValueType::kDouble}}));
  ASSERT_TRUE(small.AppendRow({Value(two53 - 1)}).ok());
  ASSERT_TRUE(small.AppendRow({Value(0.5)}).ok());
  EXPECT_TRUE(small.columns().column(0).ranks_exact());
}

// RankCompare is a strict weak order where Compare is not: Compare widens
// int 2^53 + 1 to the double 2^53, tying it with double 2^53, which ties
// int 2^53.
TEST(ColumnCacheTest, RankCompareOrdersWideIntsAgainstDoublesExactly) {
  const int64_t two53 = int64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Value(two53 + 1).Compare(Value(0x1p53)), 0);
  EXPECT_EQ(ColumnCache::RankCompare(Value(two53 + 1), Value(0x1p53)), 1);
  EXPECT_EQ(ColumnCache::RankCompare(Value(0x1p53), Value(two53 + 1)), -1);
  EXPECT_EQ(ColumnCache::RankCompare(Value(two53), Value(0x1p53)), 0);
  EXPECT_EQ(ColumnCache::RankCompare(Value(int64_t{-3}), Value(-2.5)), -1);
  EXPECT_EQ(ColumnCache::RankCompare(Value(int64_t{2}), Value(2.5)), -1);
  EXPECT_EQ(ColumnCache::RankCompare(Value(std::numeric_limits<int64_t>::max()),
                                     Value(0x1p63)),
            -1);
  EXPECT_EQ(ColumnCache::RankCompare(Value(std::numeric_limits<int64_t>::min()),
                                     Value(-inf)),
            1);
  EXPECT_EQ(ColumnCache::RankCompare(Value(two53), Value(nan)), -1);
  EXPECT_EQ(ColumnCache::RankCompare(Value(nan), Value(nan)), 0);
}

TEST(ColumnCacheTest, MutationBumpsOnlyAffectedColumnVersion) {
  Table t = MixedTable();
  const uint64_t v0 = t.content_version(0);
  const uint64_t v1 = t.content_version(1);
  t.mutable_cell(2, 0) = Cell(Value(9.0));
  EXPECT_GT(t.content_version(0), v0);
  EXPECT_EQ(t.content_version(1), v1);
  // Appending a row moves the append family, not the content versions —
  // the cache extends instead of rebuilding.
  const uint64_t appends = t.append_version();
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value("X")}).ok());
  EXPECT_GT(t.append_version(), appends);
  EXPECT_EQ(t.content_version(1), v1);
}

TEST(ColumnCacheTest, RepairedOriginalIsVisibleAfterInvalidation) {
  Table t = MixedTable();
  ColumnCache& cache = t.columns();
  const uint64_t city_gen = cache.generation(1);
  EXPECT_EQ(cache.column(0).num[2], 2.5);
  t.mutable_cell(2, 0) = Cell(Value(9.0));
  EXPECT_EQ(cache.column(0).num[2], 9.0);
  // The untouched column keeps its generation (no invalidation).
  EXPECT_EQ(cache.generation(1), city_gen);
}

TEST(ColumnCacheTest, GenerationAdvancesOnlyOnContentChange) {
  Table t = MixedTable();
  ColumnCache& cache = t.columns();
  const uint64_t g0 = cache.generation(0);
  const uint64_t v0 = t.content_version(0);
  // Candidate-only repair: neither version nor content moves -> the probs
  // bit flips in place and generation stays, so detectors keep their
  // incremental coverage.
  t.SetCandidates(
      0, 0, MakeCandidateSet({{Value(6.0), 1.0, 0, CandidateKind::kPoint}}));
  EXPECT_EQ(t.content_version(0), v0);
  EXPECT_EQ(cache.column(0).probs[0], 1);
  EXPECT_EQ(cache.generation(0), g0);
  // Original-value edit: content changes -> generation advances.
  t.mutable_cell(0, 0) = Cell(Value(6.0));
  EXPECT_GT(cache.generation(0), g0);
}

TEST(ColumnCacheTest, RowsMaintainedCountsRebuildExtendAndPatch) {
  auto maintained = [] {
    return MetricsRegistry::Global().TakeSnapshot().counters.at(
        "daisy_storage_cache_rows_maintained_total");
  };
  Table t = MixedTable();
  (void)t.columns().column(0);  // registers the counter
  const uint64_t before = maintained();
  (void)t.columns().column(1);  // first build: all 5 rows
  EXPECT_EQ(maintained() - before, 5u);
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value("X")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2.0), Value("Y")}).ok());
  (void)t.columns().column(1);  // extension: the 2 new rows
  EXPECT_EQ(maintained() - before, 7u);
  t.SetCandidates(
      0, 1, MakeCandidateSet({{Value("SF"), 1.0, 0, CandidateKind::kPoint}}));
  EXPECT_EQ(maintained() - before, 8u);  // one in-place patch
  t.SetCandidates(
      6, 0, MakeCandidateSet({{Value(3.0), 1.0, 0, CandidateKind::kPoint}}));
  EXPECT_EQ(maintained() - before, 8u);  // row not built yet: no patch
  (void)t.columns().column(0);           // extension reads it instead
  EXPECT_EQ(maintained() - before, 10u);
  EXPECT_EQ(t.columns().column(0).probs[6], 1);
  EXPECT_EQ(t.columns().column(1).probs[0], 1);
  EXPECT_EQ(maintained() - before, 10u);  // fresh columns: no work
}

TEST(ColumnCacheTest, CopyAndMoveDropDerivedCache) {
  Table t = MixedTable();
  (void)t.columns().column(0);
  Table copy = t;
  EXPECT_EQ(copy.columns().column(0).num[2], 2.5);
  // Mutating the copy must not affect the original's projections.
  copy.mutable_cell(2, 0) = Cell(Value(1.0));
  EXPECT_EQ(copy.columns().column(0).num[2], 1.0);
  EXPECT_EQ(t.columns().column(0).num[2], 2.5);

  Table moved = std::move(copy);
  EXPECT_EQ(moved.columns().column(0).num[2], 1.0);
}

TEST(ColumnCacheTest, AppendAfterBuildIsPickedUp) {
  Table t("t", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  EXPECT_EQ(t.columns().column(0).num.size(), 1u);
  ASSERT_TRUE(t.AppendRow({Value(2)}).ok());
  EXPECT_EQ(t.columns().column(0).num.size(), 2u);
  EXPECT_EQ(t.columns().column(0).sorted_rows.size(), 2u);
}

}  // namespace
}  // namespace daisy
