// Unit tests for the storage engine: Schema, probabilistic Cell, Table with
// provenance, and the Database catalog.

#include <gtest/gtest.h>

#include "cell_test_util.h"
#include "common/csv.h"
#include "storage/database.h"
#include "storage/table.h"

namespace daisy {
namespace {

Schema TwoColSchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, LookupByName) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.ColumnIndex("city").ValueOrDie(), 1u);
  EXPECT_TRUE(s.HasColumn("zip"));
  EXPECT_FALSE(s.HasColumn("nope"));
  EXPECT_FALSE(s.ColumnIndex("nope").ok());
}

TEST(SchemaTest, Equality) {
  EXPECT_TRUE(TwoColSchema().Equals(TwoColSchema()));
  Schema other({{"zip", ValueType::kInt}});
  EXPECT_FALSE(TwoColSchema().Equals(other));
}

TEST(SchemaTest, ConcatPrefixesClashes) {
  Schema left({{"id", ValueType::kInt}, {"name", ValueType::kString}});
  Schema right({{"id", ValueType::kInt}, {"score", ValueType::kDouble}});
  Schema joined = Schema::Concat(left, right, "l.", "r.");
  EXPECT_EQ(joined.num_columns(), 4u);
  EXPECT_TRUE(joined.HasColumn("l.id"));
  EXPECT_TRUE(joined.HasColumn("r.id"));
  EXPECT_TRUE(joined.HasColumn("name"));
  EXPECT_TRUE(joined.HasColumn("score"));
}

// ------------------------------------------------------------------ Cell --

TEST(CellTest, CleanCellBasics) {
  Cell c(Value(9001));
  EXPECT_FALSE(c.is_probabilistic());
  EXPECT_EQ(c.width(), 1u);
  EXPECT_EQ(c.MostProbable(), Value(9001));
  EXPECT_EQ(c.PossibleValues(), std::vector<Value>{Value(9001)});
  EXPECT_TRUE(c.MayEqual(Value(9001)));
  EXPECT_FALSE(c.MayEqual(Value(9002)));
}

TEST(CellTest, NormalizeAndMostProbable) {
  Cell c(Value("SF"));
  testutil::AddCandidate(&c, {Value("LA"), 2.0, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&c, {Value("SF"), 1.0, 0, CandidateKind::kPoint});
  testutil::NormalizeCell(&c);
  ASSERT_TRUE(c.is_probabilistic());
  EXPECT_EQ(c.width(), 2u);
  EXPECT_NEAR(c.candidates()[0].prob, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.candidates()[1].prob, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(c.MostProbable(), Value("LA"));
  // Original survives as provenance.
  EXPECT_EQ(c.original(), Value("SF"));
}

TEST(CellTest, MayEqualAcrossCandidates) {
  Cell c(Value(9001));
  testutil::AddCandidate(&c, {Value(9001), 0.5, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&c, {Value(10001), 0.5, 1, CandidateKind::kPoint});
  EXPECT_TRUE(c.MayEqual(Value(9001)));
  EXPECT_TRUE(c.MayEqual(Value(10001)));
  EXPECT_FALSE(c.MayEqual(Value(12345)));
}

TEST(CellTest, RangeCandidatesMayEqual) {
  Cell c(Value(3000.0));
  testutil::AddCandidate(&c, {Value(3000.0), 0.5, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&c, {Value(2000.0), 0.5, 0, CandidateKind::kLessEq});
  EXPECT_TRUE(c.MayEqual(Value(1500.0)));   // covered by <= 2000
  EXPECT_TRUE(c.MayEqual(Value(2000.0)));   // boundary of <=
  EXPECT_TRUE(c.MayEqual(Value(3000.0)));   // point candidate
  EXPECT_FALSE(c.MayEqual(Value(2500.0)));  // in the gap
}

TEST(CellTest, StrictRangeBoundary) {
  Cell c(Value(10.0));
  testutil::AddCandidate(&c, {Value(5.0), 1.0, 0, CandidateKind::kLessThan});
  EXPECT_TRUE(c.MayEqual(Value(4.9)));
  EXPECT_FALSE(c.MayEqual(Value(5.0)));  // strict
  Cell g(Value(10.0));
  testutil::AddCandidate(&g, {Value(5.0), 1.0, 0, CandidateKind::kGreaterEq});
  EXPECT_TRUE(g.MayEqual(Value(5.0)));
  EXPECT_FALSE(g.MayEqual(Value(4.0)));
}

TEST(CellTest, MayBeInRange) {
  Cell c(Value(50));
  EXPECT_TRUE(c.MayBeInRange(Value(40), Value(60)));
  EXPECT_FALSE(c.MayBeInRange(Value(60), Value(70)));
  EXPECT_TRUE(c.MayBeInRange(Value::Null(), Value(50)));  // open low end

  Cell p(Value(50));
  testutil::AddCandidate(&p, {Value(100), 0.5, 0, CandidateKind::kGreaterThan});
  EXPECT_TRUE(p.MayBeInRange(Value(150), Value(200)));
  EXPECT_FALSE(p.MayBeInRange(Value(10), Value(90)));
  EXPECT_TRUE(p.MayBeInRange(Value(10), Value::Null()));  // open high end
}

TEST(CellTest, PossibleValuesSkipsRangesAndDedupes) {
  Cell c(Value(1));
  testutil::AddCandidate(&c, {Value(2), 0.4, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&c, {Value(2), 0.1, 1, CandidateKind::kPoint});
  testutil::AddCandidate(&c, {Value(9), 0.5, 0, CandidateKind::kLessThan});
  EXPECT_EQ(c.PossibleValues(), std::vector<Value>{Value(2)});
}

TEST(CellTest, NullSetRestoresClean) {
  Cell c(Value("orig"));
  testutil::AddCandidate(&c, {Value("new"), 1.0, 0, CandidateKind::kPoint});
  c.set_candidates(nullptr);
  EXPECT_FALSE(c.is_probabilistic());
  EXPECT_EQ(c.MostProbable(), Value("orig"));
}

TEST(CandidateSetTest, MostProbableIsTheFirstStrictlyHighestPoint) {
  // Ties keep the first; ranges never win; the cached index answers.
  const CandidateSet set({{Value(1), 0.3, 0, CandidateKind::kPoint},
                          {Value(2), 0.5, 0, CandidateKind::kLessThan},
                          {Value(3), 0.35, 0, CandidateKind::kPoint},
                          {Value(4), 0.35, 1, CandidateKind::kPoint}});
  ASSERT_NE(set.most_probable(), nullptr);
  EXPECT_EQ(set.most_probable()->value, Value(3));
  const CandidateSet ranges({{Value(2), 1.0, 0, CandidateKind::kGreaterEq}});
  EXPECT_EQ(ranges.most_probable(), nullptr);
  Cell c(Value(7));
  c.set_candidates(std::make_shared<const CandidateSet>(ranges));
  EXPECT_EQ(c.MostProbable(), Value(7));  // range-only: the original
}

TEST(CandidateSetTest, EmptySetMakesACleanCell) {
  EXPECT_EQ(MakeCandidateSet({}), nullptr);
  Cell c(Value(7));
  c.set_candidates(std::make_shared<const CandidateSet>(
      std::vector<Candidate>{}));
  EXPECT_FALSE(c.is_probabilistic());
  EXPECT_EQ(c.width(), 1u);
}

TEST(CandidateSetTest, CellsCompareSetsByContent) {
  const std::vector<Candidate> cands = {
      {Value(1), 0.5, 0, CandidateKind::kPoint},
      {Value(2), 0.5, 0, CandidateKind::kPoint}};
  Cell a(Value(1));
  Cell b(Value(1));
  a.set_candidates(MakeCandidateSet(cands));
  b.set_candidates(MakeCandidateSet(cands));
  EXPECT_NE(a.candidate_set(), b.candidate_set());
  EXPECT_EQ(a, b);
  const Cell copy = a;  // a copy shares the set
  EXPECT_EQ(copy.candidate_set(), a.candidate_set());
  b.set_candidates(MakeCandidateSet({cands[0]}));
  EXPECT_FALSE(a == b);
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, AppendAndAccess) {
  Table t("cities", TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(10001), Value("New York")}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.cell(0, 1).original(), Value("Los Angeles"));
  EXPECT_EQ(t.AllRowIds(), (std::vector<RowId>{0, 1}));
}

TEST(TableTest, ArityAndTypeChecks) {
  Table t("cities", TwoColSchema());
  EXPECT_EQ(t.AppendRow({Value(1)}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.AppendRow({Value("str"), Value("city")}).code(),
            StatusCode::kTypeMismatch);
  // Nulls are accepted in any column.
  EXPECT_TRUE(t.AppendRow({Value::Null(), Value::Null()}).ok());
}

TEST(TableTest, ProbabilisticCounters) {
  Table t("cities", TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("b")}).ok());
  EXPECT_EQ(t.CountProbabilisticCells(), 0u);
  EXPECT_EQ(t.TotalCandidateWidth(), 4u);
  testutil::AddCandidate(&t.mutable_cell(0, 1),
                         {Value("c"), 0.5, 0, CandidateKind::kPoint});
  testutil::AddCandidate(&t.mutable_cell(0, 1),
                         {Value("a"), 0.5, 0, CandidateKind::kPoint});
  EXPECT_EQ(t.CountProbabilisticCells(), 1u);
  EXPECT_EQ(t.TotalCandidateWidth(), 5u);
  t.SetCandidates(0, 1, nullptr);  // no set reverts the cell
  EXPECT_EQ(t.CountProbabilisticCells(), 0u);
  EXPECT_EQ(t.TotalCandidateWidth(), 4u);
}

TEST(TableTest, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/daisy_table.csv";
  Table t("cities", TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(10001), Value("New York, NY")}).ok());
  ASSERT_TRUE(t.ToCsv(path).ok());
  Table back = Table::FromCsv(path, "cities", TwoColSchema(), true).ValueOrDie();
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.cell(0, 0).original(), Value(9001));
  EXPECT_EQ(back.cell(1, 1).original(), Value("New York, NY"));
}

TEST(TableTest, FromCsvRejectsBadArity) {
  const std::string path = ::testing::TempDir() + "/daisy_bad.csv";
  ASSERT_TRUE(WriteCsvFile(path, {{"zip", "city"}, {"1", "a", "extra"}}).ok());
  EXPECT_FALSE(Table::FromCsv(path, "t", TwoColSchema(), true).ok());
}

// -------------------------------------------------------------- Database --

TEST(DatabaseTest, AddGetAndDuplicate) {
  Database db;
  ASSERT_TRUE(db.AddTable(Table("a", TwoColSchema())).ok());
  EXPECT_EQ(db.AddTable(Table("a", TwoColSchema())).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.HasTable("a"));
  EXPECT_FALSE(db.HasTable("b"));
  EXPECT_TRUE(db.GetTable("a").ok());
  EXPECT_FALSE(db.GetTable("b").ok());
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"a"});
}

TEST(DatabaseTest, StablePointersAcrossGrowth) {
  Database db;
  ASSERT_TRUE(db.AddTable(Table("a", TwoColSchema())).ok());
  Table* a = db.GetTable("a").ValueOrDie();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.AddTable(Table("t" + std::to_string(i), TwoColSchema())).ok());
  }
  EXPECT_EQ(db.GetTable("a").ValueOrDie(), a);
}

}  // namespace
}  // namespace daisy
