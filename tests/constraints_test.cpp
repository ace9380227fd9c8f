// Unit tests for predicates, denial constraints, the constraint parser, and
// the constraint set.

#include <gtest/gtest.h>

#include "constraints/constraint_set.h"
#include "constraints/denial_constraint.h"
#include "constraints/predicate.h"
#include "detect_oracle.h"

namespace daisy {
namespace {

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

Schema SalarySchema() {
  return Schema({{"salary", ValueType::kDouble},
                 {"tax", ValueType::kDouble},
                 {"age", ValueType::kInt}});
}

Table CitiesTable() {
  // The paper's Table 2a.
  Table t("cities", CitySchema());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("New York")}).ok());
  return t;
}

// ------------------------------------------------------------- CompareOp --

TEST(CompareOpTest, ParseAllForms) {
  EXPECT_EQ(ParseCompareOp("=").ValueOrDie(), CompareOp::kEq);
  EXPECT_EQ(ParseCompareOp("==").ValueOrDie(), CompareOp::kEq);
  EXPECT_EQ(ParseCompareOp("!=").ValueOrDie(), CompareOp::kNeq);
  EXPECT_EQ(ParseCompareOp("<>").ValueOrDie(), CompareOp::kNeq);
  EXPECT_EQ(ParseCompareOp("<").ValueOrDie(), CompareOp::kLt);
  EXPECT_EQ(ParseCompareOp("<=").ValueOrDie(), CompareOp::kLeq);
  EXPECT_EQ(ParseCompareOp(">").ValueOrDie(), CompareOp::kGt);
  EXPECT_EQ(ParseCompareOp(">=").ValueOrDie(), CompareOp::kGeq);
  EXPECT_FALSE(ParseCompareOp("~").ok());
}

TEST(CompareOpTest, NegateIsInvolution) {
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNeq, CompareOp::kLt,
                       CompareOp::kLeq, CompareOp::kGt, CompareOp::kGeq}) {
    EXPECT_EQ(NegateOp(NegateOp(op)), op);
    EXPECT_EQ(FlipOp(FlipOp(op)), op);
  }
}

TEST(CompareOpTest, EvalSemantics) {
  EXPECT_TRUE(EvalCompare(Value(1), CompareOp::kLt, Value(2)));
  EXPECT_FALSE(EvalCompare(Value(2), CompareOp::kLt, Value(2)));
  EXPECT_TRUE(EvalCompare(Value(2), CompareOp::kLeq, Value(2)));
  EXPECT_TRUE(EvalCompare(Value("a"), CompareOp::kNeq, Value("b")));
  // Negation consistency on non-null values.
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNeq, CompareOp::kLt,
                       CompareOp::kLeq, CompareOp::kGt, CompareOp::kGeq}) {
    EXPECT_NE(EvalCompare(Value(3), op, Value(5)),
              EvalCompare(Value(3), NegateOp(op), Value(5)));
  }
}

TEST(CompareOpTest, NullSemantics) {
  EXPECT_TRUE(EvalCompare(Value::Null(), CompareOp::kEq, Value::Null()));
  EXPECT_FALSE(EvalCompare(Value::Null(), CompareOp::kEq, Value(1)));
  EXPECT_TRUE(EvalCompare(Value(1), CompareOp::kNeq, Value::Null()));
  EXPECT_FALSE(EvalCompare(Value::Null(), CompareOp::kLt, Value(1)));
}

// ---------------------------------------------------------------- Parser --

TEST(ConstraintParserTest, FdShorthand) {
  auto dc = ParseConstraint("phi: FD zip -> city", "cities", CitySchema())
                .ValueOrDie();
  EXPECT_EQ(dc.name(), "phi");
  EXPECT_EQ(dc.table(), "cities");
  EXPECT_EQ(dc.num_tuples(), 2);
  ASSERT_TRUE(dc.IsFd());
  EXPECT_EQ(dc.fd().lhs, std::vector<size_t>{0});
  EXPECT_EQ(dc.fd().rhs, 1u);
  EXPECT_TRUE(dc.IsEqualityOnly());
}

TEST(ConstraintParserTest, MultiAttributeLhsFd) {
  Schema s({{"a", ValueType::kInt},
            {"b", ValueType::kInt},
            {"c", ValueType::kString}});
  auto dc = ParseConstraint("FD a, b -> c", "t", s).ValueOrDie();
  ASSERT_TRUE(dc.IsFd());
  EXPECT_EQ(dc.fd().lhs, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(dc.fd().rhs, 2u);
}

TEST(ConstraintParserTest, FdRhsMustBeSingle) {
  Schema s({{"a", ValueType::kInt},
            {"b", ValueType::kInt},
            {"c", ValueType::kString}});
  EXPECT_FALSE(ParseConstraint("FD a -> b, c", "t", s).ok());
}

TEST(ConstraintParserTest, GeneralDcAtoms) {
  auto dc = ParseConstraint(
                "rule: !(t1.salary < t2.salary & t1.tax > t2.tax)", "emp",
                SalarySchema())
                .ValueOrDie();
  EXPECT_EQ(dc.num_tuples(), 2);
  EXPECT_FALSE(dc.IsFd());
  EXPECT_FALSE(dc.IsEqualityOnly());
  ASSERT_EQ(dc.atoms().size(), 2u);
  EXPECT_EQ(dc.atoms()[0].op, CompareOp::kLt);
  EXPECT_EQ(dc.atoms()[1].op, CompareOp::kGt);
  EXPECT_EQ(dc.involved_columns(), (std::vector<size_t>{0, 1}));
}

TEST(ConstraintParserTest, ConstantAtomAndNormalization) {
  auto dc = ParseConstraint("!(t1.salary > 5000 & 0.3 < t1.tax)", "emp",
                            SalarySchema())
                .ValueOrDie();
  EXPECT_EQ(dc.num_tuples(), 1);
  ASSERT_EQ(dc.atoms().size(), 2u);
  EXPECT_TRUE(dc.atoms()[0].right_is_constant);
  // "0.3 < t1.tax" normalizes to "t1.tax > 0.3".
  EXPECT_TRUE(dc.atoms()[1].right_is_constant);
  EXPECT_EQ(dc.atoms()[1].op, CompareOp::kGt);
  EXPECT_EQ(dc.atoms()[1].left_column_name, "tax");
}

TEST(ConstraintParserTest, QuotedStringLiteral) {
  auto dc = ParseConstraint("!(t1.city == 'Los Angeles')", "c", CitySchema())
                .ValueOrDie();
  ASSERT_EQ(dc.atoms().size(), 1u);
  EXPECT_EQ(dc.atoms()[0].constant, Value("Los Angeles"));
}

TEST(ConstraintParserTest, Errors) {
  EXPECT_FALSE(ParseConstraint("", "t", CitySchema()).ok());
  EXPECT_FALSE(ParseConstraint("FD nope -> city", "t", CitySchema()).ok());
  EXPECT_FALSE(ParseConstraint("!(t1.zip ~ t2.zip)", "t", CitySchema()).ok());
  EXPECT_FALSE(ParseConstraint("!(3 < 5)", "t", CitySchema()).ok());
  EXPECT_FALSE(
      ParseConstraint("!(t1.unknown == t2.unknown)", "t", CitySchema()).ok());
}

TEST(ConstraintParserTest, QuotedConstantWithColonKeepsBody) {
  // A ':' inside a quoted constant is not a name separator. Without a name
  // prefix the pre-fix parser mis-split at the quoted colon.
  auto unnamed =
      ParseConstraint("!(t1.city=='a:b')", "c", CitySchema()).ValueOrDie();
  EXPECT_EQ(unnamed.name(), "dc_c");
  ASSERT_EQ(unnamed.atoms().size(), 1u);
  EXPECT_EQ(unnamed.atoms()[0].constant, Value("a:b"));

  auto named = ParseConstraint("phi: !(t1.city == 'a:b')", "c", CitySchema())
                   .ValueOrDie();
  EXPECT_EQ(named.name(), "phi");
  ASSERT_EQ(named.atoms().size(), 1u);
  EXPECT_EQ(named.atoms()[0].constant, Value("a:b"));
}

TEST(ConstraintParserTest, QuotedConstantWithAmpersandAndOperator) {
  // '&' inside a quoted constant is not an atom separator and operator
  // characters inside quotes are not the comparison operator.
  auto dc = ParseConstraint("psi: !(t1.city == 'x&y' & t1.zip > 1)", "c",
                            CitySchema())
                .ValueOrDie();
  EXPECT_EQ(dc.name(), "psi");
  ASSERT_EQ(dc.atoms().size(), 2u);
  EXPECT_EQ(dc.atoms()[0].constant, Value("x&y"));
  EXPECT_EQ(dc.atoms()[1].op, CompareOp::kGt);

  auto flipped =
      ParseConstraint("w: !('<x' == t1.city)", "c", CitySchema()).ValueOrDie();
  ASSERT_EQ(flipped.atoms().size(), 1u);
  EXPECT_EQ(flipped.atoms()[0].op, CompareOp::kEq);
  EXPECT_EQ(flipped.atoms()[0].constant, Value("<x"));
}

TEST(ConstraintParserTest, UnterminatedQuoteIsParseError) {
  auto result = ParseConstraint("!(t1.city == 'a:b)", "c", CitySchema());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(ConstraintParserTest, NonIdentifierColonPrefixIsNotAName) {
  // "t1.zip" before an (unquoted) colon is not an identifier, so the text
  // is rejected as a malformed body rather than silently renamed.
  EXPECT_FALSE(ParseConstraint("t1.zip: == 1", "t", CitySchema()).ok());
}

// ----------------------------------------------------------- Evaluation --

TEST(DenialConstraintTest, FdViolationPairs) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  // (0,1) share zip 9001 but differ on city -> violation.
  EXPECT_TRUE(testutil::ViolatedBy(dc, t, 0, 1));
  EXPECT_TRUE(testutil::ViolatedBy(dc, t, 1, 0));
  // (0,2) agree entirely -> no violation.
  EXPECT_FALSE(testutil::ViolatedBy(dc, t, 0, 2));
  // Different zips -> no violation.
  EXPECT_FALSE(testutil::ViolatedBy(dc, t, 0, 3));
  // Self-pairing never violates a two-tuple constraint.
  EXPECT_FALSE(testutil::ViolatedBy(dc, t, 0, 0));
}

TEST(DenialConstraintTest, GeneralDcOrientation) {
  Table t("emp", SalarySchema());
  ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.1), Value(31)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.2), Value(32)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.3), Value(43)}).ok());
  auto dc = ParseConstraint("!(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", SalarySchema())
                .ValueOrDie();
  // Example 5: t3 (row 2) and t2 (row 1) violate with row2 as t1.
  EXPECT_TRUE(testutil::ViolatedBy(dc, t, 2, 1));
  EXPECT_FALSE(testutil::ViolatedBy(dc, t, 1, 2));
  EXPECT_FALSE(testutil::ViolatedBy(dc, t, 0, 1));
}

TEST(DenialConstraintTest, SatisfiedAtoms) {
  Table t("emp", SalarySchema());
  ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.3), Value(31)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.2), Value(32)}).ok());
  auto dc = ParseConstraint("!(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", SalarySchema())
                .ValueOrDie();
  auto atoms = testutil::SatisfiedAtoms(dc, t, 0, 1);
  EXPECT_EQ(atoms, (std::vector<bool>{true, true}));
  atoms = testutil::SatisfiedAtoms(dc, t, 1, 0);
  EXPECT_EQ(atoms, (std::vector<bool>{false, false}));
}

TEST(DenialConstraintTest, SingleTupleConstraint) {
  Table t("emp", SalarySchema());
  ASSERT_TRUE(t.AppendRow({Value(9000.0), Value(0.05), Value(30)}).ok());
  auto dc = ParseConstraint("!(t1.salary > 5000 & t1.tax < 0.1)", "emp",
                            SalarySchema())
                .ValueOrDie();
  EXPECT_EQ(dc.num_tuples(), 1);
  EXPECT_TRUE(testutil::ViolatedBy(dc, t, 0, 0));
}

// ---------------------------------------------------------ConstraintSet --

TEST(ConstraintSetTest, AddLookupOverlap) {
  ConstraintSet set;
  ASSERT_TRUE(
      set.AddFromText("phi: FD zip -> city", "cities", CitySchema()).ok());
  ASSERT_TRUE(set
                  .AddFromText("psi: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                               "emp", SalarySchema())
                  .ok());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.AddFromText("phi: FD zip -> city", "cities", CitySchema())
                .code(),
            StatusCode::kAlreadyExists);

  EXPECT_EQ(set.ForTable("cities").size(), 1u);
  EXPECT_EQ(set.ForTable("emp").size(), 1u);
  EXPECT_EQ(set.ForTable("nope").size(), 0u);

  // Overlap: zip is column 0 of cities.
  EXPECT_EQ(set.Overlapping("cities", {0}).size(), 1u);
  EXPECT_EQ(set.Overlapping("cities", {}).size(), 0u);
  EXPECT_EQ(set.Overlapping("emp", {2}).size(), 0u);  // age not involved
  EXPECT_EQ(set.Overlapping("emp", {0}).size(), 1u);

  EXPECT_TRUE(set.FindByName("phi").ok());
  EXPECT_FALSE(set.FindByName("zeta").ok());
}

}  // namespace
}  // namespace daisy
