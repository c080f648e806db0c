// Plan-order and evaluation-strategy edge cases for the conjunctive
// executor — the §3.2 freedom the DBMS approach has over Rete's fixed
// left-deep plan.

#include <gtest/gtest.h>

#include "db/executor.h"
#include "matcher_test_util.h"

namespace prodb {
namespace {

class ExecutorPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation* rel;
    ASSERT_TRUE(catalog_
                    .CreateRelation(Schema("Big", {{"k", ValueType::kInt},
                                                   {"v", ValueType::kInt}}),
                                    &rel)
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateRelation(Schema("Small", {{"k", ValueType::kInt},
                                                     {"tag", ValueType::kInt}}),
                                    &rel)
                    .ok());
    for (int i = 0; i < 200; ++i) {
      TupleId id;
      ASSERT_TRUE(catalog_.Get("Big")
                      ->Insert(Tuple{Value(i % 40), Value(i)}, &id)
                      .ok());
    }
    for (int i = 0; i < 5; ++i) {
      TupleId id;
      ASSERT_TRUE(catalog_.Get("Small")
                      ->Insert(Tuple{Value(i), Value(7)}, &id)
                      .ok());
    }
  }

  ConjunctiveQuery PessimalOrderQuery() {
    ConjunctiveQuery q;
    ConditionSpec big;
    big.relation = "Big";
    big.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
    ConditionSpec small;
    small.relation = "Small";
    small.constant_tests.push_back(ConstantTest{1, CompareOp::kEq, Value(7)});
    small.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
    q.conditions = {big, small};
    q.num_vars = 1;
    return q;
  }

  Catalog catalog_;
};

TEST_F(ExecutorPlanTest, EveryOrderEqualsLhsOrderResults) {
  Executor exec(&catalog_);
  // 5 small keys × 5 Big tuples per key, whichever relation joins first.
  EXPECT_EQ(ExpectEveryPositiveOrderAgrees(exec, PessimalOrderQuery()), 25u);
}

TEST_F(ExecutorPlanTest, OrderedComparisonBeforeBinderAgreesInEveryOrder) {
  // CE0 tests v < <m> where <m> is bound by CE1. In LHS order (and with
  // CE0 as the seed) the comparison comes before its binder, and the
  // executor settles it as a deferred test once CE1 binds <m>; with CE1
  // forced first it is checked directly. Every order must agree.
  ConjunctiveQuery q;
  ConditionSpec tested;
  tested.relation = "Big";
  tested.constant_tests.push_back(ConstantTest{0, CompareOp::kGe, Value(0)});
  tested.constant_tests.push_back(
      ConstantTest{0, CompareOp::kLe, Value(1000)});
  tested.var_uses.push_back(VarUse{1, 0, CompareOp::kLt});  // v < <m>
  ConditionSpec binder;
  binder.relation = "Small";
  binder.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});  // k = <m>
  q.conditions = {tested, binder};
  q.num_vars = 1;

  Executor exec(&catalog_);
  EXPECT_GT(ExpectEveryPositiveOrderAgrees(exec, q), 0u);

  std::vector<std::pair<TupleId, Tuple>> big;
  ASSERT_TRUE(catalog_.Get("Big")->Select(Selection{}, &big).ok());
  ASSERT_FALSE(big.empty());
  // Seeded on a Big row: one match per Small key k (0..4) with v < k.
  for (const auto& [id, row] : big) {
    const int64_t v = row[1].as_int();
    if (v > 4) continue;
    EXPECT_EQ(ExpectEveryPositiveOrderAgrees(exec, q, 0, id, row),
              static_cast<size_t>(4 - v));
  }
}

TEST_F(ExecutorPlanTest, SeededEveryOrderAgrees) {
  Relation* small = catalog_.Get("Small");
  std::vector<std::pair<TupleId, Tuple>> rows;
  ASSERT_TRUE(small->Select(Selection{}, &rows).ok());
  ASSERT_FALSE(rows.empty());
  Executor exec(&catalog_);
  EXPECT_EQ(ExpectEveryPositiveOrderAgrees(exec, PessimalOrderQuery(), 1,
                                           rows[0].first, rows[0].second),
            5u);
}

TEST_F(ExecutorPlanTest, EmptyRelationShortCircuits) {
  Relation* rel;
  ASSERT_TRUE(catalog_
                  .CreateRelation(Schema("Empty", {{"k", ValueType::kInt}}),
                                  &rel)
                  .ok());
  ConjunctiveQuery q = PessimalOrderQuery();
  ConditionSpec empty;
  empty.relation = "Empty";
  q.conditions.push_back(empty);
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  EXPECT_TRUE(matches.empty());
}

TEST_F(ExecutorPlanTest, DuplicateVariableWithinCe) {
  // Big tuples where k == v (intra-CE variable repetition).
  ConjunctiveQuery q;
  ConditionSpec ce;
  ce.relation = "Big";
  ce.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  ce.var_uses.push_back(VarUse{1, 0, CompareOp::kEq});
  q.conditions = {ce};
  q.num_vars = 1;
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  for (const QueryMatch& m : matches) {
    EXPECT_EQ(m.tuples[0][0], m.tuples[0][1]);
  }
  // i%40 == i only for i in [0, 40): exactly 40 matches.
  EXPECT_EQ(matches.size(), 40u);
}

TEST_F(ExecutorPlanTest, MultipleNegatedConditions) {
  ConjunctiveQuery q;
  ConditionSpec small;
  small.relation = "Small";
  small.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  ConditionSpec no_big;  // no Big with k = <m>
  no_big.relation = "Big";
  no_big.negated = true;
  no_big.var_uses.push_back(VarUse{0, 0, CompareOp::kEq});
  ConditionSpec no_big2;  // and no Big with v = <m>
  no_big2.relation = "Big";
  no_big2.negated = true;
  no_big2.var_uses.push_back(VarUse{1, 0, CompareOp::kEq});
  q.conditions = {small, no_big, no_big2};
  q.num_vars = 1;
  Executor exec(&catalog_);
  std::vector<QueryMatch> matches;
  ASSERT_TRUE(exec.Evaluate(q, &matches).ok());
  // Small keys 0..4 all collide with Big's k range 0..39: no matches.
  EXPECT_TRUE(matches.empty());
}

}  // namespace
}  // namespace prodb
