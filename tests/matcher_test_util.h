#ifndef PRODB_TESTS_MATCHER_TEST_UTIL_H_
#define PRODB_TESTS_MATCHER_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "db/executor.h"
#include "engine/working_memory.h"
#include "lang/analyzer.h"
#include "match/matcher.h"

namespace prodb {

/// Canonical view of a conflict set for cross-matcher comparison: the set
/// of (rule name, matched tuple *values* per positive CE). Tuple ids are
/// matcher-independent only within one catalog, so value-level comparison
/// is used when comparing matchers running on separate catalogs.
inline std::multiset<std::string> CanonicalConflictSet(Matcher& m) {
  std::multiset<std::string> out;
  for (const Instantiation& inst : m.conflict_set().Snapshot()) {
    std::string key = inst.rule_name + ":";
    const Rule& rule = m.rules()[static_cast<size_t>(inst.rule_index)];
    for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
      key += rule.lhs.conditions[ce].negated ? "[-]"
                                             : inst.tuples[ce].ToString();
    }
    out.insert(std::move(key));
  }
  return out;
}

/// Evaluates `q` — seeded on (`seed_idx`, `seed_id`, `seed`) through
/// EvaluateSeeded, or through Evaluate when `seed_idx` is SIZE_MAX — once
/// in LHS order and once per permutation of its positive CEs passed as
/// `forced_order`, and expects every order to yield the same multiset of
/// tuple-id combinations. Returns the LHS-order match count.
inline size_t ExpectEveryPositiveOrderAgrees(
    const Executor& exec, const ConjunctiveQuery& q,
    size_t seed_idx = SIZE_MAX, TupleId seed_id = QueryMatch::kNoTuple,
    const Tuple& seed = Tuple()) {
  auto run = [&](const std::vector<size_t>* order) {
    std::vector<QueryMatch> matches;
    Status st = seed_idx == SIZE_MAX
                    ? exec.Evaluate(q, &matches, order)
                    : exec.EvaluateSeeded(q, seed_idx, seed_id, seed,
                                          &matches, order);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::multiset<std::string> ids;
    for (const QueryMatch& m : matches) {
      std::string key;
      for (const TupleId& id : m.tuple_ids) key += id.ToString();
      ids.insert(std::move(key));
    }
    return ids;
  };
  const std::multiset<std::string> lhs = run(nullptr);
  std::vector<size_t> order;
  for (size_t i = 0; i < q.conditions.size(); ++i) {
    if (!q.conditions[i].negated) order.push_back(i);
  }
  do {
    EXPECT_EQ(run(&order), lhs) << "forced order differs from LHS order";
  } while (std::next_permutation(order.begin(), order.end()));
  return lhs.size();
}

/// A matcher plus its own catalog and WM facade, loaded from an OPS5-like
/// program source.
struct MatcherHarness {
  std::unique_ptr<Catalog> catalog;
  std::vector<Rule> rules;
  std::unique_ptr<Matcher> matcher;
  std::unique_ptr<WorkingMemory> wm;

  Status Init(const std::string& source,
              std::function<std::unique_ptr<Matcher>(Catalog*)> factory) {
    catalog = std::make_unique<Catalog>();
    PRODB_RETURN_IF_ERROR(LoadProgram(source, catalog.get(), &rules));
    matcher = factory(catalog.get());
    for (const Rule& r : rules) {
      PRODB_RETURN_IF_ERROR(matcher->AddRule(r));
    }
    wm = std::make_unique<WorkingMemory>(catalog.get(), matcher.get());
    return Status::OK();
  }
};

}  // namespace prodb

#endif  // PRODB_TESTS_MATCHER_TEST_UTIL_H_
