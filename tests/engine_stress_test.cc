// Stress tests for the concurrent engine: deadlock-prone lock orders,
// long modify chains, and mixed matchers under many workers.

#include <gtest/gtest.h>

#include "engine/concurrent_engine.h"
#include "engine/sequential_engine.h"
#include "match/pattern_matcher.h"
#include "match/query_matcher.h"
#include "matcher_test_util.h"

namespace prodb {
namespace {

TEST(EngineStressTest, OppositeLockOrdersResolveViaDeadlockHandling) {
  // Rule `ab` reads (A, B); rule `ba` reads (B, A). Their transactions
  // acquire tuple read locks in opposite orders, then upgrade to writes —
  // the §5.2 scenario that "could lead to a deadlock of the two
  // transactions". The engine must abort a victim, compensate, retry,
  // and drain.
  MatcherHarness h;
  ASSERT_TRUE(h.Init(R"(
(literalize A id n)
(literalize B id n)
(p ab (A ^id <i> ^n <x>) (B ^id <i> ^n <y>) --> (remove 1) (remove 2))
(p ba (B ^id <i> ^n <x>) (A ^id <i> ^n <y>) --> (remove 1) (remove 2))
)",
                     [](Catalog* c) {
                       return std::make_unique<QueryMatcher>(c);
                     })
                  .ok());
  LockManager locks;
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(engine.Insert("A", Tuple{Value(i), Value(i)}).ok());
    ASSERT_TRUE(engine.Insert("B", Tuple{Value(i), Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  // Each (A,B) pair consumed exactly once, by ab or ba.
  EXPECT_EQ(result.firings, 24u);
  EXPECT_EQ(h.catalog->Get("A")->Count(), 0u);
  EXPECT_EQ(h.catalog->Get("B")->Count(), 0u);
  EXPECT_EQ(locks.LockedResourceCount(), 0u);
}

TEST(EngineStressTest, LongModifyChainsTerminate) {
  // Each item is modified through 8 stages by a single rule; firings
  // must total items × stages under any worker count.
  for (size_t workers : {1u, 4u}) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(R"(
(literalize Item id stage)
(p advance (Item ^id <i> ^stage { >= 0 < 8 }) --> (modify 1 ^stage 8))
)",
                       [](Catalog* c) {
                         return std::make_unique<QueryMatcher>(c);
                       })
                    .ok());
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = workers;
    ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(engine.Insert("Item", Tuple{Value(i), Value(0)}).ok());
    }
    ConcurrentRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    EXPECT_EQ(result.firings, 30u) << workers << " workers";
    size_t done = 0;
    ASSERT_TRUE(h.catalog->Get("Item")
                    ->Scan([&](TupleId, const Tuple& t) {
                      if (t[1] == Value(8)) ++done;
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(done, 30u);
  }
}

TEST(EngineStressTest, CascadingMakesUnderConcurrency) {
  // Stage-1 consumption produces stage-2 work produced *during* the run;
  // quiescence detection must not exit while maintenance keeps feeding
  // the conflict set.
  MatcherHarness h;
  ASSERT_TRUE(h.Init(R"(
(literalize S1 id)
(literalize S2 id)
(literalize S3 id)
(p one (S1 ^id <x>) --> (remove 1) (make S2 ^id <x>))
(p two (S2 ^id <x>) --> (remove 1) (make S3 ^id <x>))
)",
                     [](Catalog* c) {
                       return std::make_unique<PatternMatcher>(c);
                     })
                  .ok());
  LockManager locks;
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.Insert("S1", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  EXPECT_EQ(result.firings, 80u);
  EXPECT_EQ(h.catalog->Get("S1")->Count(), 0u);
  EXPECT_EQ(h.catalog->Get("S2")->Count(), 0u);
  EXPECT_EQ(h.catalog->Get("S3")->Count(), 40u);
}

TEST(EngineStressTest, SequentialRandomStrategyIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    MatcherHarness h;
    EXPECT_TRUE(h.Init(R"(
(literalize E v)
(p a (E ^v <x>) --> (remove 1))
)",
                       [](Catalog* c) {
                         return std::make_unique<QueryMatcher>(c);
                       })
                    .ok());
    SequentialEngineOptions opts;
    opts.strategy = StrategyKind::kRandom;
    opts.seed = seed;
    SequentialEngine engine(h.catalog.get(), h.matcher.get(), opts);
    std::vector<int64_t> order;
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(engine.Insert("E", Tuple{Value(i)}).ok());
    }
    // Drain one step at a time, recording which tuple went first.
    bool fired = true;
    EngineRunResult result;
    while (fired) {
      size_t before = h.catalog->Get("E")->Count();
      EXPECT_TRUE(engine.Step(&fired, &result).ok());
      if (fired) {
        EXPECT_EQ(h.catalog->Get("E")->Count(), before - 1);
      }
    }
    return result.firings;
  };
  EXPECT_EQ(run(5), 10u);
  EXPECT_EQ(run(6), 10u);
}

}  // namespace
}  // namespace prodb
