// Sharded multi-core match — the query matcher's parallel seeded
// re-evaluation: serial-vs-sharded conflict-set identity down to the
// recency stamps, firing order under the recency strategy equal to the
// serial matcher's at every thread count, per-shard counters, and the
// sharded matcher under the concurrent engine.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "engine/concurrent_engine.h"
#include "engine/sequential_engine.h"
#include "match/query_matcher.h"
#include "match/sharding.h"
#include "matcher_test_util.h"
#include "rete/network.h"

namespace prodb {
namespace {

TEST(ShardImbalanceTest, UniformIsOneEmptyIsOne) {
  EXPECT_DOUBLE_EQ(ShardImbalance({}), 1.0);
  std::vector<ShardStats> even(4);
  for (auto& s : even) s.deltas_routed = 10;
  EXPECT_DOUBLE_EQ(ShardImbalance(even), 1.0);
  std::vector<ShardStats> skew(4);
  skew[0].deltas_routed = 40;  // mean 10, max 40
  EXPECT_DOUBLE_EQ(ShardImbalance(skew), 4.0);
}

std::unique_ptr<Matcher> ShardedQuery(Catalog* c, size_t num_shards,
                                      size_t threads) {
  ShardingOptions so;
  so.num_shards = num_shards;
  so.threads = threads;
  return std::make_unique<QueryMatcher>(c, ExecutorOptions{}, so);
}

// The conflict set in recency order, each member with its stamp, rule
// and matched tuple values: equal lists mean the same instantiations
// entered the set in the same order under the same stamps.
std::vector<std::string> ByRecency(Matcher& m) {
  std::vector<Instantiation> snap = m.conflict_set().Snapshot();
  std::sort(snap.begin(), snap.end(),
            [](const Instantiation& a, const Instantiation& b) {
              return a.recency < b.recency;
            });
  std::vector<std::string> out;
  for (const Instantiation& inst : snap) {
    out.push_back(std::to_string(inst.recency) + ":" + inst.ToString());
  }
  return out;
}

// Drives the same randomized batched churn through the serial query
// matcher and its sharded variant at several thread counts. The sharded
// path commits in the serial order, so the conflict set must match the
// serial one member for member, recency stamps included.
TEST(ShardedMatchTest, BatchedChurnMatchesSerialAcrossThreadCounts) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(literalize C k v)
(p pair (A ^k <x> ^v <u>) (B ^k <x> ^v <w>) --> (remove 1))
(p triple (A ^k <x>) (B ^k <x> ^v <w>) (C ^v <w>) --> (remove 1))
(p lonely (A ^k <x> ^v 0) -(C ^k <x>) --> (remove 1))
)";
  for (size_t threads : {1u, 2u, 8u}) {
    MatcherHarness serial, sharded;
    ASSERT_TRUE(serial
                    .Init(program,
                          [](Catalog* c) {
                            return std::make_unique<QueryMatcher>(c);
                          })
                    .ok());
    ASSERT_TRUE(sharded
                    .Init(program,
                          [&](Catalog* c) {
                            return ShardedQuery(c, 8, threads);
                          })
                    .ok());
    ASSERT_EQ(sharded.matcher->name(), "query-shard");

    Rng rng(7);  // same trace at every thread count
    std::vector<std::pair<std::string, std::pair<TupleId, TupleId>>> live;
    for (int batch = 0; batch < 25; ++batch) {
      serial.wm->BeginBatch();
      sharded.wm->BeginBatch();
      for (int k = 0; k < 12; ++k) {
        if (rng.Chance(0.3) && !live.empty()) {
          size_t pick = rng.Uniform(live.size());
          ASSERT_TRUE(
              serial.wm->Delete(live[pick].first, live[pick].second.first)
                  .ok());
          ASSERT_TRUE(sharded.wm
                          ->Delete(live[pick].first, live[pick].second.second)
                          .ok());
          live.erase(live.begin() + static_cast<long>(pick));
        } else {
          const char* classes[] = {"A", "B", "C"};
          std::string cls = classes[rng.Uniform(3)];
          Tuple t{Value(static_cast<int64_t>(rng.Uniform(6))),
                  Value(static_cast<int64_t>(rng.Uniform(4)))};
          TupleId sid, pid;
          ASSERT_TRUE(serial.wm->Insert(cls, t, &sid).ok());
          ASSERT_TRUE(sharded.wm->Insert(cls, t, &pid).ok());
          live.emplace_back(cls, std::make_pair(sid, pid));
        }
      }
      ASSERT_TRUE(serial.wm->CommitBatch().ok());
      ASSERT_TRUE(sharded.wm->CommitBatch().ok());
      ASSERT_EQ(CanonicalConflictSet(*sharded.matcher),
                CanonicalConflictSet(*serial.matcher))
          << "threads=" << threads << " batch=" << batch;
      ASSERT_EQ(ByRecency(*sharded.matcher), ByRecency(*serial.matcher))
          << "recency order diverged from serial: threads=" << threads
          << " batch=" << batch;
    }
  }
}

// Firing order under the recency strategy must equal the serial query
// matcher's at 1, 2, and 8 threads: conflict resolution reads recency
// stamps, so any divergence in the commit order would surface as a
// different firing log.
TEST(ShardedMatchTest, RecencyFiringOrderMatchesSerialAtEveryThreadCount) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(p pair (A ^k <x> ^v <u>) (B ^k <x> ^v <w>) --> (remove 1))
(p zero (A ^k <x> ^v 0) --> (remove 1))
)";
  auto run = [&](const std::function<std::unique_ptr<Matcher>(Catalog*)>&
                     factory,
                 std::vector<std::string>* log) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program, factory).ok());
    SequentialEngineOptions sopts;
    sopts.strategy = StrategyKind::kRecency;
    SequentialEngine engine(h.catalog.get(), h.matcher.get(), sopts);
    Rng rng(99);
    engine.working_memory().BeginBatch();
    for (int i = 0; i < 48; ++i) {
      Tuple t{Value(static_cast<int64_t>(rng.Uniform(8))),
              Value(static_cast<int64_t>(rng.Uniform(3)))};
      ASSERT_TRUE(engine.working_memory()
                      .Insert(rng.Chance(0.5) ? "A" : "B", t)
                      .ok());
    }
    ASSERT_TRUE(engine.working_memory().CommitBatch().ok());
    EngineRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    EXPECT_GT(result.firings, 0u);
    *log = engine.firing_log();
  };
  std::vector<std::string> reference;
  run([](Catalog* c) { return std::make_unique<QueryMatcher>(c); },
      &reference);
  ASSERT_FALSE(reference.empty());
  for (size_t threads : {1u, 2u, 8u}) {
    std::vector<std::string> log;
    run([&](Catalog* c) { return ShardedQuery(c, 8, threads); }, &log);
    EXPECT_EQ(log, reference)
        << "firing order diverged from serial at threads=" << threads;
  }
}

TEST(ShardedMatchTest, QueryMatcherShardStatsAndName) {
  const char* program = R"(
(literalize A k v)
(literalize B k v)
(p pair (A ^k <x> ^v <u>) (B ^k <x> ^v <w>) --> (remove 1))
)";
  MatcherHarness h;
  ASSERT_TRUE(
      h.Init(program, [](Catalog* c) { return ShardedQuery(c, 4, 2); }).ok());
  EXPECT_EQ(h.matcher->name(), "query-shard");
  h.wm->BeginBatch();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(h.wm->Insert(i % 2 ? "A" : "B",
                             Tuple{Value(i % 4), Value(i)})
                    .ok());
  }
  ASSERT_TRUE(h.wm->CommitBatch().ok());
  std::vector<ShardStats> stats = h.matcher->ShardStatsSnapshot();
  ASSERT_EQ(stats.size(), 4u);
  // Every insert seeds exactly one CE, and seeds split round-robin by
  // index: 16 seeds over 4 shards is 4 each. Both seeds of a joining
  // A/B pair find it, so each committed instantiation is produced twice.
  uint64_t ops = 0;
  for (const ShardStats& s : stats) {
    EXPECT_EQ(s.deltas_routed, 4u);
    ops += s.conflict_ops;
  }
  EXPECT_DOUBLE_EQ(ShardImbalance(stats), 1.0);
  EXPECT_EQ(ops, 2 * h.matcher->conflict_set().size());

  // Serial matchers report no shard stats.
  for (auto factory :
       std::vector<std::function<std::unique_ptr<Matcher>(Catalog*)>>{
           [](Catalog* c) { return std::make_unique<QueryMatcher>(c); },
           [](Catalog* c) { return std::make_unique<ReteNetwork>(c); }}) {
    MatcherHarness serial;
    ASSERT_TRUE(serial.Init(program, factory).ok());
    EXPECT_TRUE(serial.matcher->ShardStatsSnapshot().empty());
  }
}

// The concurrent engine commits transactions from worker threads while
// the sharded matcher fans seeded evaluation out onto its own pool — the
// matcher-internal batch lock must keep the two safe together (TSan
// covers this test in CI).
TEST(ShardedMatchTest, ConcurrentEngineDrivesShardedQuery) {
  for (size_t threads : {1u, 2u, 8u}) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(R"(
(literalize A id n)
(literalize B id n)
(literalize C id)
(p ab (A ^id <i> ^n <x>) (B ^id <i> ^n <y>)
   --> (remove 1) (remove 2) (make C ^id <i>))
(p c (C ^id <i>) --> (remove 1))
)",
                       [&](Catalog* c) { return ShardedQuery(c, 4, threads); })
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
    // Each `ab` commit is a three-delta batch (two removes, one make),
    // so the sharded OnBatch path runs from the worker threads.
    EXPECT_EQ(result.firings, 48u) << "threads=" << threads;
    EXPECT_EQ(h.catalog->Get("A")->Count(), 0u);
    EXPECT_EQ(h.catalog->Get("B")->Count(), 0u);
    EXPECT_EQ(h.catalog->Get("C")->Count(), 0u);
  }
}

}  // namespace
}  // namespace prodb
