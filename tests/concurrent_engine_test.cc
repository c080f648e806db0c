#include "engine/concurrent_engine.h"

#include <gtest/gtest.h>

#include <map>

#include "engine/sequential_engine.h"
#include "match/pattern_matcher.h"
#include "match/query_matcher.h"
#include "matcher_test_util.h"
#include "rete/network.h"
#include "storage/fault_disk.h"
#include "workload/generator.h"

namespace prodb {
namespace {

// Multiset of tuple values per relation — the state fingerprint used for
// serializability checks (tuple ids differ across replays).
std::map<std::string, std::multiset<std::string>> DbFingerprint(
    Catalog* catalog, const std::vector<std::string>& relations) {
  std::map<std::string, std::multiset<std::string>> out;
  for (const std::string& name : relations) {
    Relation* rel = catalog->Get(name);
    auto& bucket = out[name];
    EXPECT_TRUE(rel->Scan([&](TupleId, const Tuple& t) {
                     bucket.insert(t.ToString());
                     return Status::OK();
                   })
                    .ok());
  }
  return out;
}

class ConcurrentEngineTest : public ::testing::Test {
 protected:
  void Load(const std::string& source, ConcurrentEngineOptions opts = {}) {
    ASSERT_TRUE(harness_
                    .Init(source,
                          [](Catalog* c) {
                            return std::make_unique<QueryMatcher>(c);
                          })
                    .ok());
    engine_ = std::make_unique<ConcurrentEngine>(
        harness_.catalog.get(), harness_.matcher.get(), &locks_, opts);
  }
  MatcherHarness harness_;
  LockManager locks_;
  std::unique_ptr<ConcurrentEngine> engine_;
};

TEST_F(ConcurrentEngineTest, DrainsIndependentInstantiations) {
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  Load(R"(
(literalize Work id)
(literalize Done id)
(p consume (Work ^id <x>) --> (remove 1) (make Done ^id <x>))
)",
       opts);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(engine_->Insert("Work", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, 64u);
  EXPECT_EQ(harness_.catalog->Get("Work")->Count(), 0u);
  EXPECT_EQ(harness_.catalog->Get("Done")->Count(), 64u);
  EXPECT_EQ(engine_->commit_log().size(), 64u);
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(ConcurrentEngineTest, ConflictingRulesStaySerializable) {
  // Two rules compete for the same token; only one may consume it.
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  Load(R"(
(literalize Token id)
(literalize WonA id)
(literalize WonB id)
(p a (Token ^id <x>) --> (remove 1) (make WonA ^id <x>))
(p b (Token ^id <x>) --> (remove 1) (make WonB ^id <x>))
)",
       opts);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine_->Insert("Token", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  // Exactly one winner per token: 40 firings total, 40 outputs.
  EXPECT_EQ(result.firings, 40u);
  size_t a = harness_.catalog->Get("WonA")->Count();
  size_t b = harness_.catalog->Get("WonB")->Count();
  EXPECT_EQ(a + b, 40u);
  EXPECT_EQ(harness_.catalog->Get("Token")->Count(), 0u);
  // Losers are either removed by maintenance before being taken or
  // detected as stale at validation; either way nothing remains queued
  // and nothing double-fires.
  EXPECT_TRUE(harness_.matcher->conflict_set().empty());
}

TEST_F(ConcurrentEngineTest, CommitLogReplaysSerially) {
  // Serializability witness: replaying the committed firing sequence
  // serially from the same initial WM must land in the same final state.
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  opts.seed = 7;
  const char* program = R"(
(literalize Queue id stage)
(p advance1 (Queue ^id <x> ^stage 1) --> (modify 1 ^stage 2))
(p advance2 (Queue ^id <x> ^stage 2) --> (modify 1 ^stage 3))
)";
  Load(program, opts);
  std::vector<Tuple> initial;
  for (int i = 0; i < 20; ++i) {
    Tuple t{Value(i), Value(1)};
    initial.push_back(t);
    ASSERT_TRUE(engine_->Insert("Queue", t).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, 40u);  // each item advances twice
  auto concurrent_state =
      DbFingerprint(harness_.catalog.get(), {"Queue"});

  // Serial replay.
  MatcherHarness serial;
  ASSERT_TRUE(serial
                  .Init(program,
                        [](Catalog* c) {
                          return std::make_unique<QueryMatcher>(c);
                        })
                  .ok());
  SequentialEngine seq(serial.catalog.get(), serial.matcher.get());
  for (const Tuple& t : initial) {
    ASSERT_TRUE(seq.Insert("Queue", t).ok());
  }
  EngineRunResult seq_result;
  ASSERT_TRUE(seq.Run(&seq_result).ok());
  EXPECT_EQ(seq_result.firings, 40u);
  EXPECT_EQ(DbFingerprint(serial.catalog.get(), {"Queue"}),
            concurrent_state);
}

TEST_F(ConcurrentEngineTest, NegativeDependenceIsRespected) {
  // `lone` fires only while no Blocker exists; `spawn` creates Blockers.
  // Relation-level read locks (§5.2) prevent a `lone` commit from racing
  // a Blocker insertion it should have seen.
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  Load(R"(
(literalize Seed id)
(literalize Blocker id)
(literalize Output id)
(p spawn (Seed ^id <x>) --> (remove 1) (make Blocker ^id <x>))
(p lone (Seed ^id <x>) -(Blocker ^id <x>) --> (remove 1) (make Output ^id <x>))
)",
       opts);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(engine_->Insert("Seed", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  // Every seed was consumed exactly once.
  EXPECT_EQ(harness_.catalog->Get("Seed")->Count(), 0u);
  size_t blockers = harness_.catalog->Get("Blocker")->Count();
  size_t outputs = harness_.catalog->Get("Output")->Count();
  EXPECT_EQ(blockers + outputs, 30u);
}

TEST_F(ConcurrentEngineTest, WorkerSweepMatchesSequentialOutcome) {
  // Same consuming workload under 1, 2, 8 workers: identical final state.
  const char* program = R"(
(literalize Work id)
(literalize Done id)
(p consume (Work ^id <x>) --> (remove 1) (make Done ^id <x>))
)";
  for (size_t workers : {1u, 2u, 8u}) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program,
                       [](Catalog* c) {
                         return std::make_unique<QueryMatcher>(c);
                       })
                    .ok());
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = workers;
    ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(engine.Insert("Work", Tuple{Value(i)}).ok());
    }
    ConcurrentRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());
    EXPECT_EQ(result.firings, 32u) << workers << " workers";
    EXPECT_EQ(h.catalog->Get("Done")->Count(), 32u);
  }
}

TEST_F(ConcurrentEngineTest, PatternMatcherUnderConcurrency) {
  // The §4.2 matcher's maintenance must be safe from worker threads.
  MatcherHarness h;
  ASSERT_TRUE(h.Init(R"(
(literalize Work id)
(literalize Done id)
(p consume (Work ^id <x>) --> (remove 1) (make Done ^id <x>))
)",
                     [](Catalog* c) {
                       return std::make_unique<PatternMatcher>(c);
                     })
                  .ok());
  LockManager locks;
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  ConcurrentEngine engine(h.catalog.get(), h.matcher.get(), &locks, opts);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.Insert("Work", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine.Run(&result).ok());
  EXPECT_EQ(result.firings, 50u);
  EXPECT_EQ(h.catalog->Get("Done")->Count(), 50u);
}

TEST_F(ConcurrentEngineTest, DeadlockCompensationPreservesExactState) {
  // Two symmetric rules lock the same (X i, Y i) pair in opposite CE
  // order — the classic deadlock shape. Victims compensate by applying
  // the inverse ChangeSet to the relations (the matcher was never
  // notified mid-transaction), so however many aborts occur, the net
  // effect must be exactly one consumption per pair.
  ConcurrentEngineOptions opts;
  opts.workers = 8;
  opts.seed = 13;
  Load(R"(
(literalize X id)
(literalize Y id)
(literalize Out id)
(p xy (X ^id <i>) (Y ^id <i>) --> (remove 1) (remove 2) (make Out ^id <i>))
(p yx (Y ^id <i>) (X ^id <i>) --> (remove 1) (remove 2) (make Out ^id <i>))
)",
       opts);
  const int kPairs = 40;
  for (int i = 0; i < kPairs; ++i) {
    ASSERT_TRUE(engine_->Insert("X", Tuple{Value(i)}).ok());
    ASSERT_TRUE(engine_->Insert("Y", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  // Exactly one of {xy, yx} consumed each pair; aborted victims left no
  // residue in the relations or the conflict set.
  EXPECT_EQ(harness_.catalog->Get("X")->Count(), 0u);
  EXPECT_EQ(harness_.catalog->Get("Y")->Count(), 0u);
  EXPECT_EQ(harness_.catalog->Get("Out")->Count(),
            static_cast<size_t>(kPairs));
  EXPECT_EQ(result.firings, static_cast<size_t>(kPairs));
  EXPECT_TRUE(harness_.matcher->conflict_set().empty());
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(ConcurrentEngineTest, CommitDeliversWholeRhsAsOneBatch) {
  // §5.2 commit rule, structural form: the matcher hears a transaction's
  // ∆ as exactly one OnBatch per committed firing (plus the initial
  // loads), never action-by-action.
  ConcurrentEngineOptions opts;
  opts.workers = 2;
  Load(R"(
(literalize Work id)
(literalize DoneA id)
(literalize DoneB id)
(p fanout (Work ^id <x>) -->
  (remove 1) (make DoneA ^id <x>) (make DoneB ^id <x>))
)",
       opts);
  const int kItems = 16;
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(engine_->Insert("Work", Tuple{Value(i)}).ok());
  }
  uint64_t batches_after_load = harness_.matcher->stats().batches.load();
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_EQ(result.firings, static_cast<size_t>(kItems));
  // One batch per committed transaction (deadlock-free workload).
  EXPECT_EQ(harness_.matcher->stats().batches.load() - batches_after_load,
            static_cast<uint64_t>(kItems));
  EXPECT_EQ(harness_.catalog->Get("DoneA")->Count(),
            static_cast<size_t>(kItems));
  EXPECT_EQ(harness_.catalog->Get("DoneB")->Count(),
            static_cast<size_t>(kItems));
}

TEST_F(ConcurrentEngineTest, HaltStopsWorkers) {
  ConcurrentEngineOptions opts;
  opts.workers = 4;
  Load(R"(
(literalize Tick n)
(p stop (Tick ^n <x>) --> (remove 1) (halt))
)",
       opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine_->Insert("Tick", Tuple{Value(i)}).ok());
  }
  ConcurrentRunResult result;
  ASSERT_TRUE(engine_->Run(&result).ok());
  EXPECT_TRUE(result.halted);
  // Workers stop promptly; far fewer than 100 firings.
  EXPECT_LT(result.firings, 100u);
}

// Every tuple of `relations`, keyed by id: ids are part of the state an
// abort must restore.
std::map<std::string, std::map<TupleId, Tuple>> IdState(
    Catalog* catalog, const std::vector<std::string>& relations) {
  std::map<std::string, std::map<TupleId, Tuple>> out;
  for (const std::string& name : relations) {
    auto& rows = out[name];
    EXPECT_TRUE(catalog->Get(name)
                    ->Scan([&](TupleId id, const Tuple& t) {
                      rows.emplace(id, t);
                      return Status::OK();
                    })
                    .ok());
  }
  return out;
}

TEST(ConcurrentEngineFaultTest, FailedCommitRestoresRelationsAndConflictSet) {
  // The commit's log force fails after maintenance has already shown the
  // matcher the firing's ∆. The abort must put the relations back under
  // their original ids and feed the inverse ∆ through the matcher, and
  // the instantiation that did not fire must stay in the conflict set, so
  // the conflict set equals a recomputation from the relations. FIFO
  // requeues each failed instantiation behind the others, so one run per
  // instantiation fails each rule's commit once.
  const std::string program = R"(
(literalize A v)
(literalize B v)
(literalize L v)
(p move (A ^v <x>) --> (remove 1) (make B ^v <x>))
(p lonely (B ^v <x>) - (A ^v <x>) --> (modify 1 ^v 0))
(p log (B ^v <x>) --> (make L ^v <x>))
)";
  const std::vector<std::string> classes = {"A", "B", "L"};
  const std::vector<std::function<std::unique_ptr<Matcher>(Catalog*)>>
      factories = {
          [](Catalog* c) { return std::make_unique<QueryMatcher>(c); },
          [](Catalog* c) { return std::make_unique<PatternMatcher>(c); },
          [](Catalog* c) { return std::make_unique<ReteNetwork>(c); },
      };
  for (size_t f = 0; f < factories.size(); ++f) {
    SCOPED_TRACE("matcher " + std::to_string(f));
    FaultInjectingDiskManager fault(std::make_unique<MemoryDiskManager>());
    CatalogOptions copts;
    copts.default_storage = StorageKind::kPaged;
    copts.enable_wal = true;
    copts.disk = &fault;
    Catalog catalog(copts);
    std::vector<Rule> rules;
    ASSERT_TRUE(LoadProgram(program, &catalog, &rules).ok());
    std::unique_ptr<Matcher> matcher = factories[f](&catalog);
    for (const Rule& r : rules) ASSERT_TRUE(matcher->AddRule(r).ok());
    LockManager locks;
    ConcurrentEngineOptions opts;
    opts.workers = 1;
    ConcurrentEngine engine(&catalog, matcher.get(), &locks, opts);
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(engine.Insert("A", Tuple{Value(i)}).ok());
    }
    ASSERT_TRUE(engine.Insert("B", Tuple{Value(9)}).ok());
    ASSERT_TRUE(catalog.ForceDurable().ok());
    const auto before = IdState(&catalog, classes);

    MatcherHarness oracle;
    ASSERT_TRUE(oracle.Init(program, factories[f]).ok());
    for (const auto& [name, rows] : before) {
      for (const auto& [id, t] : rows) {
        ASSERT_TRUE(oracle.wm->Insert(name, t).ok());
      }
    }
    const auto expected = CanonicalConflictSet(*oracle.matcher);
    ASSERT_EQ(expected.size(), 6u);

    // Every disk write fails from here on: the first is a commit's log
    // force.
    fault.FailNth(DiskOpKind::kWrite, 0, /*sticky=*/true);
    for (size_t run = 0; run < expected.size(); ++run) {
      SCOPED_TRACE("run " + std::to_string(run));
      ConcurrentRunResult result;
      Status st = engine.Run(&result);
      EXPECT_EQ(st.code(), Status::Code::kIOError) << st.ToString();
      EXPECT_EQ(result.firings, 0u);
      EXPECT_EQ(IdState(&catalog, classes), before);
      EXPECT_EQ(locks.LockedResourceCount(), 0u);
      EXPECT_EQ(CanonicalConflictSet(*matcher), expected);
    }
    EXPECT_GE(fault.injected_faults(), expected.size());
    fault.Disarm();
  }
}

}  // namespace
}  // namespace prodb
