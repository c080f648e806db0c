// Cross-matcher equivalence: the four matching architectures the paper
// compares (in-memory Rete §3.1, DBMS-backed Rete §3.2, query matcher
// §4.1, matching-pattern matcher §4.2) must produce identical conflict
// sets on any sequence of WM insertions and deletions. The query matcher
// recomputes from base relations each time and serves as the oracle.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "match/pattern_matcher.h"
#include "match/query_matcher.h"
#include "matcher_test_util.h"
#include "rete/network.h"
#include "workload/generator.h"
#include "workload/paper_examples.h"

namespace prodb {
namespace {

struct MatcherCase {
  std::string name;
  std::function<std::unique_ptr<Matcher>(Catalog*)> factory;
};

// 4 shards on 2 worker threads — small enough to keep the suite quick,
// uneven enough (threads != shards) to exercise work stealing of whole
// shards.
ShardingOptions TestSharding() {
  ShardingOptions so;
  so.num_shards = 4;
  so.threads = 2;
  return so;
}

// 8 shards on 8 threads: the wide end of the planner x sharding matrix
// (the serial -plan variants are the 1-thread end).
ShardingOptions WideSharding() {
  ShardingOptions so;
  so.num_shards = 8;
  so.threads = 8;
  return so;
}

// Aggressive drift threshold so the short test traces cross it and the
// replan machinery (Rete rebuild + reseed, query-matcher plan swap) runs
// mid-trace instead of only at registration.
PlannerOptions TestPlanner() {
  PlannerOptions po;
  po.enable = true;
  po.replan_drift = 2.0;
  return po;
}

std::vector<MatcherCase> AllMatchers() {
  return {
      {"query",
       [](Catalog* c) { return std::make_unique<QueryMatcher>(c); }},
      {"pattern",
       [](Catalog* c) { return std::make_unique<PatternMatcher>(c); }},
      {"rete",
       [](Catalog* c) { return std::make_unique<ReteNetwork>(c); }},
      {"rete-dbms",
       [](Catalog* c) {
         ReteOptions opts;
         opts.dbms_backed = true;
         return std::make_unique<ReteNetwork>(c, opts);
       }},
      // The same architectures with all indexing forced off (join-key
      // probes, declared WM indexes, constant-test discrimination). The
      // defaults above run fully indexed, so agreement between the two
      // halves of this list proves every probe path is a pure filter —
      // same conflict sets, fewer tuples visited.
      {"query-scan",
       [](Catalog* c) {
         ExecutorOptions eo;
         eo.use_indexes = false;
         eo.declare_rule_indexes = false;
         eo.discriminate_dispatch = false;
         return std::make_unique<QueryMatcher>(c, eo);
       }},
      {"pattern-scan",
       [](Catalog* c) {
         PatternMatcherOptions po;
         po.declare_wm_indexes = false;
         po.discriminate_dispatch = false;
         return std::make_unique<PatternMatcher>(c, po);
       }},
      {"rete-scan",
       [](Catalog* c) {
         ReteOptions opts;
         opts.index_memories = false;
         opts.discriminate_alpha = false;
         return std::make_unique<ReteNetwork>(c, opts);
       }},
      {"rete-dbms-scan",
       [](Catalog* c) {
         ReteOptions opts;
         opts.dbms_backed = true;
         opts.index_memories = false;
         opts.discriminate_alpha = false;
         return std::make_unique<ReteNetwork>(c, opts);
       }},
      // Discrimination-only ablation: everything else at defaults, so a
      // divergence here pins any bug on the candidate-dispatch tier
      // specifically (candidates must be a superset of the CEs/alphas
      // whose constant tests pass).
      {"query-nodisc",
       [](Catalog* c) {
         ExecutorOptions eo;
         eo.discriminate_dispatch = false;
         return std::make_unique<QueryMatcher>(c, eo);
       }},
      {"pattern-nodisc",
       [](Catalog* c) {
         PatternMatcherOptions po;
         po.discriminate_dispatch = false;
         return std::make_unique<PatternMatcher>(c, po);
       }},
      {"rete-nodisc",
       [](Catalog* c) {
         ReteOptions opts;
         opts.discriminate_alpha = false;
         return std::make_unique<ReteNetwork>(c, opts);
       }},
      {"rete-dbms-nodisc",
       [](Catalog* c) {
         ReteOptions opts;
         opts.dbms_backed = true;
         opts.discriminate_alpha = false;
         return std::make_unique<ReteNetwork>(c, opts);
       }},
      // Sharded ablation: the query matcher's parallel seeded
      // evaluation (fan-out + ordered commit) must agree with the serial
      // oracle on every trace — one-delta and multi-delta batches alike.
      {"query-shard",
       [](Catalog* c) {
         return std::make_unique<QueryMatcher>(c, ExecutorOptions{},
                                               TestSharding());
       }},
      // Cost-based join planning ablation: a planned order changes only
      // the join *sequence*, so the conflict set must stay byte-identical
      // to the syntactic baseline — including across the drift-triggered
      // replans the aggressive threshold forces mid-trace (Rete rebuilds
      // and reseeds its join network; the query matcher swaps plan
      // snapshots). The query matcher's serial and 8-shard/8-thread
      // variants cover both of its commit paths.
      {"query-plan",
       [](Catalog* c) {
         return std::make_unique<QueryMatcher>(c, ExecutorOptions{},
                                               ShardingOptions{},
                                               TestPlanner());
       }},
      {"rete-plan",
       [](Catalog* c) {
         ReteOptions opts;
         opts.planner = TestPlanner();
         return std::make_unique<ReteNetwork>(c, opts);
       }},
      {"rete-dbms-plan",
       [](Catalog* c) {
         ReteOptions opts;
         opts.dbms_backed = true;
         opts.planner = TestPlanner();
         return std::make_unique<ReteNetwork>(c, opts);
       }},
      {"query-plan-shard8",
       [](Catalog* c) {
         return std::make_unique<QueryMatcher>(c, ExecutorOptions{},
                                               WideSharding(),
                                               TestPlanner());
       }},
  };
}

// Replays one insert/delete trace against every matcher and compares the
// canonical conflict sets after every step.
void RunTrace(const std::string& program,
              const std::vector<std::string>& classes,
              const std::function<Tuple(const std::string&, Rng*)>& gen,
              uint64_t seed, int steps, double delete_prob) {
  std::vector<MatcherHarness> harnesses;
  for (const MatcherCase& mc : AllMatchers()) {
    MatcherHarness h;
    ASSERT_TRUE(h.Init(program, mc.factory).ok()) << mc.name;
    harnesses.push_back(std::move(h));
  }
  Rng rng(seed);
  // Track live tuples (by value) per class so deletes hit real tuples.
  std::map<std::string, std::vector<std::vector<TupleId>>> live_ids;
  std::map<std::string, std::vector<Tuple>> live_tuples;
  for (const auto& cls : classes) {
    live_ids[cls].clear();
    live_tuples[cls].clear();
  }

  for (int step = 0; step < steps; ++step) {
    const std::string& cls = classes[rng.Uniform(classes.size())];
    bool do_delete =
        rng.Chance(delete_prob) && !live_tuples[cls].empty();
    if (do_delete) {
      size_t pick = rng.Uniform(live_tuples[cls].size());
      for (size_t m = 0; m < harnesses.size(); ++m) {
        ASSERT_TRUE(harnesses[m]
                        .wm->Delete(cls, live_ids[cls][pick][m])
                        .ok())
            << AllMatchers()[m].name << " step " << step;
      }
      live_ids[cls].erase(live_ids[cls].begin() + static_cast<long>(pick));
      live_tuples[cls].erase(live_tuples[cls].begin() +
                             static_cast<long>(pick));
    } else {
      Tuple t = gen(cls, &rng);
      std::vector<TupleId> ids;
      for (size_t m = 0; m < harnesses.size(); ++m) {
        TupleId id;
        ASSERT_TRUE(harnesses[m].wm->Insert(cls, t, &id).ok())
            << AllMatchers()[m].name << " step " << step;
        ids.push_back(id);
      }
      live_ids[cls].push_back(std::move(ids));
      live_tuples[cls].push_back(std::move(t));
    }
    // Every matcher is compared at each step (so a failure names all
    // that diverged), and the trace stops at the first failing step.
    auto oracle = CanonicalConflictSet(*harnesses[0].matcher);
    for (size_t m = 1; m < harnesses.size(); ++m) {
      auto got = CanonicalConflictSet(*harnesses[m].matcher);
      EXPECT_EQ(got, oracle)
          << "matcher " << AllMatchers()[m].name << " diverged at step "
          << step << " (" << (do_delete ? "delete" : "insert") << " on "
          << cls << ")";
    }
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
}

TEST(MatcherEquivalence, ThreeWayJoinRandomChurn) {
  auto gen = [](const std::string& cls, Rng* rng) {
    int64_t lo = static_cast<int64_t>(rng->Uniform(4));
    int64_t hi = static_cast<int64_t>(rng->Uniform(4));
    if (cls == "A") return Tuple{Value(lo), Value("a"), Value(hi)};
    if (cls == "B") return Tuple{Value(lo), Value(hi), Value("b")};
    return Tuple{Value("c"), Value(lo), Value(hi)};
  };
  RunTrace(kThreeWayJoin, {"A", "B", "C"}, gen, 11, 250, 0.25);
}

TEST(MatcherEquivalence, ThreeWayJoinSometimesFailingAlpha) {
  auto gen = [](const std::string& cls, Rng* rng) {
    // Half the tuples fail their class's constant test.
    bool pass = rng->Chance(0.5);
    int64_t lo = static_cast<int64_t>(rng->Uniform(3));
    int64_t hi = static_cast<int64_t>(rng->Uniform(3));
    if (cls == "A") return Tuple{Value(lo), Value(pass ? "a" : "q"), Value(hi)};
    if (cls == "B") return Tuple{Value(lo), Value(hi), Value(pass ? "b" : "q")};
    return Tuple{Value(pass ? "c" : "q"), Value(lo), Value(hi)};
  };
  RunTrace(kThreeWayJoin, {"A", "B", "C"}, gen, 23, 250, 0.3);
}

TEST(MatcherEquivalence, EmpDeptChurn) {
  auto gen = [](const std::string& cls, Rng* rng) {
    static const char* names[] = {"Mike", "Sam", "Ann", "Bob"};
    if (cls == "Emp") {
      return Tuple{Value(names[rng->Uniform(4)]),
                   Value(static_cast<int64_t>(rng->Uniform(60))),
                   Value(static_cast<int64_t>(rng->Uniform(300))),
                   Value(static_cast<int64_t>(rng->Uniform(3))),
                   Value(names[rng->Uniform(4)])};
    }
    return Tuple{Value(static_cast<int64_t>(rng->Uniform(3))),
                 Value(rng->Chance(0.5) ? "Toy" : "Shoe"),
                 Value(static_cast<int64_t>(1 + rng->Uniform(2))),
                 Value(names[rng->Uniform(4)])};
  };
  RunTrace(kEmpDept, {"Emp", "Dept"}, gen, 31, 300, 0.3);
}

TEST(MatcherEquivalence, NegationChurn) {
  const char* program = R"(
(literalize Order id status)
(literalize Assignment order machine)
(p Idle
  (Order ^id <o> ^status pending)
  -(Assignment ^order <o>)
  -->
  (remove 1))
(p Busy
  (Order ^id <o> ^status pending)
  (Assignment ^order <o> ^machine <m>)
  -->
  (remove 2))
)";
  auto gen = [](const std::string& cls, Rng* rng) {
    if (cls == "Order") {
      return Tuple{Value(static_cast<int64_t>(rng->Uniform(5))),
                   Value(rng->Chance(0.7) ? "pending" : "done")};
    }
    return Tuple{Value(static_cast<int64_t>(rng->Uniform(5))),
                 Value(static_cast<int64_t>(rng->Uniform(3)))};
  };
  RunTrace(program, {"Order", "Assignment"}, gen, 47, 300, 0.35);
}

// Same-class self-join and self-negation: one P tuple can fill both CEs
// of S (with itself when a == b) and can block its own T instantiation.
// The pattern matcher finds the self-paired S instantiation only if the
// tuple's bumps from its first CE are flushed before its second CE
// reads pattern support.
const char* kSelfJoin = R"(
(literalize P a b)
(p S
  (P ^a <v> ^b <w>)
  (P ^b <v>)
  -->
  (remove 1))
(p T
  (P ^a <v>)
  -(P ^b <v> ^a 3)
  -->
  (remove 1))
)";

Tuple SelfJoinTuple(const std::string&, Rng* rng) {
  return Tuple{Value(static_cast<int64_t>(rng->Uniform(4))),
               Value(static_cast<int64_t>(rng->Uniform(4)))};
}

TEST(MatcherEquivalence, SelfJoinChurn) {
  RunTrace(kSelfJoin, {"P"}, SelfJoinTuple, 53, 200, 0.45);
}

// Batched-vs-one-delta equivalence: the same logical trace is driven
// through a reference harness one delta at a time (one-delta batches) and
// through a second harness via BeginBatch/CommitBatch with shuffled batch
// sizes (so every OnBatch — Rete relation grouping, the query matcher's
// amortized passes, the pattern matcher's lazy bump flush — is exercised
// against the one-delta oracle). Conflict sets must agree at every batch
// boundary, and auxiliary footprints must track each other since the net
// matcher state is identical.
void RunBatchedTrace(const std::string& program,
                     const std::vector<std::string>& classes,
                     const std::function<Tuple(const std::string&, Rng*)>& gen,
                     uint64_t seed, int num_batches, double delete_prob,
                     double modify_prob) {
  for (const MatcherCase& mc : AllMatchers()) {
    MatcherHarness ref, bat;
    ASSERT_TRUE(ref.Init(program, mc.factory).ok()) << mc.name;
    ASSERT_TRUE(bat.Init(program, mc.factory).ok()) << mc.name;

    Rng rng(seed);
    // Per class: live tuples with their (reference, batched) ids.
    std::map<std::string, std::vector<std::pair<TupleId, TupleId>>> live;
    std::map<std::string, std::vector<Tuple>> live_t;
    const size_t kSizes[] = {1, 2, 3, 5, 8, 13, 21};

    for (int b = 0; b < num_batches; ++b) {
      size_t n = kSizes[rng.Uniform(7)];
      bat.wm->BeginBatch();
      for (size_t k = 0; k < n; ++k) {
        const std::string& cls = classes[rng.Uniform(classes.size())];
        double roll = rng.NextDouble();
        if (roll < delete_prob && !live_t[cls].empty()) {
          size_t pick = rng.Uniform(live_t[cls].size());
          ASSERT_TRUE(ref.wm->Delete(cls, live[cls][pick].first).ok());
          ASSERT_TRUE(bat.wm->Delete(cls, live[cls][pick].second).ok());
          live[cls].erase(live[cls].begin() + static_cast<long>(pick));
          live_t[cls].erase(live_t[cls].begin() + static_cast<long>(pick));
        } else if (roll < delete_prob + modify_prob &&
                   !live_t[cls].empty()) {
          size_t pick = rng.Uniform(live_t[cls].size());
          Tuple next = gen(cls, &rng);
          TupleId r_id, b_id;
          ASSERT_TRUE(
              ref.wm->Modify(cls, live[cls][pick].first, next, &r_id).ok());
          ASSERT_TRUE(
              bat.wm->Modify(cls, live[cls][pick].second, next, &b_id).ok());
          live[cls][pick] = {r_id, b_id};
          live_t[cls][pick] = std::move(next);
        } else {
          Tuple t = gen(cls, &rng);
          TupleId r_id, b_id;
          ASSERT_TRUE(ref.wm->Insert(cls, t, &r_id).ok());
          ASSERT_TRUE(bat.wm->Insert(cls, t, &b_id).ok());
          live[cls].emplace_back(r_id, b_id);
          live_t[cls].push_back(std::move(t));
        }
      }
      ASSERT_TRUE(bat.wm->CommitBatch().ok()) << mc.name;
      ASSERT_EQ(CanonicalConflictSet(*bat.matcher),
                CanonicalConflictSet(*ref.matcher))
          << mc.name << " diverged after batch " << b << " (size " << n
          << ")";
    }
    // Identical net state: footprints must be in the same regime.
    size_t fr = ref.matcher->AuxiliaryFootprintBytes();
    size_t fb = bat.matcher->AuxiliaryFootprintBytes();
    EXPECT_LE(fb, 2 * fr + 4096) << mc.name;
    EXPECT_LE(fr, 2 * fb + 4096) << mc.name;
    EXPECT_GE(bat.matcher->stats().batches.load(),
              static_cast<uint64_t>(num_batches))
        << mc.name;
  }
}

TEST(MatcherBatchEquivalence, ThreeWayJoinShuffledBatches) {
  auto gen = [](const std::string& cls, Rng* rng) {
    int64_t lo = static_cast<int64_t>(rng->Uniform(4));
    int64_t hi = static_cast<int64_t>(rng->Uniform(4));
    if (cls == "A") return Tuple{Value(lo), Value("a"), Value(hi)};
    if (cls == "B") return Tuple{Value(lo), Value(hi), Value("b")};
    return Tuple{Value("c"), Value(lo), Value(hi)};
  };
  RunBatchedTrace(kThreeWayJoin, {"A", "B", "C"}, gen, 101, 40, 0.25, 0.15);
}

TEST(MatcherBatchEquivalence, EmpDeptShuffledBatches) {
  auto gen = [](const std::string& cls, Rng* rng) {
    static const char* names[] = {"Mike", "Sam", "Ann", "Bob"};
    if (cls == "Emp") {
      return Tuple{Value(names[rng->Uniform(4)]),
                   Value(static_cast<int64_t>(rng->Uniform(60))),
                   Value(static_cast<int64_t>(rng->Uniform(300))),
                   Value(static_cast<int64_t>(rng->Uniform(3))),
                   Value(names[rng->Uniform(4)])};
    }
    return Tuple{Value(static_cast<int64_t>(rng->Uniform(3))),
                 Value(rng->Chance(0.5) ? "Toy" : "Shoe"),
                 Value(static_cast<int64_t>(1 + rng->Uniform(2))),
                 Value(names[rng->Uniform(4)])};
  };
  RunBatchedTrace(kEmpDept, {"Emp", "Dept"}, gen, 211, 40, 0.25, 0.2);
}

TEST(MatcherBatchEquivalence, NegationShuffledBatches) {
  const char* program = R"(
(literalize Order id status)
(literalize Assignment order machine)
(p Idle
  (Order ^id <o> ^status pending)
  -(Assignment ^order <o>)
  -->
  (remove 1))
(p Busy
  (Order ^id <o> ^status pending)
  (Assignment ^order <o> ^machine <m>)
  -->
  (remove 2))
)";
  auto gen = [](const std::string& cls, Rng* rng) {
    if (cls == "Order") {
      return Tuple{Value(static_cast<int64_t>(rng->Uniform(5))),
                   Value(rng->Chance(0.7) ? "pending" : "done")};
    }
    return Tuple{Value(static_cast<int64_t>(rng->Uniform(5))),
                 Value(static_cast<int64_t>(rng->Uniform(3)))};
  };
  RunBatchedTrace(program, {"Order", "Assignment"}, gen, 307, 40, 0.3, 0.1);
}

TEST(MatcherBatchEquivalence, SelfJoinShuffledBatches) {
  RunBatchedTrace(kSelfJoin, {"P"}, SelfJoinTuple, 59, 40, 0.35, 0.15);
}

// Parameterized sweep over synthetic workloads: join widths 2..4, chain
// and star shapes.
struct SweepParam {
  size_t ces;
  bool chain;
  uint64_t seed;
};

class MatcherEquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MatcherEquivalenceSweep, SyntheticWorkload) {
  const SweepParam param = GetParam();
  WorkloadSpec spec;
  spec.num_classes = 3;
  spec.attrs_per_class = 4;
  spec.num_rules = 6;
  spec.ces_per_rule = param.ces;
  spec.chain_join = param.chain;
  spec.domain = 4;  // dense joins
  spec.seed = param.seed;
  WorkloadGenerator gen(spec);
  std::vector<Rule> rules = gen.GenerateRules();

  std::vector<MatcherHarness> harnesses;
  for (const MatcherCase& mc : AllMatchers()) {
    MatcherHarness h;
    h.catalog = std::make_unique<Catalog>();
    ASSERT_TRUE(gen.CreateClasses(h.catalog.get()).ok());
    h.rules = rules;
    h.matcher = mc.factory(h.catalog.get());
    for (const Rule& r : rules) {
      ASSERT_TRUE(h.matcher->AddRule(r).ok());
    }
    h.wm = std::make_unique<WorkingMemory>(h.catalog.get(),
                                           h.matcher.get());
    harnesses.push_back(std::move(h));
  }

  Rng rng(param.seed * 131);
  std::vector<std::pair<std::string, std::vector<TupleId>>> live;
  for (int step = 0; step < 200; ++step) {
    if (rng.Chance(0.3) && !live.empty()) {
      size_t pick = rng.Uniform(live.size());
      for (size_t m = 0; m < harnesses.size(); ++m) {
        ASSERT_TRUE(
            harnesses[m].wm->Delete(live[pick].first, live[pick].second[m])
                .ok());
      }
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      std::string cls = gen.ClassName(rng.Uniform(spec.num_classes));
      Tuple t = gen.RandomTuple(&rng);
      std::vector<TupleId> ids;
      for (auto& h : harnesses) {
        TupleId id;
        ASSERT_TRUE(h.wm->Insert(cls, t, &id).ok());
        ids.push_back(id);
      }
      live.emplace_back(cls, std::move(ids));
    }
    auto oracle = CanonicalConflictSet(*harnesses[0].matcher);
    for (size_t m = 1; m < harnesses.size(); ++m) {
      ASSERT_EQ(CanonicalConflictSet(*harnesses[m].matcher), oracle)
          << AllMatchers()[m].name << " diverged at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatcherEquivalenceSweep,
    ::testing::Values(SweepParam{2, true, 1}, SweepParam{3, true, 2},
                      SweepParam{4, true, 3}, SweepParam{3, false, 4},
                      SweepParam{4, false, 5}),
    [](const auto& info) {
      return "Ces" + std::to_string(info.param.ces) +
             (info.param.chain ? "Chain" : "Star") + "Seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace prodb
