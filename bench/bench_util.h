#ifndef PRODB_BENCH_BENCH_UTIL_H_
#define PRODB_BENCH_BENCH_UTIL_H_

#include <memory>
#include <thread>

#include "common/rng.h"
#include "engine/working_memory.h"
#include "match/pattern_matcher.h"
#include "match/query_matcher.h"
#include "rete/network.h"
#include "workload/generator.h"

namespace prodb {
namespace bench {

/// A catalog + matcher + WM facade assembled from a WorkloadSpec.
/// Aborts on error (benchmarks have no error channel worth wiring).
struct Setup {
  std::unique_ptr<Catalog> catalog;
  std::vector<Rule> rules;
  std::unique_ptr<Matcher> matcher;
  std::unique_ptr<WorkingMemory> wm;
  WorkloadGenerator gen;

  explicit Setup(WorkloadSpec spec) : gen(spec) {}
};

inline void Abort(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "bench setup failed (%s): %s\n", what,
                 st.ToString().c_str());
    std::abort();
  }
}

template <typename MatcherFactory>
std::unique_ptr<Setup> MakeSetup(WorkloadSpec spec,
                                 MatcherFactory&& factory) {
  auto setup = std::make_unique<Setup>(spec);
  setup->catalog = std::make_unique<Catalog>();
  Abort(setup->gen.CreateClasses(setup->catalog.get()), "classes");
  setup->rules = setup->gen.GenerateRules();
  setup->matcher = factory(setup->catalog.get());
  for (const Rule& r : setup->rules) {
    Abort(setup->matcher->AddRule(r), "rule");
  }
  setup->wm = std::make_unique<WorkingMemory>(setup->catalog.get(),
                                              setup->matcher.get());
  return setup;
}

/// Default sharding configuration for the "-shard" matcher family:
/// 8 shards, pool sized to the hardware (`threads` overrides when > 0).
inline ShardingOptions DefaultSharding(size_t threads = 0) {
  ShardingOptions so;
  so.num_shards = 8;
  so.threads = threads != 0 ? threads
                            : static_cast<size_t>(
                                  std::thread::hardware_concurrency());
  if (so.threads == 0) so.threads = so.num_shards;
  return so;
}

/// The four architectures by name, plus three ablation families:
///  * "-scan": all indexing forced off — join-key token memories,
///    auto-declared WM hash indexes, AND constant-test discrimination —
///    the full linear-walk baseline for the indexing benchmarks.
///  * "-nodisc": only the constant-test discrimination index off (other
///    indexing at defaults), isolating the dispatch-tier contribution.
///  * "-shard": the query matcher's multi-core seeded evaluation
///    (DefaultSharding), at defaults otherwise. Rete and the pattern
///    matcher propagate serially, so they have no "-shard" variant.
///  * "-plan": cost-based join planning on (src/plan) — beta chains /
///    evaluation orders chosen from catalog statistics, drift-triggered
///    re-plans at defaults otherwise.
inline std::unique_ptr<Matcher> MakeMatcherByName(const std::string& name,
                                                  Catalog* catalog) {
  if (name == "query") return std::make_unique<QueryMatcher>(catalog);
  if (name == "pattern") return std::make_unique<PatternMatcher>(catalog);
  if (name == "rete") return std::make_unique<ReteNetwork>(catalog);
  if (name == "rete-dbms") {
    ReteOptions opts;
    opts.dbms_backed = true;
    return std::make_unique<ReteNetwork>(catalog, opts);
  }
  if (name == "query-scan") {
    ExecutorOptions eo;
    eo.use_indexes = false;
    eo.declare_rule_indexes = false;
    eo.discriminate_dispatch = false;
    return std::make_unique<QueryMatcher>(catalog, eo);
  }
  if (name == "pattern-scan") {
    PatternMatcherOptions po;
    po.declare_wm_indexes = false;
    po.discriminate_dispatch = false;
    return std::make_unique<PatternMatcher>(catalog, po);
  }
  if (name == "rete-scan") {
    ReteOptions opts;
    opts.index_memories = false;
    opts.discriminate_alpha = false;
    return std::make_unique<ReteNetwork>(catalog, opts);
  }
  if (name == "rete-dbms-scan") {
    ReteOptions opts;
    opts.dbms_backed = true;
    opts.index_memories = false;
    opts.discriminate_alpha = false;
    return std::make_unique<ReteNetwork>(catalog, opts);
  }
  if (name == "query-nodisc") {
    ExecutorOptions eo;
    eo.discriminate_dispatch = false;
    return std::make_unique<QueryMatcher>(catalog, eo);
  }
  if (name == "pattern-nodisc") {
    PatternMatcherOptions po;
    po.discriminate_dispatch = false;
    return std::make_unique<PatternMatcher>(catalog, po);
  }
  if (name == "rete-nodisc") {
    ReteOptions opts;
    opts.discriminate_alpha = false;
    return std::make_unique<ReteNetwork>(catalog, opts);
  }
  if (name == "rete-dbms-nodisc") {
    ReteOptions opts;
    opts.dbms_backed = true;
    opts.discriminate_alpha = false;
    return std::make_unique<ReteNetwork>(catalog, opts);
  }
  if (name == "query-shard") {
    return std::make_unique<QueryMatcher>(catalog, ExecutorOptions{},
                                          DefaultSharding());
  }
  if (name == "rete-plan") {
    ReteOptions opts;
    opts.planner.enable = true;
    return std::make_unique<ReteNetwork>(catalog, opts);
  }
  if (name == "rete-dbms-plan") {
    ReteOptions opts;
    opts.dbms_backed = true;
    opts.planner.enable = true;
    return std::make_unique<ReteNetwork>(catalog, opts);
  }
  if (name == "query-plan") {
    PlannerOptions po;
    po.enable = true;
    return std::make_unique<QueryMatcher>(catalog, ExecutorOptions{},
                                          ShardingOptions{}, po);
  }
  std::fprintf(stderr, "unknown matcher %s\n", name.c_str());
  std::abort();
}

/// Preloads `n` random tuples per class.
inline void Preload(Setup& setup, size_t n, uint64_t seed = 99) {
  Rng rng(seed);
  for (size_t c = 0; c < setup.gen.spec().num_classes; ++c) {
    for (size_t i = 0; i < n; ++i) {
      Abort(setup.wm->Insert(setup.gen.ClassName(c),
                             setup.gen.RandomTuple(&rng)),
            "preload");
    }
  }
}

}  // namespace bench
}  // namespace prodb

#endif  // PRODB_BENCH_BENCH_UTIL_H_
