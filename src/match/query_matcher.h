#ifndef PRODB_MATCH_QUERY_MATCHER_H_
#define PRODB_MATCH_QUERY_MATCHER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "db/executor.h"
#include "db/stats.h"
#include "match/cond_dispatch.h"
#include "match/matcher.h"
#include "plan/planner.h"

namespace prodb {

/// The "simplified algorithm" of §4.1: rule LHSs are queries, and every
/// WM change re-evaluates the affected LHSs against working memory.
///
/// No intermediate join results are stored — the space-optimal end of the
/// paper's space/time trade-off. On insertion of tuple W into class C the
/// matcher finds the condition elements over C (the COND-relation search)
/// and re-runs each affected rule's LHS join seeded with W; "the join
/// degenerates into a selection" when only two CEs exist, and multi-way
/// joins are re-computed — exactly the cost §4.2 sets out to remove.
class QueryMatcher : public Matcher {
 public:
  /// `sharding` (when enabled) splits a batch's seeded re-evaluations
  /// into `num_shards` tasks (seed i goes to task i % num_shards) and runs
  /// them on a thread pool; conflict-set commits stay in delta order, so
  /// results and recency stamps are byte-identical to the serial path. Evaluation is read-only against
  /// post-batch WM, which is what makes the fan-out safe.
  /// `planner` (when enabled) plans each rule's join sequence from
  /// catalog statistics at AddRule time and re-plans when cardinalities
  /// drift past planner.replan_drift; off, evaluation order is exactly
  /// LHS order.
  explicit QueryMatcher(Catalog* catalog, ExecutorOptions exec_options = {},
                        ShardingOptions sharding = {},
                        PlannerOptions planner = {})
      : catalog_(catalog),
        executor_(catalog, exec_options),
        planner_(&cat_stats_, planner),
        dispatch_(&stats_, exec_options.discriminate_dispatch),
        sharding_(sharding) {
    executor_.set_stats(&stats_);
    if (planner.enable) executor_.set_planner_stats(&cat_stats_);
    plans_.store(std::make_shared<const std::vector<JoinPlan>>());
    if (sharding_.enabled()) {
      shard_stats_.resize(sharding_.num_shards);
      size_t threads = sharding_.threads == 0 ? sharding_.num_shards
                                              : sharding_.threads;
      if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
    }
  }

  Status AddRule(const Rule& rule) override;
  /// Set-oriented re-evaluation: one conflict-set pass retires every
  /// instantiation invalidated by the batch's deletions, each inserted
  /// tuple seeds its candidate CEs' LHS joins, and each rule negatively
  /// dependent on a churned relation is re-evaluated once per batch
  /// instead of once per deleted tuple (§4.1.2's join re-computation,
  /// amortized over the whole ∆).
  Status OnBatch(const ChangeSet& batch) override;

  ConflictSet& conflict_set() override { return conflict_set_; }
  size_t AuxiliaryFootprintBytes() const override;
  const MatcherStats& stats() const override { return stats_; }
  std::string name() const override {
    std::string base = sharding_.enabled() ? "query-shard" : "query";
    return planner_.options().enable ? base + "-plan" : base;
  }

  /// Current per-rule plans (read-only snapshot; tests/benchmarks).
  std::shared_ptr<const std::vector<JoinPlan>> plans() const {
    return plans_.load();
  }
  const CatalogStats& catalog_stats() const { return cat_stats_; }
  const std::vector<Rule>& rules() const override {
    return dispatch_.rules();
  }
  std::vector<ShardStats> ShardStatsSnapshot() const override;

 private:
  using CeRef = CondDispatch::CeRef;

  /// Seeded evaluation of (rule, ce) with tuple (id, t) into *out —
  /// read-only against WM, so shards may run it concurrently; the caller
  /// commits the instantiations.
  Status SeedMatches(int rule_index, int ce, TupleId id, const Tuple& t,
                     std::vector<Instantiation>* out);
  /// Seeded evaluation + immediate conflict-set commit (the serial
  /// step 3).
  Status SeedAndAdd(int rule_index, int ce, TupleId id, const Tuple& t);
  /// Full re-evaluation of `rule_index` into *out (step-4 helper).
  Status EvaluateRule(int rule_index, std::vector<Instantiation>* out);

  /// Drift check + re-plan, rate-limited and serialized by replan_mu_
  /// (try_lock: concurrent callers skip rather than queue). New plans
  /// publish through the atomic shared_ptr, so readers mid-evaluation
  /// keep a consistent snapshot.
  void MaybeReplan(size_t deltas);

  Catalog* catalog_;
  Executor executor_;
  // Incremental catalog statistics over the rules' LHS relations,
  // registered at AddRule (single-threaded) and updated lock-free from
  // OnBatch — the Seal()-style publication contract documented on
  // CatalogStats.
  CatalogStats cat_stats_;
  JoinPlanner planner_;
  // Per-rule plans (index = rule). Copy-on-write: replans build a fresh
  // vector and swap; the concurrent engine's worker threads load
  // without a lock.
  std::atomic<std::shared_ptr<const std::vector<JoinPlan>>> plans_;
  std::mutex replan_mu_;
  std::atomic<uint64_t> deltas_since_plan_check_{0};
  // Rules, per-class CE buckets and the shared conflict-set passes.
  CondDispatch dispatch_;
  ShardingOptions sharding_;
  // Workers for the sharded OnBatch fan-out (absent when serial).
  std::unique_ptr<ThreadPool> pool_;
  // Guards shard_stats_ and the fan-out scratch; taken only when
  // sharding is enabled (the serial matcher is lock-free by design —
  // ConflictSet and the atomic counters carry their own safety).
  mutable std::mutex batch_mu_;
  std::vector<ShardStats> shard_stats_;
  ConflictSet conflict_set_;
  MatcherStats stats_;
};

}  // namespace prodb

#endif  // PRODB_MATCH_QUERY_MATCHER_H_
