#ifndef PRODB_RETE_NETWORK_H_
#define PRODB_RETE_NETWORK_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/stats.h"
#include "match/discrimination.h"
#include "match/matcher.h"
#include "plan/planner.h"
#include "rete/token_store.h"

namespace prodb {

/// Configuration of a Rete network build.
struct ReteOptions {
  /// Store LEFT/RIGHT two-input-node memories in catalog relations (the
  /// straightforward DBMS implementation of §3.2) instead of process
  /// memory (the OPS5 situation of §3.1).
  bool dbms_backed = false;
  /// Share one-input (alpha) test chains across rules with identical
  /// class + constant tests — the multiple-query-optimization idea the
  /// paper cites ([SELL86]); toggled off for the ablation benchmark.
  bool share_alpha = true;
  /// Share two-input join-chain *prefixes* across rules whose leading
  /// positive condition elements are structurally identical — the
  /// "global compiled plan that avoids multiple relation accesses" the
  /// paper asks multiple-query processing to provide (§3.2, [SELL88],
  /// §6 future work). Rules must be added before WM activity for shared
  /// chains to be populated consistently.
  bool share_beta = true;
  /// Storage backend for LEFT/RIGHT relations when dbms_backed.
  StorageKind memory_storage = StorageKind::kMemory;
  /// Cost-based beta-chain ordering from incremental catalog statistics:
  /// each rule's positive CEs compile in the planner's order instead of
  /// LHS order — lifting the "fixed access plan" limitation the paper
  /// pins on Rete (§3.2). Cardinality drift past planner.replan_drift
  /// triggers a rebuild of the join network under fresh plans, with token
  /// memories reseeded from WM (conflict set untouched). Off preserves
  /// the syntactic textual order exactly.
  PlannerOptions planner;
  /// Maintain equality-join-key indexes on LEFT/RIGHT memories and probe
  /// them instead of scanning — §4.1.2's indexing idea applied to the
  /// token memories. Off reproduces the "access of the opposite memory"
  /// full scan the paper complains about (§3.2); the ablation benchmark
  /// compares both.
  bool index_memories = true;
  /// Dispatch each WM delta through a per-class constant-test
  /// discrimination index (eq-hash / interval-tree / residual tiers, §2.3
  /// / [STON86a]) instead of testing it against every alpha node of its
  /// class — the remaining linear walk on the §3.2 hot path. Off restores
  /// the full per-class walk for the ablation benchmarks.
  bool discriminate_alpha = true;
};

/// Structural counters (Figure 1/3 analyses, E1).
struct ReteTopology {
  size_t alpha_nodes = 0;
  size_t beta_nodes = 0;      // two-input join nodes
  size_t negative_nodes = 0;
  size_t production_nodes = 0;
};

/// The Rete match network of Forgy's OPS5 (§3), as a Matcher.
///
/// Rules compile into a discrimination network: a root that dispatches on
/// class, one-input nodes checking `attribute op constant`, and a
/// left-deep chain of two-input nodes joining condition elements in LHS
/// order — the "fixed access plan" the paper criticizes (§3.2). Tokens
/// (tuples tagged +/−) enter at the root and propagate sequentially;
/// two-input nodes store unmatched arrivals in their LEFT/RIGHT memories
/// awaiting future partners; tokens reaching a production node update the
/// conflict set. Negated CEs become negative nodes that count consistent
/// right-side matches and pass left tokens only while the count is zero.
class ReteNetwork : public Matcher {
 public:
  /// `catalog` supplies the WM relations and, when dbms_backed, hosts the
  /// LEFT/RIGHT memory relations.
  explicit ReteNetwork(Catalog* catalog, ReteOptions options = {});
  ~ReteNetwork() override;

  Status AddRule(const Rule& rule) override;
  /// Set-oriented propagation: groups same-relation deltas (preserving
  /// their order) and pushes each group through the alpha network in one
  /// pass, so two-input nodes scan their LEFT memories once per group
  /// instead of once per tuple — the set-at-a-time access the DBMS
  /// setting exists to provide (§3.2).
  Status OnBatch(const ChangeSet& batch) override;

  ConflictSet& conflict_set() override { return conflict_set_; }
  size_t AuxiliaryFootprintBytes() const override;
  const MatcherStats& stats() const override { return stats_; }
  std::string name() const override {
    std::string base = options_.dbms_backed ? "rete-dbms" : "rete";
    return options_.planner.enable ? base + "-plan" : base;
  }
  const std::vector<Rule>& rules() const override { return rules_; }

  ReteTopology Topology() const;
  /// Total tokens resident in LEFT+RIGHT memories.
  size_t TokenCount() const;

  /// Current per-rule plans (index = rule; tests/benchmarks).
  const std::vector<JoinPlan>& plans() const { return plans_; }
  const CatalogStats& catalog_stats() const { return cat_stats_; }
  /// Re-plans every rule against refreshed statistics immediately and
  /// rebuilds + reseeds the join network if any order changed
  /// (tests/benchmarks; the production trigger is cardinality drift,
  /// checked after each batch).
  Status ForceReplan();

 private:
  struct AlphaNode;
  struct JoinNode;

  /// One signed right-input arrival, batched per group.
  struct RightActivation {
    TupleId id;
    const Tuple* tuple;
    bool positive;
  };

  /// Compiles `rule` into the network under its current plan.
  Status BuildRule(const Rule& rule, int rule_index);

  /// Recomputes the binding of a token over join positions [0, upto) of
  /// `rule` (needed for relation-backed stores, which persist tuples but
  /// not bindings).
  bool RecomputeBinding(int rule, ReteToken* token, size_t upto) const;

  /// Derives the key for probing `node`'s RIGHT memory from a left-side
  /// token (values of the binder columns). False when a column is not
  /// derivable — the caller falls back to a full scan.
  static bool ProbeKeyFromToken(const JoinNode& node, const ReteToken& token,
                                std::vector<Value>* key);
  /// Derives the key for probing `node`'s LEFT memory from a right-input
  /// WM tuple (values of the CE's own equality attributes).
  static bool ProbeKeyFromTuple(const JoinNode& node, const Tuple& tuple,
                                std::vector<Value>* key);

  /// Token arrives on the left input of `node` with the given sign.
  Status ActivateLeft(JoinNode* node, const ReteToken& token, bool positive);
  /// Forwards a token past `node`: fires its productions, then feeds its
  /// children (several when chain prefixes are shared).
  Status Descend(JoinNode* node, const ReteToken& token, bool positive);
  /// A group of WM tuples arrives on the right input of `node` as one
  /// atomic activation: every store mutation is applied, then the LEFT
  /// memory is scanned once, pairing each stored token with every
  /// activation in delta order.
  Status ActivateRightBatch(JoinNode* node,
                            const std::vector<RightActivation>& acts);
  /// Feeds a group of same-relation deltas through the alpha network.
  Status PropagateGroup(const std::string& rel,
                        const std::vector<RightActivation>& group);
  /// Token passed all joins of a rule: update the conflict set
  /// (suppressed during reseeds — the set is already correct).
  Status Produce(int rule, const ReteToken& token, bool positive);

  /// Drift check + re-plan, rate-limited to every kReplanCheckInterval
  /// deltas. Called at the end of OnBatch under batch_mu_, when WM
  /// relations and token memories agree.
  Status MaybeReplan(size_t deltas);
  /// Re-plans all rules against fresh stats; rebuilds when an order
  /// changed. Observes est-vs-actual accuracy of the outgoing plans.
  Status ReplanAll();
  /// Tears down the compiled network (dropping DBMS-backed token
  /// relations), recompiles every rule under plans_, and replays WM
  /// through the fresh network with Produce suppressed.
  Status RebuildAndReseed();
  Status ReseedFromRelations();

  Catalog* catalog_;
  ReteOptions options_;
  // Incremental catalog statistics over the rules' LHS relations,
  // registered at AddRule (single-threaded per the Matcher contract) and
  // updated from the propagation entry points under batch_mu_.
  CatalogStats cat_stats_;
  JoinPlanner planner_;
  std::vector<Rule> rules_;
  // Per rule, the current JoinPlan (order + estimates + drift snapshot).
  std::vector<JoinPlan> plans_;
  // Per rule, the positive-then-negated CE order the join chain uses
  // (== plans_[i].order; kept separate for hot-path access).
  std::vector<std::vector<size_t>> join_order_;
  // Deltas since the last drift check (guarded by batch_mu_).
  uint64_t deltas_since_plan_check_ = 0;
  // True while ReseedFromRelations replays WM: Produce becomes a no-op.
  bool reseeding_ = false;
  // The compiled network: alpha nodes and their per-class dispatch,
  // join nodes with their token memories, and the sharing maps.
  std::vector<std::unique_ptr<AlphaNode>> alpha_nodes_;
  std::vector<std::unique_ptr<JoinNode>> join_nodes_;
  // Class name -> alpha nodes testing that class.
  std::unordered_map<std::string, std::vector<AlphaNode*>> alpha_by_class_;
  // Class name -> discrimination index over that class's alpha nodes
  // (entry id = position in the alpha_by_class_ vector). Shared alpha
  // nodes are indexed once, when first created.
  std::unordered_map<std::string, DiscriminationIndex> alpha_disc_;
  // Alpha sharing: signature -> node.
  std::unordered_map<std::string, AlphaNode*> alpha_index_;
  // Beta sharing: join-chain prefix signature -> last node of the chain.
  std::unordered_map<std::string, JoinNode*> beta_index_;
  // Size of the previous delta's candidate set — reserve() hint for the
  // dispatch scratch vector.
  uint32_t last_candidates_ = 0;
  // Serializes matcher maintenance: the concurrent engine (§5) commits
  // batches from worker threads with no external lock, and the token
  // memories / alpha scratch state are single-writer by design.
  mutable std::mutex batch_mu_;
  ConflictSet conflict_set_;
  MatcherStats stats_;
  size_t store_counter_ = 0;
};

}  // namespace prodb

#endif  // PRODB_RETE_NETWORK_H_
