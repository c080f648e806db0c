#ifndef PRODB_MATCH_MATCHER_H_
#define PRODB_MATCH_MATCHER_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/change_set.h"
#include "common/status.h"
#include "db/catalog.h"
#include "lang/rule.h"
#include "match/conflict_set.h"
#include "match/sharding.h"

namespace prodb {

/// Statistics every matcher reports, used by E2/E4 benchmarks.
/// Counters are atomics because the concurrent execution engine (§5)
/// drives matcher maintenance from multiple worker transactions.
struct MatcherStats {
  std::atomic<uint64_t> tuples_examined{0};  // WM/COND tuples touched
  std::atomic<uint64_t> patterns_stored{0};  // tokens / patterns resident
  std::atomic<uint64_t> propagations{0};     // propagation steps
  std::atomic<uint64_t> batches{0};          // OnBatch invocations
  // Memory-probe accounting (§3.2/§4.1.2): a probe is one keyed lookup
  // into a token memory or WM relation; visited counters split tuples
  // touched through a probe from tuples touched by a full scan, so
  // benchmarks can assert the index path is taken rather than inferring
  // it from wall-clock.
  std::atomic<uint64_t> index_probes{0};
  std::atomic<uint64_t> probe_tokens_visited{0};
  std::atomic<uint64_t> scan_tokens_visited{0};
  // Dispatch accounting (§2.3 / [STON86a] predicate indexing): one
  // alpha_tests_evaluated per full constant-test evaluation of an alpha
  // node / condition element against a delta tuple; candidates_visited
  // counts the entries the discrimination index nominated (equal to
  // alpha_tests_evaluated on the indexed path, the full per-class count
  // on the linear-scan path — the ratio is the index's win).
  std::atomic<uint64_t> alpha_tests_evaluated{0};
  std::atomic<uint64_t> candidates_visited{0};
  // Join-planning accounting (src/plan): plans_built counts orders
  // chosen at rule registration, replans counts drift-triggered
  // re-plans. est_card_err_millinats accumulates the estimator's
  // running log-ratio error |ln((1+actual)/(1+estimated))| in
  // milli-nats over est_card_samples observations, so estimator
  // quality is observable rather than guessed (mean error =
  // err_millinats / 1000 / samples; 0 = perfect, ln 2 ≈ 0.69 = off by
  // 2x on average).
  std::atomic<uint64_t> plans_built{0};
  std::atomic<uint64_t> replans{0};
  std::atomic<uint64_t> est_card_err_millinats{0};
  std::atomic<uint64_t> est_card_samples{0};

  /// Folds one (estimated, actual) cardinality observation into the
  /// running log-ratio error.
  void ObserveCardEstimate(double estimated, double actual);

  MatcherStats() = default;
  MatcherStats(const MatcherStats& o)
      : tuples_examined(o.tuples_examined.load()),
        patterns_stored(o.patterns_stored.load()),
        propagations(o.propagations.load()),
        batches(o.batches.load()),
        index_probes(o.index_probes.load()),
        probe_tokens_visited(o.probe_tokens_visited.load()),
        scan_tokens_visited(o.scan_tokens_visited.load()),
        alpha_tests_evaluated(o.alpha_tests_evaluated.load()),
        candidates_visited(o.candidates_visited.load()),
        plans_built(o.plans_built.load()),
        replans(o.replans.load()),
        est_card_err_millinats(o.est_card_err_millinats.load()),
        est_card_samples(o.est_card_samples.load()) {}
};

/// Interface shared by the four matching architectures the paper
/// compares: in-memory Rete (§3.1), DBMS-backed Rete (§3.2), the query
/// ("simplified") matcher (§4.1), and the matching-pattern matcher
/// (§4.2). The execution engine mutates WM relations and notifies the
/// matcher, which maintains the conflict set incrementally.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Registers a rule. Must be called before any WM activity; matchers
  /// may precompute networks or COND relations here.
  virtual Status AddRule(const Rule& rule) = 0;

  /// The one maintenance entry point: a whole set of WM changes — a
  /// transaction's ∆ins/∆del (§5.2), a single out-of-batch update, or a
  /// bulk load. Relations already reflect the entire batch when this is
  /// called; the matcher brings its conflict set up to date with it.
  virtual Status OnBatch(const ChangeSet& batch) = 0;

  virtual ConflictSet& conflict_set() = 0;

  /// Bytes of auxiliary matcher state (Rete memories, COND relations,
  /// matching patterns) — the space axis of §4.2.3.
  virtual size_t AuxiliaryFootprintBytes() const = 0;

  virtual const MatcherStats& stats() const = 0;
  virtual std::string name() const = 0;

  /// Per-shard counters of the sharded query matcher (empty for every
  /// serial configuration). Index = shard.
  virtual std::vector<ShardStats> ShardStatsSnapshot() const { return {}; }

  /// Registered rules (shared helper for engines).
  virtual const std::vector<Rule>& rules() const = 0;
};

/// Materializes instantiations from a fully bound rule: per positive CE,
/// selects the WM tuples consistent with the binding (a selection, not a
/// join — §5.1: "attribute values in each matching pattern provide the
/// selection criterion"), then forms all combinations; negated CEs are
/// verified absent. Appends to *out.
Status MaterializeInstantiations(Catalog* catalog, const Rule& rule,
                                 int rule_index, const Binding& binding,
                                 std::vector<Instantiation>* out,
                                 MatcherStats* stats = nullptr);

}  // namespace prodb

#endif  // PRODB_MATCH_MATCHER_H_
