#ifndef PRODB_MATCH_COND_DISPATCH_H_
#define PRODB_MATCH_COND_DISPATCH_H_

#include <atomic>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/change_set.h"
#include "common/status.h"
#include "db/catalog.h"
#include "lang/rule.h"
#include "match/conflict_set.h"
#include "match/discrimination.h"
#include "match/matcher.h"

namespace prodb {

/// The tuples a batch deletes: the first inline, the rest as a flat
/// id-sorted list, so a batch with at most one delete (every update
/// outside a transaction) allocates nothing.
class DeletedTuples {
 public:
  explicit DeletedTuples(const ChangeSet& batch);

  bool empty() const { return first_ == nullptr; }
  /// True when the batch deletes tuple `id` of relation `rel`.
  bool Contains(const std::string& rel, TupleId id) const;

 private:
  const Delta* first_ = nullptr;
  std::vector<std::pair<TupleId, const std::string*>> rest_;
};

/// The COND-relation search shared by the query matcher (§4.1) and the
/// matching-pattern matcher (§4.2): which condition elements range over a
/// delta's class, and the two conflict-set passes every batch starts
/// with. The matchers differ only in what they do with a positive
/// candidate (seeded re-evaluation vs. pattern support and counter
/// bumps) and with a deleted negated-CE witness.
///
/// Registration (AddRule) is single-threaded; afterwards every method is
/// safe to call from the concurrent engine's worker threads.
class CondDispatch {
 public:
  struct CeRef {
    int rule;
    int ce;
  };
  /// The positive or negated condition elements over one class; the
  /// discrimination index's entry ids are positions in it.
  using Bucket = std::vector<CeRef>;

  /// `stats` receives the dispatch counters. `discriminate` routes each
  /// lookup through the class's constant-test discrimination index;
  /// off, every CE of the class is a candidate (the ablation walk).
  CondDispatch(MatcherStats* stats, bool discriminate)
      : stats_(stats), discriminate_(discriminate) {}

  /// Registers `rule`'s condition elements under the next rule index.
  /// With `declare_indexes`, also declares a WM hash index on every
  /// attribute a CE tests for equality (§4.1.2), so seeded evaluation
  /// probes instead of scanning.
  Status AddRule(Catalog* catalog, const Rule& rule, bool declare_indexes);

  const std::vector<Rule>& rules() const { return rules_; }

  /// Fills *out with the positions (into the returned bucket) of the
  /// positive or negated CEs over `rel` that `t` can satisfy: the
  /// discrimination-index candidates (a superset of the CEs whose
  /// constant tests pass — skipping the rest is exact, constant tests
  /// are binding-independent), or every position without the index.
  /// Returns nullptr, leaving *out empty, when no CE of that sign ranges
  /// over `rel`. Updates the dispatch counters.
  const Bucket* Candidates(bool negated, const std::string& rel,
                           const Tuple& t, std::vector<uint32_t>* out);

  /// OnBatch steps 1–2: one conflict-set pass retiring every
  /// instantiation that uses a deleted tuple at a positive CE, then one
  /// retiring those an inserted tuple blocks through a negated CE,
  /// restricted to the (delta, CE) pairs the dispatch deems able to
  /// interact. Additions after these passes evaluate against post-batch
  /// WM, so a blocker inserted anywhere in the batch censors them
  /// already. `cands` is caller scratch.
  void RetireInvalidated(const ChangeSet& batch, const DeletedTuples& deleted,
                         ConflictSet* conflict_set,
                         std::vector<uint32_t>* cands);

  /// Bytes held by the per-class CE buckets.
  size_t FootprintBytes() const;

 private:
  MatcherStats* stats_;
  bool discriminate_;
  std::vector<Rule> rules_;
  // Class name -> positive / negated condition elements over it.
  std::unordered_map<std::string, Bucket> positive_by_class_;
  std::unordered_map<std::string, Bucket> negative_by_class_;
  // Class name -> discrimination index over the bucket's CE constant
  // tests (entry id = position in the bucket).
  std::unordered_map<std::string, DiscriminationIndex> positive_disc_;
  std::unordered_map<std::string, DiscriminationIndex> negative_disc_;
  // reserve() hint: previous delta's candidate count (atomic — the
  // concurrent engine dispatches from worker threads).
  std::atomic<uint32_t> last_candidates_{0};
};

}  // namespace prodb

#endif  // PRODB_MATCH_COND_DISPATCH_H_
