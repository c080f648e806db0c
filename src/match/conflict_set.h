#ifndef PRODB_MATCH_CONFLICT_SET_H_
#define PRODB_MATCH_CONFLICT_SET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/tuple.h"
#include "db/predicate.h"

namespace prodb {

/// One satisfied rule instance: a rule plus the WM tuples (one per
/// positive condition element) that satisfy its LHS. This is what Match
/// adds to the conflict set and what Act consumes (§2.1).
struct Instantiation {
  int rule_index = -1;          // index into the engine's rule vector
  std::string rule_name;
  std::vector<TupleId> tuple_ids;  // per CE; kNoTuple for negated CEs
  std::vector<Tuple> tuples;
  Binding binding;
  uint64_t recency = 0;         // stamp assigned on entry to the set

  static constexpr TupleId kNoTuple{UINT32_MAX, UINT32_MAX};

  /// Identity of an instantiation: rule + exact tuple combination.
  /// Bindings are derived, so they do not participate.
  std::string Key() const;
  std::string ToString() const;
};

/// The conflict set: satisfied instantiations keyed for O(log n) dedup
/// and removal. All matchers maintain one of these; the execution engine
/// drains it. Thread-safe (concurrent execution mutates it from worker
/// threads during maintenance).
class ConflictSet {
 public:
  /// Observes conflict-set maintenance: called once per effective add
  /// (`inst` non-null) and per effective remove (`inst` null; removes are
  /// identified by key). Invoked with the set's mutex held — the listener
  /// must not call back into the ConflictSet. The serving layer installs
  /// one around a batch's OnBatch to capture the batch's conflict-set
  /// delta for the wire; Take() (engine consumption) is deliberately not
  /// reported — it is execution, not maintenance.
  using DeltaListener =
      std::function<void(bool added, const std::string& key,
                         const Instantiation* inst)>;

  /// Installs (or, with nullptr, removes) the delta listener. At most one
  /// listener at a time; callers serialize install/OnBatch/remove.
  void SetDeltaListener(DeltaListener listener);

  /// Inserts if not already present; stamps recency. Returns true when
  /// the instantiation is new.
  bool Add(Instantiation inst);

  /// Removes the exact instantiation. Returns true if present.
  bool Remove(const Instantiation& inst);
  bool RemoveByKey(const std::string& key);

  /// Removes every instantiation of rule `rule_index` that references
  /// tuple `id` of relation handled by the caller. The caller supplies
  /// which CE positions could reference the tuple via `positions`
  /// (pass empty to check all positions). Returns the number removed.
  size_t RemoveReferencing(TupleId id, const std::vector<size_t>& positions);

  /// Removes every instantiation for which `pred` returns true; returns
  /// the number removed. Used on WM deletions (tuple ids are unique only
  /// within a relation, so callers match on rule/CE position too).
  size_t RemoveIf(const std::function<bool(const Instantiation&)>& pred);

  bool Contains(const std::string& key) const;
  bool empty() const;
  size_t size() const;

  /// Snapshot of current members (copies; the set may change under a
  /// concurrent engine).
  std::vector<Instantiation> Snapshot() const;

  /// Removes and returns an arbitrary member chosen by `chooser`, which
  /// receives the snapshot and returns an index (or -1 to decline).
  /// Returns false when the set is empty or the chooser declines.
  bool Take(const std::function<int(const std::vector<Instantiation>&)>&
                chooser,
            Instantiation* out);

  void Clear();

  /// Cumulative adds (tests/benchmarks: counts conflict-set churn).
  uint64_t total_added() const;

 private:
  /// Notifies the listener, if any. Caller holds mu_.
  void NotifyLocked(bool added, const std::string& key,
                    const Instantiation* inst) {
    if (listener_) listener_(added, key, inst);
  }

  mutable std::mutex mu_;
  std::map<std::string, Instantiation> items_;
  uint64_t next_recency_ = 1;
  uint64_t total_added_ = 0;
  DeltaListener listener_;
};

}  // namespace prodb

#endif  // PRODB_MATCH_CONFLICT_SET_H_
