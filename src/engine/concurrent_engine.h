#ifndef PRODB_ENGINE_CONCURRENT_ENGINE_H_
#define PRODB_ENGINE_CONCURRENT_ENGINE_H_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "engine/actions.h"
#include "engine/strategy.h"
#include "engine/working_memory.h"
#include "txn/transaction.h"

namespace prodb {

struct ConcurrentEngineOptions {
  size_t workers = 4;
  StrategyKind strategy = StrategyKind::kFifo;
  uint64_t seed = 42;
  size_t max_firings = 1u << 20;
  /// Retries before an instantiation repeatedly chosen as deadlock
  /// victim is parked back for another worker.
  size_t max_retries = 64;
};

struct ConcurrentRunResult {
  size_t firings = 0;
  size_t stale_skipped = 0;
  size_t deadlock_aborts = 0;
  bool halted = false;
  bool exhausted = false;
};

/// Concurrent transactional execution of the conflict set (§5).
///
/// Each instantiation runs as a transaction on worker threads:
///   1. acquire read locks on the matched WM tuples; relation-level read
///      locks for negated CEs (negative dependence, §5.2);
///   2. validate the instantiation against current WM (a concurrently
///      committed transaction may have deleted or changed its tuples —
///      the ∆del of §5.2); stale instantiations are discarded;
///   3. execute the RHS through Transaction::{Insert,Delete,Update},
///      which take write locks and record the transaction's whole
///      ∆ins/∆del as a ChangeSet (relations mutate eagerly, the matcher
///      sees nothing yet);
///   4. hand that ChangeSet to the matcher in one OnBatch, then commit and
///      release locks — the paper's rule that "a production should not
///      commit its RHS actions and release its locks until the triggered
///      maintenance process updates the affected COND relations as well"
///      is structural: maintenance sits between the last RHS action and
///      the commit point, and sees the entire ∆ at once;
///   5. on any failure, TxnManager::Abort — the one compensation path —
///      applies the inverse ChangeSet to the relations (restoring
///      original tuple ids) and releases. Before the commit point the
///      matcher was never notified, so compensation is purely relational;
///      after a failed commit the inverse also goes through OnBatch. The
///      instantiation is requeued; a deadlock victim is retried.
///
/// The resulting schedule is serializable by strict 2PL; tests verify
/// that the committed firing sequence replayed serially reproduces the
/// same final WM state.
class ConcurrentEngine {
 public:
  ConcurrentEngine(Catalog* catalog, Matcher* matcher, LockManager* locks,
                   ConcurrentEngineOptions options = {});

  /// Loads a WM element outside any transaction (initial state).
  Status Insert(const std::string& cls, const Tuple& t,
                TupleId* id = nullptr) {
    return wm_.Insert(cls, t, id);
  }

  /// Drains the conflict set to quiescence with `workers` threads.
  Status Run(ConcurrentRunResult* result);

  FunctionRegistry& functions() { return functions_; }
  WorkingMemory& working_memory() { return wm_; }

  /// The transaction manager the engine's instantiations run under.
  /// Exposed so the serving layer can map client sessions onto the same
  /// transaction machinery (2PL locks + WAL commit records) the engine
  /// uses — server batches and engine firings interleave serializably.
  TxnManager& txn_manager() { return txn_manager_; }

  /// Rule names in commit order (the equivalent serial schedule).
  std::vector<std::string> commit_log() const;

  /// Steps 4–5 for a transaction whose writes are done, shared by engine
  /// firings and server batches: `maintain` runs COND maintenance over
  /// txn->changes(), then the transaction commits. A maintenance failure
  /// aborts; a commit failure aborts and passes the inverse ∆ through
  /// `maintain` before the locks release. Either way the failure returns
  /// as TxnManager::Abort reports it.
  Status CommitAfterMaintenance(Transaction* txn, const MaintainFn& maintain);

 private:
  /// Runs one instantiation as a transaction. Outcomes:
  ///   *fired    — committed;
  ///   *stale    — validation failed, discarded;
  ///   *halted   — a (halt) action committed;
  /// Status::Deadlock — aborted and compensated; caller retries;
  /// any other error — aborted and compensated; the run stops.
  Status RunInstantiation(const Instantiation& inst, bool* fired,
                          bool* stale, bool* halted);

  /// Steps 1–3 inside `txn`. Sets *stale when validation fails and *halt
  /// when the RHS contains (halt).
  Status Execute(const Instantiation& inst, Transaction* txn, bool* stale,
                 bool* halt);

  Status Worker(ConcurrentRunResult* result);

  WorkingMemory wm_;
  Matcher* matcher_;
  TxnManager txn_manager_;
  ConcurrentEngineOptions options_;
  FunctionRegistry functions_;

  mutable std::mutex mu_;
  std::vector<std::string> commit_log_;
  std::atomic<size_t> firings_{0};
  std::atomic<bool> halted_{false};
  std::atomic<int> active_workers_{0};
};

}  // namespace prodb

#endif  // PRODB_ENGINE_CONCURRENT_ENGINE_H_
