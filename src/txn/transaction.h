#ifndef PRODB_TXN_TRANSACTION_H_
#define PRODB_TXN_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/change_set.h"
#include "common/status.h"
#include "common/tuple.h"
#include "db/catalog.h"
#include "txn/lock_manager.h"

namespace prodb {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// A transaction: lock scope + change log over catalog relations.
///
/// §5 treats every selected production (matching pattern plus the WM
/// tuples it selects) as a transaction. The RHS actions run through
/// Transaction::{Insert,Delete,Update} so that (a) writes take X locks
/// first, (b) the writes are recorded as one ChangeSet — the ∆ins/∆del
/// that COND maintenance consumes before commit and whose inverse
/// TxnManager::Abort applies — and (c) lock release waits for the
/// TxnManager (strict 2PL with the paper's "commit after maintenance"
/// rule).
class Transaction {
 public:
  Transaction(uint64_t id, Catalog* catalog, LockManager* locks)
      : id_(id), catalog_(catalog), locks_(locks) {}

  uint64_t id() const { return id_; }
  TxnState state() const { return state_; }

  /// --- Locking ---------------------------------------------------------
  /// Tuple read lock (takes relation IS first).
  Status ReadLock(const std::string& rel, TupleId id);
  /// Whole-relation read lock — negative dependence (§5.2).
  Status ReadLockRelation(const std::string& rel);
  /// Tuple write lock (takes relation IX first).
  Status WriteLock(const std::string& rel, TupleId id);
  /// Relation IX lock, needed before inserting new tuples.
  Status WriteIntent(const std::string& rel);

  /// --- Logged mutations -------------------------------------------------
  /// Each takes the required lock, applies the change and records it in
  /// changes(): Insert as an insert, Delete as a delete carrying the old
  /// tuple, Update as a cross-linked modify pair (§3.1: a modification is
  /// a deletion followed by an insertion, seen as one WM event).
  Status Insert(const std::string& rel, const Tuple& t, TupleId* id);
  Status Delete(const std::string& rel, TupleId id);
  Status Update(const std::string& rel, TupleId id, const Tuple& t,
                TupleId* new_id);

  /// Reads a tuple under a read lock.
  Status Read(const std::string& rel, TupleId id, Tuple* out);

  /// The transaction's writes in application order, with assigned ids.
  /// Emptied by an abort.
  const ChangeSet& changes() const { return changes_; }

 private:
  friend class TxnManager;

  /// Apply one half of a mutation without recording it.
  Status ApplyInsert(const std::string& rel, const Tuple& t, TupleId* id);
  Status ApplyDelete(const std::string& rel, TupleId id, Tuple* old);

  uint64_t id_;
  Catalog* catalog_;
  LockManager* locks_;
  TxnState state_ = TxnState::kActive;
  ChangeSet changes_;
};

/// Runs COND maintenance over a ChangeSet (Matcher::OnBatch, possibly
/// bracketed by its caller's own serialization).
using MaintainFn = std::function<Status(const ChangeSet&)>;

/// Issues transaction ids and ends transactions: Commit and Abort are
/// the only places locks and page holds are released.
class TxnManager {
 public:
  TxnManager(Catalog* catalog, LockManager* locks)
      : catalog_(catalog), locks_(locks) {}

  std::unique_ptr<Transaction> Begin();

  /// Commit: force the WAL through a commit record (when the catalog has
  /// one), mark committed and release locks. The caller must have
  /// finished all maintenance before calling (the §5.2 commit point).
  /// On a log-flush failure the transaction is left active with locks
  /// held; the caller should abort it.
  Status Commit(Transaction* txn);

  /// Abort: the single compensation path. Applies the inverse of
  /// changes() to the relations — undone deletes come back under their
  /// original ids (Relation::Restore), since conflict-set entries made
  /// before the transaction still reference them — then, when
  /// `maintain` is given, hands that inverse to it (for a transaction
  /// whose ∆ the matcher already saw), appends the abort record, and
  /// releases the locks. Best-effort: every undo step is
  /// attempted and the transaction always ends kAborted with its locks
  /// released. Returns what could not be undone (or the inverse's
  /// maintenance error) when anything failed, else `cause` — the failure
  /// that made the caller abort.
  Status Abort(Transaction* txn, Status cause = Status::OK(),
               const MaintainFn& maintain = nullptr);

  LockManager* lock_manager() { return locks_; }
  uint64_t started() const { return next_id_.load(); }

 private:
  Catalog* catalog_;
  LockManager* locks_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace prodb

#endif  // PRODB_TXN_TRANSACTION_H_
