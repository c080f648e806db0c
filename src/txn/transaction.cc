#include "txn/transaction.h"

namespace prodb {

Status Transaction::ReadLock(const std::string& rel, TupleId id) {
  PRODB_RETURN_IF_ERROR(locks_->Acquire(id_, ResourceId::Rel(rel),
                                        LockMode::kIS));
  return locks_->Acquire(id_, ResourceId::Tup(rel, id), LockMode::kS);
}

Status Transaction::ReadLockRelation(const std::string& rel) {
  return locks_->Acquire(id_, ResourceId::Rel(rel), LockMode::kS);
}

Status Transaction::WriteLock(const std::string& rel, TupleId id) {
  PRODB_RETURN_IF_ERROR(locks_->Acquire(id_, ResourceId::Rel(rel),
                                        LockMode::kIX));
  return locks_->Acquire(id_, ResourceId::Tup(rel, id), LockMode::kX);
}

Status Transaction::WriteIntent(const std::string& rel) {
  return locks_->Acquire(id_, ResourceId::Rel(rel), LockMode::kIX);
}

Status Transaction::ApplyInsert(const std::string& rel, const Tuple& t,
                                TupleId* id) {
  Relation* r = catalog_->Get(rel);
  if (r == nullptr) return Status::NotFound("relation " + rel);
  PRODB_RETURN_IF_ERROR(WriteIntent(rel));
  // Attribute the WAL records this mutation generates to us; restart
  // recovery redoes them only if our commit record made it to disk.
  WalTxnScope wal_scope(id_);
  return r->Insert(t, id);
}

Status Transaction::ApplyDelete(const std::string& rel, TupleId id,
                                Tuple* old) {
  Relation* r = catalog_->Get(rel);
  if (r == nullptr) return Status::NotFound("relation " + rel);
  PRODB_RETURN_IF_ERROR(WriteLock(rel, id));
  WalTxnScope wal_scope(id_);
  PRODB_RETURN_IF_ERROR(r->Get(id, old));
  return r->Delete(id);
}

Status Transaction::Insert(const std::string& rel, const Tuple& t,
                           TupleId* id) {
  PRODB_RETURN_IF_ERROR(ApplyInsert(rel, t, id));
  changes_.AddInsert(rel, t, *id);
  // Lock the new tuple so no reader observes it before we commit.
  return locks_->Acquire(id_, ResourceId::Tup(rel, *id), LockMode::kX);
}

Status Transaction::Delete(const std::string& rel, TupleId id) {
  Tuple old;
  PRODB_RETURN_IF_ERROR(ApplyDelete(rel, id, &old));
  changes_.AddDelete(rel, id, old);
  return Status::OK();
}

Status Transaction::Update(const std::string& rel, TupleId id, const Tuple& t,
                           TupleId* new_id) {
  Tuple old;
  PRODB_RETURN_IF_ERROR(ApplyDelete(rel, id, &old));
  Status st = ApplyInsert(rel, t, new_id);
  if (!st.ok()) {
    // The delete half is applied and must stay undoable.
    changes_.AddDelete(rel, id, old);
    return st;
  }
  changes_.AddModify(rel, id, old, t, *new_id);
  return locks_->Acquire(id_, ResourceId::Tup(rel, *new_id), LockMode::kX);
}

Status Transaction::Read(const std::string& rel, TupleId id, Tuple* out) {
  Relation* r = catalog_->Get(rel);
  if (r == nullptr) return Status::NotFound("relation " + rel);
  PRODB_RETURN_IF_ERROR(ReadLock(rel, id));
  return r->Get(id, out);
}

std::unique_ptr<Transaction> TxnManager::Begin() {
  // Ids must stay above anything recorded in a recovered log: a reused id
  // would inherit the dead transaction's commit record at the next
  // restart and its losers would be redone as winners.
  uint64_t floor = catalog_->recovered_max_txn_id() + 1;
  uint64_t cur = next_id_.load();
  while (cur < floor && !next_id_.compare_exchange_weak(cur, floor)) {
  }
  return std::make_unique<Transaction>(next_id_.fetch_add(1), catalog_,
                                       locks_);
}

Status TxnManager::Commit(Transaction* txn) {
  if (LogManager* wal = catalog_->wal()) {
    // Force the log through the commit record: group commit — this one
    // flush also hardens whatever other transactions buffered since the
    // last flush. A flush failure leaves the transaction active (not
    // committed, locks held) so the caller can abort it like any other
    // failed operation.
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = txn->id();
    PRODB_RETURN_IF_ERROR(wal->FlushTo(wal->Append(rec)));
  }
  txn->state_ = TxnState::kCommitted;
  locks_->ReleaseAll(txn->id());
  return Status::OK();
}

Status TxnManager::Abort(Transaction* txn, Status cause,
                         const MaintainFn& maintain) {
  const ChangeSet inverse = txn->changes_.Inverse();
  Status first_error;
  size_t failed = 0;
  {
    // Undo records stay attributed to this (loser) transaction: restart
    // recovery skips them along with the forward records, since no
    // commit record will ever exist for this id.
    WalTxnScope wal_scope(txn->id());
    for (const Delta& d : inverse) {
      Relation* r = catalog_->Get(d.relation);
      Status st = r == nullptr ? Status::NotFound("relation " + d.relation)
                  : d.is_insert() ? r->Restore(d.id, d.tuple)
                                  : r->Delete(d.id);
      if (!st.ok()) {
        ++failed;
        if (first_error.ok()) first_error = st;
      }
    }
  }
  Status result = first_error;
  if (failed > 1) {
    result = Status::Internal("rollback incomplete: " +
                              std::to_string(failed) + " of " +
                              std::to_string(inverse.size()) +
                              " undo steps failed; first: " +
                              first_error.ToString());
  }
  // Maintenance over the inverse runs before the locks release, so no
  // other transaction sees the relations and the matcher disagree.
  if (maintain && !inverse.empty()) {
    Status st = maintain(inverse);
    if (result.ok()) result = st;
  }
  txn->changes_.clear();
  txn->state_ = TxnState::kAborted;
  if (LogManager* wal = catalog_->wal()) {
    // The abort record is hygiene (absence of a commit already dooms the
    // transaction at restart); no flush needed.
    LogRecord rec;
    rec.type = LogRecordType::kAbort;
    rec.txn_id = txn->id();
    wal->Append(rec);
  }
  locks_->ReleaseAll(txn->id());
  return result.ok() ? cause : result;
}

}  // namespace prodb
