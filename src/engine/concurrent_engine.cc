#include "engine/concurrent_engine.h"

#include <chrono>
#include <thread>

#include "common/rng.h"
#include "db/executor.h"

namespace prodb {

ConcurrentEngine::ConcurrentEngine(Catalog* catalog, Matcher* matcher,
                                   LockManager* locks,
                                   ConcurrentEngineOptions options)
    : wm_(catalog, matcher),
      matcher_(matcher),
      txn_manager_(catalog, locks),
      options_(options) {}

Status ConcurrentEngine::RunInstantiation(const Instantiation& inst,
                                          bool* fired, bool* stale,
                                          bool* halted) {
  *fired = false;
  *stale = false;
  auto txn = txn_manager_.Begin();
  bool halt_requested = false;
  Status st = Execute(inst, txn.get(), stale, &halt_requested);
  if (!st.ok() || *stale) {
    // The matcher has seen nothing of this transaction yet, so the
    // abort is purely relational.
    return txn_manager_.Abort(txn.get(), st);
  }
  PRODB_RETURN_IF_ERROR(CommitAfterMaintenance(
      txn.get(),
      [this](const ChangeSet& delta) { return matcher_->OnBatch(delta); }));
  {
    std::lock_guard<std::mutex> lock(mu_);
    commit_log_.push_back(inst.rule_name);
  }
  *fired = true;
  if (halt_requested) *halted = true;
  return Status::OK();
}

Status ConcurrentEngine::Execute(const Instantiation& inst, Transaction* txn,
                                 bool* stale, bool* halt) {
  const Rule& rule =
      matcher_->rules()[static_cast<size_t>(inst.rule_index)];

  // 1. Read locks: tuple-level for positive CEs, relation-level for
  //    negated CEs (negative dependence must block inserters, §5.2).
  for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
    const ConditionSpec& cond = rule.lhs.conditions[ce];
    PRODB_RETURN_IF_ERROR(
        cond.negated ? txn->ReadLockRelation(cond.relation)
                     : txn->ReadLock(cond.relation, inst.tuple_ids[ce]));
  }

  // 2. Validate against current WM: tuples must still exist unchanged,
  //    negated CEs must still have no witness.
  for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
    const ConditionSpec& cond = rule.lhs.conditions[ce];
    Relation* rel = wm_.catalog()->Get(cond.relation);
    if (rel == nullptr) {
      *stale = true;
      return Status::OK();
    }
    if (cond.negated) {
      bool exists = false;
      PRODB_RETURN_IF_ERROR(rel->Scan([&](TupleId, const Tuple& t) {
        if (!exists) {
          Binding b = inst.binding;
          if (TupleConsistent(cond, t, &b)) exists = true;
        }
        return Status::OK();
      }));
      if (exists) {
        *stale = true;
        return Status::OK();
      }
    } else {
      Tuple t;
      Status st = rel->Get(inst.tuple_ids[ce], &t);
      if (!st.ok() || t != inst.tuples[ce]) {
        *stale = true;
        return Status::OK();
      }
    }
  }

  // 3. RHS actions under write locks; the transaction records its ∆.
  std::vector<TupleId> current = inst.tuple_ids;
  std::vector<Tuple> current_tuples = inst.tuples;
  for (const CompiledAction& action : rule.actions) {
    switch (action.kind) {
      case ActionKind::kMake: {
        TupleId id;
        PRODB_RETURN_IF_ERROR(txn->Insert(
            action.target, BuildMakeTuple(action, inst.binding), &id));
        break;
      }
      case ActionKind::kRemove: {
        size_t ce = static_cast<size_t>(action.ce_index);
        PRODB_RETURN_IF_ERROR(
            txn->Delete(rule.lhs.conditions[ce].relation, current[ce]));
        break;
      }
      case ActionKind::kModify: {
        size_t ce = static_cast<size_t>(action.ce_index);
        Tuple next =
            BuildModifyTuple(action, current_tuples[ce], inst.binding);
        PRODB_RETURN_IF_ERROR(txn->Update(rule.lhs.conditions[ce].relation,
                                          current[ce], next, &current[ce]));
        current_tuples[ce] = std::move(next);
        break;
      }
      case ActionKind::kHalt:
        *halt = true;
        break;
      case ActionKind::kCall: {
        std::vector<Value> args;
        for (const CompiledValue& cv : action.args) {
          args.push_back(cv.Resolve(inst.binding));
        }
        PRODB_RETURN_IF_ERROR(functions_.Invoke(action.target, args));
        break;
      }
    }
  }
  return Status::OK();
}

Status ConcurrentEngine::CommitAfterMaintenance(Transaction* txn,
                                                const MaintainFn& maintain) {
  // 4. Maintenance, then commit: the matcher receives the transaction's
  //    whole ∆ in one batch *before* locks release — the paper's rule
  //    that "a production should not commit its RHS actions and release
  //    its locks until the triggered maintenance process updates the
  //    affected COND relations as well" (§5.2), made structural.
  if (!txn->changes().empty()) {
    Status st = maintain(txn->changes());
    if (!st.ok()) {
      // The relations are compensated, but a batch that failed part-way
      // may have left part of ∆ in the matcher: that one case cannot be
      // unwound, so the error surfaces.
      return txn_manager_.Abort(txn, st);
    }
  }
  Status st = txn_manager_.Commit(txn);
  if (st.ok()) return st;
  // The commit record never became durable, but the matcher has already
  // seen ∆: the abort feeds the inverse back through maintenance so the
  // conflict set tracks the relations again.
  return txn_manager_.Abort(txn, st, maintain);
}

Status ConcurrentEngine::Worker(ConcurrentRunResult* result) {
  auto chooser =
      MakeStrategy(options_.strategy, &matcher_->rules(), options_.seed);
  Rng backoff(options_.seed ^ 0x9e3779b97f4a7c15ULL);
  for (;;) {
    if (halted_.load() || firings_.load() >= options_.max_firings) {
      return Status::OK();
    }
    Instantiation inst;
    bool got = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      got = matcher_->conflict_set().Take(chooser, &inst);
      if (got) {
        active_workers_.fetch_add(1);
      } else if (active_workers_.load() == 0) {
        return Status::OK();  // quiescent: nothing queued, nobody working
      }
    }
    if (!got) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    bool fired = false, stale = false, halted = false;
    Status st = RunInstantiation(inst, &fired, &stale, &halted);
    if (!st.ok()) {
      // Aborted: the instantiation did not fire, so it goes back into the
      // conflict set (a later Take revalidates it). Requeue-before-
      // decrement keeps idle workers from observing a spuriously
      // quiescent system.
      matcher_->conflict_set().Add(inst);
      if (!st.IsDeadlock()) {
        active_workers_.fetch_sub(1);
        return st;
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++result->deadlock_aborts;
      }
      active_workers_.fetch_sub(1);
      std::this_thread::sleep_for(
          std::chrono::microseconds(50 + backoff.Uniform(500)));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stale) ++result->stale_skipped;
      if (fired) {
        ++result->firings;
        firings_.fetch_add(1);
      }
      if (halted) {
        result->halted = true;
        halted_.store(true);
      }
    }
    active_workers_.fetch_sub(1);
  }
}

Status ConcurrentEngine::Run(ConcurrentRunResult* result) {
  *result = ConcurrentRunResult{};
  halted_.store(false);
  firings_.store(0);
  active_workers_.store(0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    commit_log_.clear();
  }

  std::vector<std::thread> threads;
  std::vector<Status> statuses(options_.workers, Status::OK());
  threads.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    threads.emplace_back(
        [this, result, &statuses, i] { statuses[i] = Worker(result); });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : statuses) {
    PRODB_RETURN_IF_ERROR(st);
  }
  if (firings_.load() >= options_.max_firings) result->exhausted = true;
  return Status::OK();
}

std::vector<std::string> ConcurrentEngine::commit_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_log_;
}

}  // namespace prodb
