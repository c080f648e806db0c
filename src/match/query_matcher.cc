#include "match/query_matcher.h"

#include <algorithm>
#include <chrono>

namespace prodb {

Status QueryMatcher::AddRule(const Rule& rule) {
  // Hash indexes on every attribute the executor can probe with a bound
  // equality (§4.1.2): seeded re-evaluation then touches only the
  // joining tuples instead of scanning each WM relation.
  PRODB_RETURN_IF_ERROR(dispatch_.AddRule(
      catalog_, rule,
      executor_.options().use_indexes &&
          executor_.options().declare_rule_indexes));
  // Register statistics for every LHS relation while registration is
  // still single-threaded (seeding from current contents, so rules added
  // after a preload see real cardinalities); the map is then frozen and
  // OnBatch updates it lock-free from engine threads.
  for (const ConditionSpec& c : rule.lhs.conditions) {
    cat_stats_.Register(c.relation, catalog_->Get(c.relation));
  }
  // Plan the rule's join sequence (syntactic when stats are empty — the
  // usual case at registration time; the drift check upgrades it once
  // data arrives). Copy-on-write republication keeps readers lock-free.
  auto cur = plans_.load();
  auto next = std::make_shared<std::vector<JoinPlan>>(*cur);
  next->push_back(planner_.Plan(rule.lhs));
  ++stats_.plans_built;
  plans_.store(std::shared_ptr<const std::vector<JoinPlan>>(std::move(next)));
  return Status::OK();
}

void QueryMatcher::MaybeReplan(size_t deltas) {
  if (!planner_.options().enable || rules().empty()) return;
  const uint64_t pending =
      deltas_since_plan_check_.fetch_add(deltas, std::memory_order_relaxed) +
      deltas;
  if (pending < 64) return;  // rate-limit the drift scan
  std::unique_lock<std::mutex> lock(replan_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // another thread is already checking
  deltas_since_plan_check_.store(0, std::memory_order_relaxed);
  auto cur = plans_.load();
  bool drift = false;
  for (const JoinPlan& p : *cur) {
    if (planner_.NeedsReplan(p)) {
      drift = true;
      break;
    }
  }
  if (!drift) return;
  // Off the batch counter path: re-sketch aged histograms/distinct
  // bitmaps, then recompute every plan against the fresh statistics.
  cat_stats_.RefreshStale(catalog_);
  auto next = std::make_shared<std::vector<JoinPlan>>();
  next->reserve(rules().size());
  for (const Rule& r : rules()) {
    next->push_back(planner_.Plan(r.lhs));
    ++stats_.plans_built;
  }
  ++stats_.replans;
  plans_.store(std::shared_ptr<const std::vector<JoinPlan>>(std::move(next)));
}

Status QueryMatcher::SeedMatches(int rule_index, int ce, TupleId id,
                                 const Tuple& t,
                                 std::vector<Instantiation>* out) {
  const Rule& rule = rules()[static_cast<size_t>(rule_index)];
  // Planned evaluation order (snapshot — replans swap the whole vector).
  std::shared_ptr<const std::vector<JoinPlan>> plans;
  const JoinPlan* plan = nullptr;
  if (planner_.options().enable) {
    plans = plans_.load();
    if (static_cast<size_t>(rule_index) < plans->size()) {
      plan = &(*plans)[static_cast<size_t>(rule_index)];
    }
  }
  std::vector<QueryMatch> matches;
  PRODB_RETURN_IF_ERROR(executor_.EvaluateSeeded(
      rule.lhs, static_cast<size_t>(ce), id, t, &matches,
      plan == nullptr ? nullptr : &plan->order));
  if (plan != nullptr) {
    // Estimator quality: a seed pins one tuple of its relation, so the
    // expected match count is est_final / |seed relation|.
    const RelationStats* rs =
        cat_stats_.Get(rule.lhs.conditions[static_cast<size_t>(ce)].relation);
    const double card =
        rs == nullptr ? 1.0
                      : static_cast<double>(std::max<int64_t>(
                            1, rs->cardinality()));
    stats_.ObserveCardEstimate(plan->est_final / card,
                               static_cast<double>(matches.size()));
  }
  out->reserve(out->size() + matches.size());
  for (QueryMatch& m : matches) {
    ++stats_.tuples_examined;
    Instantiation inst;
    inst.rule_index = rule_index;
    inst.rule_name = rule.name;
    inst.tuple_ids = std::move(m.tuple_ids);
    inst.tuples = std::move(m.tuples);
    inst.binding = std::move(m.binding);
    out->push_back(std::move(inst));
  }
  return Status::OK();
}

Status QueryMatcher::SeedAndAdd(int rule_index, int ce, TupleId id,
                                const Tuple& t) {
  std::vector<Instantiation> insts;
  PRODB_RETURN_IF_ERROR(SeedMatches(rule_index, ce, id, t, &insts));
  for (Instantiation& inst : insts) conflict_set_.Add(std::move(inst));
  return Status::OK();
}

Status QueryMatcher::EvaluateRule(int rule_index,
                                  std::vector<Instantiation>* out) {
  const Rule& rule = rules()[static_cast<size_t>(rule_index)];
  std::shared_ptr<const std::vector<JoinPlan>> plans;
  const JoinPlan* plan = nullptr;
  if (planner_.options().enable) {
    plans = plans_.load();
    if (static_cast<size_t>(rule_index) < plans->size()) {
      plan = &(*plans)[static_cast<size_t>(rule_index)];
    }
  }
  std::vector<QueryMatch> matches;
  PRODB_RETURN_IF_ERROR(executor_.Evaluate(
      rule.lhs, &matches, plan == nullptr ? nullptr : &plan->order));
  if (plan != nullptr) {
    stats_.ObserveCardEstimate(plan->est_final,
                               static_cast<double>(matches.size()));
  }
  out->reserve(out->size() + matches.size());
  for (QueryMatch& m : matches) {
    Instantiation inst;
    inst.rule_index = rule_index;
    inst.rule_name = rule.name;
    inst.tuple_ids = std::move(m.tuple_ids);
    inst.tuples = std::move(m.tuples);
    inst.binding = std::move(m.binding);
    out->push_back(std::move(inst));
  }
  return Status::OK();
}

Status QueryMatcher::OnBatch(const ChangeSet& batch) {
  ++stats_.batches;
  if (planner_.options().enable) cat_stats_.OnBatch(batch);
  const bool sharded = sharding_.enabled();
  std::unique_lock<std::mutex> lock(batch_mu_, std::defer_lock);
  if (sharded) lock.lock();
  std::vector<uint32_t> cands;

  // 1–2. Retire instantiations that use a deleted tuple or that an
  //      inserted tuple blocks through a negated CE.
  const DeletedTuples deleted(batch);
  dispatch_.RetireInvalidated(batch, deleted, &conflict_set_, &cands);

  // 3. Seeded evaluation per inserted tuple against its candidate CEs; a
  //    batch counts one propagation step per distinct affected condition
  //    element rather than one per tuple. A tuple both inserted and
  //    deleted within the batch is never seeded: EvaluateSeeded
  //    force-includes its seed, and the removal pass above has already
  //    run.
  // Sharded, the (insert, candidate CE) pairs are collected first
  // (dispatch accounting stays serial), split by collection index (seed
  // i -> task i % num_shards), evaluated concurrently into per-pair
  // buffers — evaluation is read-only against post-batch WM — and
  // committed in collection order, so conflict-set contents and recency
  // stamps are byte-identical to the serial path.
  struct SeedItem {
    const Delta* d;
    int rule;
    int ce;
    std::vector<Instantiation> insts;
    Status st;
  };
  std::vector<SeedItem> seeds;
  // The candidates of one lookup are distinct, so only a batch with
  // several inserts needs the dedup list (and its allocation).
  const bool one_insert =
      std::count_if(batch.begin(), batch.end(),
                    [](const Delta& d) { return d.is_insert(); }) <= 1;
  std::vector<const CeRef*> touched;
  size_t steps = 0;
  for (const Delta& d : batch) {
    if (!d.is_insert() || deleted.Contains(d.relation, d.id)) continue;
    const CondDispatch::Bucket* bucket =
        dispatch_.Candidates(false, d.relation, d.tuple, &cands);
    if (bucket == nullptr) continue;
    if (one_insert) steps += cands.size();
    for (uint32_t pos : cands) {
      const CeRef& ref = (*bucket)[pos];
      if (!one_insert) touched.push_back(&ref);
      if (sharded) {
        seeds.push_back(SeedItem{&d, ref.rule, ref.ce, {}, {}});
      } else {
        PRODB_RETURN_IF_ERROR(SeedAndAdd(ref.rule, ref.ce, d.id, d.tuple));
      }
    }
  }
  std::sort(touched.begin(), touched.end());
  steps += static_cast<size_t>(
      std::unique(touched.begin(), touched.end()) - touched.begin());
  // One atomic add per batch, and none for a batch that seeds nothing.
  if (steps != 0) stats_.propagations += steps;
  if (!seeds.empty()) {
    // No more tasks than seeds (routing is unchanged: i < num_shards), so
    // a one-seed batch runs inline instead of waking the pool.
    std::vector<std::vector<size_t>> by_shard(
        std::min<size_t>(sharding_.num_shards, seeds.size()));
    for (size_t i = 0; i < seeds.size(); ++i) {
      by_shard[i % by_shard.size()].push_back(i);
    }
    std::vector<std::chrono::steady_clock::time_point> done_at(
        by_shard.size());
    auto run_shard = [&](size_t s) {
      for (size_t i : by_shard[s]) {
        SeedItem& item = seeds[i];
        ++shard_stats_[s].deltas_routed;
        item.st =
            SeedMatches(item.rule, item.ce, item.d->id, item.d->tuple,
                        &item.insts);
        shard_stats_[s].conflict_ops += item.insts.size();
        if (!item.st.ok()) break;
      }
      done_at[s] = std::chrono::steady_clock::now();
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(by_shard.size(), run_shard);
    } else {
      for (size_t s = 0; s < by_shard.size(); ++s) run_shard(s);
    }
    const auto barrier = std::chrono::steady_clock::now();
    for (size_t s = 0; s < by_shard.size(); ++s) {
      shard_stats_[s].merge_wait_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(barrier -
                                                               done_at[s])
              .count());
    }
    for (SeedItem& item : seeds) {
      PRODB_RETURN_IF_ERROR(item.st);
      for (Instantiation& inst : item.insts) {
        conflict_set_.Add(std::move(inst));
      }
    }
  }

  // 4. Each rule negatively dependent on a deletion the index deems
  //    relevant is re-evaluated once — not once per deleted tuple, the
  //    amortization §4.1.2's "re-computation of joins" cost begs for.
  //    Rules run in ascending index order.
  std::vector<int> reeval;
  for (const Delta& d : batch) {
    if (!d.is_delete()) continue;
    const CondDispatch::Bucket* bucket =
        dispatch_.Candidates(true, d.relation, d.tuple, &cands);
    if (bucket == nullptr) continue;
    for (uint32_t pos : cands) reeval.push_back((*bucket)[pos].rule);
  }
  std::sort(reeval.begin(), reeval.end());
  reeval.erase(std::unique(reeval.begin(), reeval.end()), reeval.end());
  if (!sharded) {
    for (int rule_index : reeval) {
      std::vector<Instantiation> insts;
      PRODB_RETURN_IF_ERROR(EvaluateRule(rule_index, &insts));
      ++stats_.propagations;
      for (Instantiation& inst : insts) conflict_set_.Add(std::move(inst));
    }
    MaybeReplan(batch.size());
    return Status::OK();
  }
  // Sharded step 4: full re-evaluations fan out one rule per task,
  // grouped by `rule % num_shards` (rules have no home shard here — the
  // partition only balances work and keeps per-shard counters
  // single-writer); commits run in ascending rule order, as serially.
  if (!reeval.empty()) {
    std::vector<std::vector<Instantiation>> results(reeval.size());
    std::vector<Status> sts(reeval.size());
    std::vector<std::vector<size_t>> by_shard(sharding_.num_shards);
    for (size_t i = 0; i < reeval.size(); ++i) {
      by_shard[static_cast<size_t>(reeval[i]) % by_shard.size()].push_back(
          i);
    }
    auto run_shard = [&](size_t s) {
      for (size_t i : by_shard[s]) {
        ++shard_stats_[s].deltas_routed;
        sts[i] = EvaluateRule(reeval[i], &results[i]);
        shard_stats_[s].conflict_ops += results[i].size();
        if (!sts[i].ok()) break;
      }
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(by_shard.size(), run_shard);
    } else {
      for (size_t s = 0; s < by_shard.size(); ++s) run_shard(s);
    }
    for (size_t i = 0; i < reeval.size(); ++i) {
      PRODB_RETURN_IF_ERROR(sts[i]);
      ++stats_.propagations;
      for (Instantiation& inst : results[i]) {
        conflict_set_.Add(std::move(inst));
      }
    }
  }
  MaybeReplan(batch.size());
  return Status::OK();
}

std::vector<ShardStats> QueryMatcher::ShardStatsSnapshot() const {
  if (!sharding_.enabled()) return {};
  std::lock_guard<std::mutex> lock(batch_mu_);
  return shard_stats_;
}

size_t QueryMatcher::AuxiliaryFootprintBytes() const {
  // The whole point of §4.1: no intermediate results are stored. Only the
  // per-class CE maps (and their discrimination indexes, O(#CEs)) exist.
  return dispatch_.FootprintBytes();
}

}  // namespace prodb
