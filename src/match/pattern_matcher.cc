#include "match/pattern_matcher.h"

#include <set>

namespace prodb {

PatternMatcher::PatternMatcher(Catalog* catalog,
                               PatternMatcherOptions options)
    : catalog_(catalog),
      options_(options),
      executor_(catalog),
      dispatch_(&stats_, options.discriminate_dispatch) {
  executor_.set_stats(&stats_);
}

PatternMatcher::~PatternMatcher() = default;

Status PatternMatcher::EnsureCondStore(const std::string& cls,
                                       CondStore** out) {
  auto it = cond_stores_.find(cls);
  if (it != cond_stores_.end()) {
    *out = it->second.get();
    return Status::OK();
  }
  Relation* wm = catalog_->Get(cls);
  if (wm == nullptr) return Status::NotFound("relation " + cls);
  auto store = std::make_unique<CondStore>();
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"__rid", ValueType::kInt});
  attrs.push_back(Attribute{"__cen", ValueType::kInt});
  for (const Attribute& a : wm->schema().attributes()) attrs.push_back(a);
  PRODB_RETURN_IF_ERROR(catalog_->CreateRelation(
      Schema("COND-" + cls, attrs), options_.cond_storage, &store->cond_rel));
  *out = store.get();
  cond_stores_.emplace(cls, std::move(store));
  return Status::OK();
}

Status PatternMatcher::AddRule(const Rule& rule) {
  const int rule_index = static_cast<int>(rules().size());
  const size_t n = rule.lhs.conditions.size();
  // Hash indexes on WM attributes in equality tests, so materialization
  // and seeded re-evaluation probe instead of scanning (§4.1.2).
  PRODB_RETURN_IF_ERROR(
      dispatch_.AddRule(catalog_, rule, options_.declare_wm_indexes));

  // Precompute shared (kEq) variables between every ordered CE pair.
  std::vector<std::set<int>> eq_vars(n);
  for (size_t ce = 0; ce < n; ++ce) {
    for (const VarUse& u : rule.lhs.conditions[ce].var_uses) {
      if (u.op == CompareOp::kEq) eq_vars[ce].insert(u.var);
    }
  }
  std::vector<std::vector<std::vector<int>>> shared(
      n, std::vector<std::vector<int>>(n));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      for (int v : eq_vars[a]) {
        if (eq_vars[b].count(v)) shared[a][b].push_back(v);
      }
    }
  }
  shared_vars_.push_back(std::move(shared));

  // Create COND relations and write the original rows.
  for (size_t ce = 0; ce < n; ++ce) {
    const ConditionSpec& c = rule.lhs.conditions[ce];
    CondStore* store;
    PRODB_RETURN_IF_ERROR(EnsureCondStore(c.relation, &store));

    // Original COND row: constants where the CE tests equality against a
    // constant, null (variable / don't-care) elsewhere.
    Relation* wm = catalog_->Get(c.relation);
    Tuple row;
    auto& vals = row.mutable_values();
    vals.emplace_back(static_cast<int64_t>(rule_index));
    vals.emplace_back(static_cast<int64_t>(ce));
    for (size_t a = 0; a < wm->schema().arity(); ++a) {
      Value v;
      for (const ConstantTest& ct : c.constant_tests) {
        if (ct.attr == static_cast<int>(a) && ct.op == CompareOp::kEq) {
          v = ct.constant;
          break;
        }
      }
      vals.push_back(std::move(v));
    }
    TupleId id;
    PRODB_RETURN_IF_ERROR(store->cond_rel->Insert(row, &id));
  }

  // RULE-DEF rows (one per condition element, §4.1.1).
  if (rule_def_ == nullptr) {
    rule_def_ = catalog_->Get("RULE-DEF");
    if (rule_def_ == nullptr) {
      PRODB_RETURN_IF_ERROR(catalog_->CreateRelation(
          Schema("RULE-DEF", {Attribute{"__rid", ValueType::kInt},
                              Attribute{"__cen", ValueType::kInt},
                              Attribute{"__check", ValueType::kInt}}),
          StorageKind::kMemory, &rule_def_));
    }
  }
  for (size_t ce = 0; ce < n; ++ce) {
    TupleId id;
    PRODB_RETURN_IF_ERROR(rule_def_->Insert(
        Tuple{Value(static_cast<int64_t>(rule_index)),
              Value(static_cast<int64_t>(ce)), Value(int64_t{0})},
        &id));
  }

  return Status::OK();
}

std::string PatternMatcher::ProjectionKey(const Binding& b) {
  std::string key;
  for (size_t i = 0; i < b.size(); ++i) {
    if (!b[i].has_value()) continue;
    key += std::to_string(i) + "=" + b[i]->ToString() + ";";
  }
  return key;
}

Binding PatternMatcher::Project(int rule, int from, int to,
                                const Binding& full) const {
  const auto& shared =
      shared_vars_[static_cast<size_t>(rule)][static_cast<size_t>(from)]
                  [static_cast<size_t>(to)];
  Binding out(full.size());
  for (int v : shared) {
    out[static_cast<size_t>(v)] = full[static_cast<size_t>(v)];
  }
  return out;
}

Status PatternMatcher::BumpPattern(int rule, int target_ce,
                                   const Binding& projected,
                                   int contributor_ce, int delta) {
  const ConditionSpec& target =
      rules()[static_cast<size_t>(rule)].lhs.conditions
          [static_cast<size_t>(target_ce)];
  auto sit = cond_stores_.find(target.relation);
  if (sit == cond_stores_.end()) {
    return Status::Internal("no COND store for " + target.relation);
  }
  CondStore* store = sit->second.get();
  std::lock_guard<std::mutex> lock(store->mu);

  auto& bucket = store->patterns[{rule, target_ce}];
  std::string key = ProjectionKey(projected);
  auto it = bucket.find(key);
  if (delta > 0) {
    if (it == bucket.end()) {
      PatternEntry entry;
      entry.binding = projected;
      entry.counters.assign(
          rules()[static_cast<size_t>(rule)].lhs.conditions.size(), 0);
      entry.counters[static_cast<size_t>(contributor_ce)] = 1;
      // Materialize the pattern as a COND row: narrowed copy of the
      // original condition tuple (variables replaced by values).
      Relation* wm = catalog_->Get(target.relation);
      Tuple row;
      auto& vals = row.mutable_values();
      vals.emplace_back(static_cast<int64_t>(rule));
      vals.emplace_back(static_cast<int64_t>(target_ce));
      for (size_t a = 0; a < wm->schema().arity(); ++a) {
        Value v;
        for (const ConstantTest& ct : target.constant_tests) {
          if (ct.attr == static_cast<int>(a) && ct.op == CompareOp::kEq) {
            v = ct.constant;
            break;
          }
        }
        for (const VarUse& u : target.var_uses) {
          if (u.attr == static_cast<int>(a) && u.op == CompareOp::kEq &&
              projected[static_cast<size_t>(u.var)].has_value()) {
            v = *projected[static_cast<size_t>(u.var)];
            break;
          }
        }
        vals.push_back(std::move(v));
      }
      PRODB_RETURN_IF_ERROR(store->cond_rel->Insert(row, &entry.cond_row));
      ++store->pattern_rows;
      ++stats_.patterns_stored;
      bucket.emplace(std::move(key), std::move(entry));
    } else {
      ++it->second.counters[static_cast<size_t>(contributor_ce)];
    }
  } else {
    if (it == bucket.end()) {
      // Deletion of a tuple whose insertion predated rule registration,
      // or double delete; nothing to decrement.
      return Status::OK();
    }
    uint32_t& c = it->second.counters[static_cast<size_t>(contributor_ce)];
    if (c > 0) --c;
    bool all_zero = true;
    for (uint32_t v : it->second.counters) {
      if (v != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) {
      PRODB_RETURN_IF_ERROR(store->cond_rel->Delete(it->second.cond_row));
      bucket.erase(it);
      --store->pattern_rows;
      if (stats_.patterns_stored > 0) --stats_.patterns_stored;
    }
  }
  return Status::OK();
}

bool PatternMatcher::Supported(int rule, int ce, const Binding& beta) const {
  const Rule& r = rules()[static_cast<size_t>(rule)];
  const ConditionSpec& own = r.lhs.conditions[static_cast<size_t>(ce)];
  auto sit = cond_stores_.find(own.relation);
  if (sit == cond_stores_.end()) return false;
  const CondStore* store = sit->second.get();

  // Which positive RCEs need support?
  std::vector<size_t> rces;
  for (size_t k = 0; k < r.lhs.conditions.size(); ++k) {
    if (static_cast<int>(k) != ce && !r.lhs.conditions[k].negated) {
      rces.push_back(k);
    }
  }
  if (rces.empty()) return true;

  std::lock_guard<std::mutex> lock(store->mu);
  auto bit = store->patterns.find({rule, ce});
  if (bit == store->patterns.end()) return false;

  // Single pass over COND-C patterns for this (rule, ce): a pattern is
  // consistent with the inserted tuple's binding when every variable it
  // narrows agrees with beta.
  std::vector<bool> supported(r.lhs.conditions.size(), false);
  size_t need = rces.size();
  for (const auto& [key, entry] : bit->second) {
    ++const_cast<MatcherStats&>(stats_).tuples_examined;
    bool consistent = true;
    for (size_t v = 0; v < entry.binding.size(); ++v) {
      if (!entry.binding[v].has_value()) continue;
      if (!beta[v].has_value() || !(*beta[v] == *entry.binding[v])) {
        consistent = false;
        break;
      }
    }
    if (!consistent) continue;
    for (size_t k : rces) {
      if (!supported[k] && entry.counters[k] > 0) {
        supported[k] = true;
        if (--need == 0) return true;
      }
    }
  }
  return false;
}

Status PatternMatcher::FlushOps(std::vector<PropagationOp>* ops) {
  if (ops->empty()) return Status::OK();
  stats_.propagations += ops->size();
  Status result;
  for (const PropagationOp& op : *ops) {
    Status st = BumpPattern(op.rule, op.target_ce, op.projected,
                            op.contributor_ce, op.delta);
    if (!st.ok()) {
      result = st;
      break;
    }
  }
  ops->clear();
  return result;
}

Status PatternMatcher::OnBatch(const ChangeSet& batch) {
  ++stats_.batches;
  std::vector<uint32_t> cands;

  // Retire instantiations that use a deleted tuple or that an inserted
  // negated-CE witness blocks.
  const DeletedTuples deleted(batch);
  dispatch_.RetireInvalidated(batch, deleted, &conflict_set_, &cands);

  // Walk the deltas in order, accumulating ±1 pattern bumps (§4.2.2's
  // counters); flush only when a later insert needs to read pattern
  // support, so runs of deltas propagate to the COND relations in one
  // wave. Mixed-sign queues flush sequentially, preserving bump order.
  std::vector<PropagationOp> ops;
  for (const Delta& d : batch) {
    // Match via one COND search (the conflict set is updated *before*
    // maintenance — the ordering §4.2.3 highlights). A tuple also
    // deleted later in the batch is never seeded: the removal pass
    // already ran, and EvaluateSeeded force-includes its seed.
    const bool seed = d.is_insert() && !deleted.Contains(d.relation, d.id);
    const int sign = d.is_insert() ? +1 : -1;
    const CondDispatch::Bucket* bucket =
        dispatch_.Candidates(false, d.relation, d.tuple, &cands);
    for (uint32_t pos : cands) {
      const CeRef& ref = (*bucket)[pos];
      const Rule& rule = rules()[static_cast<size_t>(ref.rule)];
      const ConditionSpec& ce =
          rule.lhs.conditions[static_cast<size_t>(ref.ce)];
      Binding beta;
      if (!BindSingle(ce, d.tuple, rule.lhs.num_vars, &beta)) continue;
      if (seed) {
        PRODB_RETURN_IF_ERROR(FlushOps(&ops));
        if (Supported(ref.rule, ref.ce, beta)) {
          std::vector<QueryMatch> matches;
          PRODB_RETURN_IF_ERROR(executor_.EvaluateSeeded(
              rule.lhs, static_cast<size_t>(ref.ce), d.id, d.tuple,
              &matches));
          for (QueryMatch& m : matches) {
            Instantiation inst;
            inst.rule_index = ref.rule;
            inst.rule_name = rule.name;
            inst.tuple_ids = std::move(m.tuple_ids);
            inst.tuples = std::move(m.tuples);
            inst.binding = std::move(m.binding);
            conflict_set_.Add(std::move(inst));
          }
        }
      }
      // Maintenance: queue pattern propagation to related classes.
      for (size_t k = 0; k < rule.lhs.conditions.size(); ++k) {
        if (static_cast<int>(k) == ref.ce ||
            rule.lhs.conditions[k].negated) {
          continue;
        }
        ops.push_back(PropagationOp{
            ref.rule, static_cast<int>(k), ref.ce, sign,
            Project(ref.rule, ref.ce, static_cast<int>(k), beta)});
      }
    }
    if (d.is_insert()) continue;
    // Deletion from a negated class may enable instantiations: evaluate
    // the rule under the binding the blocker carried.
    bucket = dispatch_.Candidates(true, d.relation, d.tuple, &cands);
    for (uint32_t pos : cands) {
      const CeRef& ref = (*bucket)[pos];
      const Rule& rule = rules()[static_cast<size_t>(ref.rule)];
      const ConditionSpec& ce =
          rule.lhs.conditions[static_cast<size_t>(ref.ce)];
      Binding beta;
      if (!BindSingle(ce, d.tuple, rule.lhs.num_vars, &beta)) continue;
      std::vector<Instantiation> insts;
      PRODB_RETURN_IF_ERROR(MaterializeInstantiations(
          catalog_, rule, ref.rule, beta, &insts, &stats_));
      for (Instantiation& inst : insts) conflict_set_.Add(std::move(inst));
    }
  }
  return FlushOps(&ops);
}

size_t PatternMatcher::AuxiliaryFootprintBytes() const {
  size_t total = 0;
  for (const auto& [cls, store] : cond_stores_) {
    std::lock_guard<std::mutex> lock(store->mu);
    total += store->cond_rel->FootprintBytes();
    for (const auto& [key, bucket] : store->patterns) {
      (void)key;
      for (const auto& [pk, entry] : bucket) {
        total += pk.size() + entry.binding.size() * sizeof(Value) +
                 entry.counters.size() * sizeof(uint32_t);
      }
    }
  }
  return total;
}

size_t PatternMatcher::PatternCount(const std::string& cls) const {
  auto it = cond_stores_.find(cls);
  if (it == cond_stores_.end()) return 0;
  std::lock_guard<std::mutex> lock(it->second->mu);
  return it->second->pattern_rows;
}

Relation* PatternMatcher::CondRelation(const std::string& cls) const {
  auto it = cond_stores_.find(cls);
  return it == cond_stores_.end() ? nullptr : it->second->cond_rel;
}

Status PatternMatcher::SyncRuleDef() {
  if (rule_def_ == nullptr) return Status::OK();
  // Recompute check bits set-at-a-time: check = 1 iff some WM tuple
  // matches the CE's own constant tests and intra-CE variable structure.
  std::vector<std::pair<TupleId, Tuple>> rows;
  PRODB_RETURN_IF_ERROR(rule_def_->Scan(
      [&](TupleId id, const Tuple& t) {
        rows.emplace_back(id, t);
        return Status::OK();
      }));
  for (auto& [id, row] : rows) {
    int rule = static_cast<int>(row[0].as_int());
    int cen = static_cast<int>(row[1].as_int());
    const Rule& r = rules()[static_cast<size_t>(rule)];
    const ConditionSpec& ce = r.lhs.conditions[static_cast<size_t>(cen)];
    Relation* wm = catalog_->Get(ce.relation);
    bool satisfied = false;
    PRODB_RETURN_IF_ERROR(wm->Scan([&](TupleId, const Tuple& t) {
      if (!satisfied) {
        Binding b;
        if (BindSingle(ce, t, r.lhs.num_vars, &b)) satisfied = true;
      }
      return Status::OK();
    }));
    // Negated CEs are satisfied by *absence* (§4.2.2 inverts defaults).
    if (ce.negated) satisfied = !satisfied;
    TupleId out;
    PRODB_RETURN_IF_ERROR(rule_def_->Update(
        id,
        Tuple{row[0], row[1], Value(static_cast<int64_t>(satisfied ? 1 : 0))},
        &out));
  }
  return Status::OK();
}

}  // namespace prodb
