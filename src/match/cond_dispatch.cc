#include "match/cond_dispatch.h"

#include <algorithm>

#include "db/executor.h"

namespace prodb {

DeletedTuples::DeletedTuples(const ChangeSet& batch) {
  for (const Delta& d : batch) {
    if (!d.is_delete()) continue;
    if (first_ == nullptr) {
      first_ = &d;
    } else {
      rest_.emplace_back(d.id, &d.relation);
    }
  }
  std::sort(rest_.begin(), rest_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

bool DeletedTuples::Contains(const std::string& rel, TupleId id) const {
  // Ids are per relation, so equal ids from different classes may
  // coexist; the relation breaks the tie.
  if (first_ != nullptr && first_->id == id && first_->relation == rel) {
    return true;
  }
  auto it = std::lower_bound(
      rest_.begin(), rest_.end(), id,
      [](const auto& entry, const TupleId& key) { return entry.first < key; });
  for (; it != rest_.end() && it->first == id; ++it) {
    if (*it->second == rel) return true;
  }
  return false;
}

Status CondDispatch::AddRule(Catalog* catalog, const Rule& rule,
                             bool declare_indexes) {
  for (const ConditionSpec& c : rule.lhs.conditions) {
    if (catalog->Get(c.relation) == nullptr) {
      return Status::NotFound("rule " + rule.name + ": relation " +
                              c.relation);
    }
  }
  const int rule_index = static_cast<int>(rules_.size());
  for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
    const ConditionSpec& c = rule.lhs.conditions[ce];
    if (declare_indexes) {
      Relation* rel = catalog->Get(c.relation);
      for (const VarUse& u : c.var_uses) {
        if (u.op == CompareOp::kEq && !rel->HasHashIndex(u.attr)) {
          PRODB_RETURN_IF_ERROR(rel->CreateHashIndex(u.attr));
        }
      }
      for (const ConstantTest& t : c.constant_tests) {
        if (t.op == CompareOp::kEq && !rel->HasHashIndex(t.attr)) {
          PRODB_RETURN_IF_ERROR(rel->CreateHashIndex(t.attr));
        }
      }
    }
    Bucket& bucket = c.negated ? negative_by_class_[c.relation]
                               : positive_by_class_[c.relation];
    DiscriminationIndex& disc =
        c.negated ? negative_disc_[c.relation] : positive_disc_[c.relation];
    // Always registered (cheap, and the ablation variants keep the
    // structure comparable); discriminate_ decides whether lookups
    // happen.
    disc.Add(static_cast<uint32_t>(bucket.size()), c.constant_tests);
    disc.Seal();
    bucket.push_back(CeRef{rule_index, static_cast<int>(ce)});
  }
  rules_.push_back(rule);
  return Status::OK();
}

const CondDispatch::Bucket* CondDispatch::Candidates(
    bool negated, const std::string& rel, const Tuple& t,
    std::vector<uint32_t>* out) {
  out->clear();
  const auto& buckets = negated ? negative_by_class_ : positive_by_class_;
  auto bit = buckets.find(rel);
  if (bit == buckets.end()) return nullptr;
  const Bucket& bucket = bit->second;
  if (discriminate_) {
    out->reserve(last_candidates_.load(std::memory_order_relaxed));
    const auto& discs = negated ? negative_disc_ : positive_disc_;
    auto dit = discs.find(rel);
    if (dit != discs.end()) dit->second.Lookup(t, out);
    last_candidates_.store(static_cast<uint32_t>(out->size()),
                           std::memory_order_relaxed);
    stats_->candidates_visited += out->size();
  } else {
    out->reserve(bucket.size());
    for (uint32_t i = 0; i < static_cast<uint32_t>(bucket.size()); ++i) {
      out->push_back(i);
    }
  }
  stats_->alpha_tests_evaluated += out->size();
  return &bucket;
}

void CondDispatch::RetireInvalidated(const ChangeSet& batch,
                                     const DeletedTuples& deleted,
                                     ConflictSet* conflict_set,
                                     std::vector<uint32_t>* cands) {
  if (!deleted.empty()) {
    conflict_set->RemoveIf([&](const Instantiation& inst) {
      const Rule& rule = rules_[static_cast<size_t>(inst.rule_index)];
      for (size_t ce = 0; ce < rule.lhs.conditions.size(); ++ce) {
        const ConditionSpec& c = rule.lhs.conditions[ce];
        if (!c.negated && deleted.Contains(c.relation, inst.tuple_ids[ce])) {
          return true;
        }
      }
      return false;
    });
  }

  std::vector<std::pair<const Delta*, const CeRef*>> blockers;
  for (const Delta& d : batch) {
    if (!d.is_insert()) continue;
    const Bucket* bucket = Candidates(true, d.relation, d.tuple, cands);
    if (bucket == nullptr) continue;
    for (uint32_t pos : *cands) blockers.emplace_back(&d, &(*bucket)[pos]);
  }
  if (blockers.empty()) return;
  conflict_set->RemoveIf([&](const Instantiation& inst) {
    for (const auto& [d, ref] : blockers) {
      if (ref->rule != inst.rule_index) continue;
      const ConditionSpec& ce =
          rules_[static_cast<size_t>(ref->rule)].lhs.conditions
              [static_cast<size_t>(ref->ce)];
      Binding b = inst.binding;
      if (TupleConsistent(ce, d->tuple, &b)) return true;
    }
    return false;
  });
}

size_t CondDispatch::FootprintBytes() const {
  size_t total = 0;
  for (const auto* buckets : {&positive_by_class_, &negative_by_class_}) {
    for (const auto& [name, refs] : *buckets) {
      total += name.size() + refs.size() * (sizeof(CeRef) + 16);
    }
  }
  return total;
}

}  // namespace prodb
