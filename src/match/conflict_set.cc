#include "match/conflict_set.h"

#include <functional>

namespace prodb {

constexpr TupleId Instantiation::kNoTuple;

std::string Instantiation::Key() const {
  std::string key = std::to_string(rule_index);
  for (const TupleId& id : tuple_ids) {
    key += "|" + std::to_string(id.page_id) + "." + std::to_string(id.slot_id);
  }
  return key;
}

std::string Instantiation::ToString() const {
  std::string out = rule_name + "[";
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i) out += ", ";
    out += tuple_ids[i] == kNoTuple ? "-" : tuples[i].ToString();
  }
  return out + "]";
}

void ConflictSet::SetDeltaListener(DeltaListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  listener_ = std::move(listener);
}

bool ConflictSet::Add(Instantiation inst) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = inst.Key();
  if (items_.count(key)) return false;
  inst.recency = next_recency_++;
  auto [it, inserted] = items_.emplace(std::move(key), std::move(inst));
  ++total_added_;
  NotifyLocked(/*added=*/true, it->first, &it->second);
  return true;
}

bool ConflictSet::Remove(const Instantiation& inst) {
  return RemoveByKey(inst.Key());
}

bool ConflictSet::RemoveByKey(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (items_.erase(key) == 0) return false;
  NotifyLocked(/*added=*/false, key, nullptr);
  return true;
}

size_t ConflictSet::RemoveReferencing(TupleId id,
                                      const std::vector<size_t>& positions) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t removed = 0;
  for (auto it = items_.begin(); it != items_.end();) {
    bool hit = false;
    const Instantiation& inst = it->second;
    if (positions.empty()) {
      for (const TupleId& tid : inst.tuple_ids) {
        if (tid == id) {
          hit = true;
          break;
        }
      }
    } else {
      for (size_t p : positions) {
        if (p < inst.tuple_ids.size() && inst.tuple_ids[p] == id) {
          hit = true;
          break;
        }
      }
    }
    if (hit) {
      NotifyLocked(/*added=*/false, it->first, nullptr);
      it = items_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

size_t ConflictSet::RemoveIf(
    const std::function<bool(const Instantiation&)>& pred) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t removed = 0;
  for (auto it = items_.begin(); it != items_.end();) {
    if (pred(it->second)) {
      NotifyLocked(/*added=*/false, it->first, nullptr);
      it = items_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

bool ConflictSet::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.count(key) > 0;
}

bool ConflictSet::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.empty();
}

size_t ConflictSet::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

std::vector<Instantiation> ConflictSet::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Instantiation> out;
  out.reserve(items_.size());
  for (const auto& [key, inst] : items_) out.push_back(inst);
  return out;
}

bool ConflictSet::Take(
    const std::function<int(const std::vector<Instantiation>&)>& chooser,
    Instantiation* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (items_.empty()) return false;
  std::vector<Instantiation> snapshot;
  snapshot.reserve(items_.size());
  for (const auto& [key, inst] : items_) snapshot.push_back(inst);
  int idx = chooser(snapshot);
  if (idx < 0 || idx >= static_cast<int>(snapshot.size())) return false;
  *out = std::move(snapshot[static_cast<size_t>(idx)]);
  items_.erase(out->Key());
  return true;
}

void ConflictSet::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  items_.clear();
}

uint64_t ConflictSet::total_added() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_added_;
}

}  // namespace prodb
