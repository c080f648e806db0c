#include "rete/network.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "db/executor.h"
#include "rete/join_keys.h"

namespace prodb {

namespace {

/// Widens a token's position vectors so index `pos` is addressable.
void EnsureWidth(ReteToken* token, size_t pos) {
  if (token->ids.size() <= pos) {
    token->ids.resize(pos + 1, ReteToken::kNoTuple);
    token->tuples.resize(pos + 1, Tuple());
  }
}

}  // namespace

/// One-input node chain, collapsed: class test plus every constant test
/// of a condition element, plus intra-CE attribute constraints induced by
/// a variable appearing twice in the same CE.
struct ReteNetwork::AlphaNode {
  std::string cls;
  std::vector<ConstantTest> tests;
  // (left attr, op, right attr): tuple[l] op tuple[r] must hold.
  struct AttrPair {
    int left;
    CompareOp op;
    int right;
  };
  std::vector<AttrPair> pairs;
  std::vector<JoinNode*> successors;

  bool Matches(const Tuple& t) const {
    for (const ConstantTest& c : tests) {
      if (!c.Matches(t)) return false;
    }
    for (const AttrPair& p : pairs) {
      if (!EvalCompare(t[static_cast<size_t>(p.left)], p.op,
                       t[static_cast<size_t>(p.right)])) {
        return false;
      }
    }
    return true;
  }

  std::string Signature() const {
    std::string sig = cls + "#";
    std::vector<std::string> parts;
    for (const ConstantTest& c : tests) parts.push_back(c.ToString());
    std::sort(parts.begin(), parts.end());
    for (const std::string& p : parts) sig += p + ";";
    sig += "#";
    parts.clear();
    for (const AttrPair& p : pairs) {
      parts.push_back(std::to_string(p.left) + CompareOpName(p.op) +
                      std::to_string(p.right));
    }
    std::sort(parts.begin(), parts.end());
    for (const std::string& p : parts) sig += p + ";";
    return sig;
  }
};

/// Two-input node. `level` 0 is the head of a chain (no LEFT memory —
/// its single input feeds successors directly); negated nodes
/// additionally keep per-left-token match counts. A node may have
/// several children (chain-prefix sharing) and may terminate one or
/// more productions.
struct ReteNetwork::JoinNode {
  int rule = -1;  // rule whose compilation created the node (structure
                  // is identical for every rule sharing it)
  size_t level = 0;
  size_t ce = 0;  // textual CE slot (of `rule`) this node's right input
                  // covers; tokens are indexed by `level`, not by this
  bool negated = false;
  std::unique_ptr<TokenStore> left;
  std::unique_ptr<TokenStore> right;
  // Equality-join key schema, fixed at compile time (parallel vectors):
  // the LEFT token value at left_key[i] must equal the right tuple value
  // at right_key[i].attr for a pair to join. Empty when the node has no
  // equality join test (or indexing is off) — memories are scanned.
  std::vector<TokenKeyCol> left_key;
  std::vector<TokenKeyCol> right_key;  // pos == level for every entry
  std::unordered_map<std::string, int> neg_counts;
  std::vector<JoinNode*> children;
  std::vector<int> productions;  // rule indices satisfied at this node
};

namespace {
/// Deltas between drift checks: cheap enough to keep replans timely,
/// coarse enough that the check never shows on the per-delta path.
constexpr uint64_t kReplanCheckInterval = 64;
}  // namespace

ReteNetwork::ReteNetwork(Catalog* catalog, ReteOptions options)
    : catalog_(catalog),
      options_(options),
      planner_(&cat_stats_, options.planner) {}

ReteNetwork::~ReteNetwork() = default;

Status ReteNetwork::AddRule(const Rule& rule) {
  int rule_index = static_cast<int>(rules_.size());
  // Register LHS relations with the stats catalog (seeding from current
  // contents) before planning, so an AddRule after a WM preload already
  // plans against real cardinalities.
  for (const ConditionSpec& c : rule.lhs.conditions) {
    Relation* rel = catalog_->Get(c.relation);
    if (rel == nullptr) {
      return Status::NotFound("rule " + rule.name + ": relation " +
                              c.relation);
    }
    cat_stats_.Register(c.relation, rel);
  }
  rules_.push_back(rule);
  plans_.push_back(planner_.Plan(rule.lhs));
  ++stats_.plans_built;
  Status st = BuildRule(rule, rule_index);
  if (!st.ok()) {
    rules_.pop_back();
    plans_.pop_back();
    if (join_order_.size() > rules_.size()) join_order_.pop_back();
  }
  return st;
}

Status ReteNetwork::BuildRule(const Rule& rule, int rule_index) {
  const size_t n = rule.lhs.conditions.size();

  // Join order from the rule's current plan: the planner's cost-based
  // positive order when enabled (§3.2's "fixed access plan" lifted), the
  // syntactic positive-then-negated order otherwise.
  const std::vector<size_t>& order = plans_[static_cast<size_t>(rule_index)].order;
  const size_t num_positive =
      plans_[static_cast<size_t>(rule_index)].num_positive;

  // Per-CE class arities (for relation-backed token rows).
  std::vector<size_t> class_arity(n, 0);
  for (size_t i = 0; i < n; ++i) {
    Relation* rel = catalog_->Get(rule.lhs.conditions[i].relation);
    if (rel == nullptr) {
      return Status::NotFound("rule " + rule.name + ": relation " +
                              rule.lhs.conditions[i].relation);
    }
    class_arity[i] = rel->schema().arity();
  }
  if (num_positive == 0) {
    return Status::InvalidArgument("rule " + rule.name +
                                   ": no positive condition element");
  }
  if (join_order_.size() <= static_cast<size_t>(rule_index)) {
    join_order_.resize(static_cast<size_t>(rule_index) + 1);
  }
  join_order_[static_cast<size_t>(rule_index)] = order;

  auto make_store = [&](const std::string& kind, size_t level,
                        const std::vector<size_t>& arities,
                        const std::vector<TokenKeyCol>& key_cols,
                        std::unique_ptr<TokenStore>* out) -> Status {
    if (!options_.dbms_backed) {
      *out = std::make_unique<MemoryTokenStore>(key_cols);
      return Status::OK();
    }
    std::unique_ptr<RelationTokenStore> store;
    std::string name = kind + std::to_string(store_counter_++) + "-" +
                       rule.name + "-L" + std::to_string(level);
    PRODB_RETURN_IF_ERROR(RelationTokenStore::Create(
        catalog_, name, arities, options_.memory_storage, &store, key_cols));
    *out = std::move(store);
    return Status::OK();
  };

  // Per-CE binding attributes (var -> first kEq occurrence), shared by
  // the alpha intra-CE pair builder and the join-key schema below.
  std::vector<std::map<int, int>> binder(n);
  for (size_t i = 0; i < n; ++i) {
    binder[i] = FirstEqAttrByVar(rule.lhs.conditions[i]);
  }

  // Equality-join key schema of the node at join-order level `k` covering
  // CE `ce`: one column pair per variable that has an equality occurrence
  // in `ce` and is bound by an earlier positive CE of the chain. Key
  // positions are join-order *levels* (tokens are level-indexed), so the
  // schema — like the whole chain — is independent of textual CE slots.
  // The probe is a necessary condition — TupleConsistent still runs on
  // every visited pair — so extra non-equality tests only make the probe
  // conservative, never wrong.
  auto compute_keys = [&](size_t k, size_t ce, JoinNode* node) {
    if (!options_.index_memories) return;
    for (const auto& [var, attr] : binder[ce]) {
      for (size_t j = 0; j < k && j < num_positive; ++j) {
        size_t p = order[j];
        auto it = binder[p].find(var);
        if (it == binder[p].end()) continue;
        node->left_key.push_back(TokenKeyCol{j, it->second});
        node->right_key.push_back(TokenKeyCol{k, attr});
        break;
      }
    }
  };

  auto hook_alpha = [&](size_t ce_index, JoinNode* node) {
    const ConditionSpec& cond = rule.lhs.conditions[ce_index];
    AlphaNode probe;
    probe.cls = cond.relation;
    probe.tests = cond.constant_tests;
    // Intra-CE constraints: every occurrence after a variable's binding
    // (first kEq) occurrence tests against the binding attribute.
    const std::map<int, int>& first_eq_attr = binder[ce_index];
    std::set<int> bound;
    for (const VarUse& u : cond.var_uses) {
      auto it = first_eq_attr.find(u.var);
      if (it == first_eq_attr.end()) continue;  // never eq-bound in this CE
      if (!bound.count(u.var)) {
        // Occurrences before the binding one are join/deferred tests.
        if (u.op == CompareOp::kEq) bound.insert(u.var);
        continue;
      }
      if (u.attr != it->second) {
        probe.pairs.push_back(AlphaNode::AttrPair{u.attr, u.op, it->second});
      }
    }
    AlphaNode* alpha = nullptr;
    std::string sig = probe.Signature();
    if (options_.share_alpha) {
      auto it = alpha_index_.find(sig);
      if (it != alpha_index_.end()) alpha = it->second;
    }
    if (alpha == nullptr) {
      auto owned = std::make_unique<AlphaNode>(std::move(probe));
      alpha = owned.get();
      alpha_nodes_.push_back(std::move(owned));
      std::vector<AlphaNode*>& cls_nodes = alpha_by_class_[cond.relation];
      // Index the node by its constant tests at the position it occupies
      // in the class vector; intra-CE attr pairs are unclassifiable and
      // re-checked by Matches on candidates. A shared node (found above)
      // is already indexed — once.
      alpha_disc_[cond.relation].Add(
          static_cast<uint32_t>(cls_nodes.size()), alpha->tests);
      cls_nodes.push_back(alpha);
      if (options_.share_alpha) alpha_index_[sig] = alpha;
    }
    alpha->successors.push_back(node);
  };

  // Build the positive chain front to back, reusing shared prefixes.
  // A prefix is shareable when the leading condition specs are textually
  // identical *in join order* — the analyzer's first-occurrence variable
  // numbering makes structurally identical prefixes compile identically,
  // and level-indexed tokens make the compiled chain independent of the
  // CEs' textual slots (two rules whose planned prefixes agree share
  // even when the shared CEs sit at different LHS positions; Produce
  // remaps levels to each rule's own slots).
  JoinNode* tail = nullptr;
  std::string prefix_sig;
  for (size_t k = 0; k < num_positive; ++k) {
    size_t ce = order[k];
    prefix_sig += "@" + rule.lhs.conditions[ce].ToString() + "|";
    if (options_.share_beta) {
      auto it = beta_index_.find(prefix_sig);
      if (it != beta_index_.end()) {
        tail = it->second;
        continue;  // the whole prefix up to k is already compiled
      }
    }
    auto node = std::make_unique<JoinNode>();
    node->rule = rule_index;
    node->level = k;
    node->ce = ce;
    node->negated = false;
    if (k > 0) {
      compute_keys(k, ce, node.get());
      // LEFT tokens carry one tuple per positive level [0, k); RIGHT
      // singles carry width k+1 with only slot k filled.
      std::vector<size_t> arities(k, 0);
      for (size_t p = 0; p < k; ++p) arities[p] = class_arity[order[p]];
      PRODB_RETURN_IF_ERROR(
          make_store("LEFT", k, arities, node->left_key, &node->left));
      std::vector<size_t> right_arities(k + 1, 0);
      right_arities[k] = class_arity[ce];
      PRODB_RETURN_IF_ERROR(make_store("RIGHT", k, right_arities,
                                       node->right_key, &node->right));
      tail->children.push_back(node.get());
    }
    hook_alpha(ce, node.get());
    tail = node.get();
    if (options_.share_beta) beta_index_[prefix_sig] = tail;
    join_nodes_.push_back(std::move(node));
  }

  // Negated suffix: never shared (per-rule match counts). Left tokens
  // pass through negated nodes unwidened, so they stay at the positive
  // chain's width.
  for (size_t k = num_positive; k < order.size(); ++k) {
    size_t ce = order[k];
    auto node = std::make_unique<JoinNode>();
    node->rule = rule_index;
    node->level = k;
    node->ce = ce;
    node->negated = true;
    compute_keys(k, ce, node.get());
    std::vector<size_t> arities(num_positive, 0);
    for (size_t p = 0; p < num_positive; ++p) {
      arities[p] = class_arity[order[p]];
    }
    PRODB_RETURN_IF_ERROR(
        make_store("LEFT", k, arities, node->left_key, &node->left));
    std::vector<size_t> right_arities(k + 1, 0);
    right_arities[k] = class_arity[ce];
    PRODB_RETURN_IF_ERROR(make_store("RIGHT", k, right_arities,
                                     node->right_key, &node->right));
    hook_alpha(ce, node.get());
    tail->children.push_back(node.get());
    tail = node.get();
    join_nodes_.push_back(std::move(node));
  }

  tail->productions.push_back(rule_index);
  // Rebuild any range-tier interval trees now, while registration is
  // still single-threaded; dispatch-time Lookups are then pure reads.
  for (const auto& [cls, disc] : alpha_disc_) {
    (void)cls;
    disc.Seal();
  }
  return Status::OK();
}

bool ReteNetwork::RecomputeBinding(int rule, ReteToken* token,
                                   size_t upto) const {
  const Rule& r = rules_[static_cast<size_t>(rule)];
  const auto& order = join_order_[static_cast<size_t>(rule)];
  token->binding.assign(static_cast<size_t>(r.lhs.num_vars), std::nullopt);
  for (size_t k = 0; k < upto && k < order.size(); ++k) {
    if (k >= token->ids.size() || token->ids[k] == ReteToken::kNoTuple) {
      continue;
    }
    if (!TupleConsistent(r.lhs.conditions[order[k]], token->tuples[k],
                         &token->binding)) {
      return false;
    }
  }
  return true;
}

Status ReteNetwork::Produce(int rule, const ReteToken& token, bool positive) {
  // Reseed replays rebuild the token memories only; the conflict set was
  // never torn down and is already correct.
  if (reseeding_) return Status::OK();
  const Rule& r = rules_[static_cast<size_t>(rule)];
  const auto& order = join_order_[static_cast<size_t>(rule)];
  const size_t n = r.lhs.conditions.size();
  Instantiation inst;
  inst.rule_index = rule;
  inst.rule_name = r.name;
  // Tokens are level-indexed in join order; instantiations are slotted
  // by textual CE position — remap through the rule's order.
  inst.tuple_ids.assign(n, Instantiation::kNoTuple);
  inst.tuples.assign(n, Tuple());
  const size_t width = std::min(order.size(), token.ids.size());
  for (size_t k = 0; k < width; ++k) {
    if (token.ids[k] == ReteToken::kNoTuple) continue;
    inst.tuple_ids[order[k]] = token.ids[k];
    inst.tuples[order[k]] = token.tuples[k];
  }
  inst.binding = token.binding;
  inst.binding.resize(static_cast<size_t>(r.lhs.num_vars), std::nullopt);
  if (positive) {
    conflict_set_.Add(std::move(inst));
  } else {
    conflict_set_.RemoveByKey(inst.Key());
  }
  return Status::OK();
}

Status ReteNetwork::Descend(JoinNode* node, const ReteToken& token,
                            bool positive) {
  for (int rule : node->productions) {
    PRODB_RETURN_IF_ERROR(Produce(rule, token, positive));
  }
  for (JoinNode* child : node->children) {
    PRODB_RETURN_IF_ERROR(ActivateLeft(child, token, positive));
  }
  return Status::OK();
}

bool ReteNetwork::ProbeKeyFromToken(const JoinNode& node,
                                    const ReteToken& token,
                                    std::vector<Value>* key) {
  key->clear();
  key->reserve(node.left_key.size());
  for (const TokenKeyCol& c : node.left_key) {
    if (c.pos >= token.tuples.size() ||
        static_cast<size_t>(c.attr) >= token.tuples[c.pos].arity()) {
      return false;
    }
    key->push_back(token.tuples[c.pos][static_cast<size_t>(c.attr)]);
  }
  return !key->empty();
}

bool ReteNetwork::ProbeKeyFromTuple(const JoinNode& node, const Tuple& tuple,
                                    std::vector<Value>* key) {
  key->clear();
  key->reserve(node.right_key.size());
  for (const TokenKeyCol& c : node.right_key) {
    if (static_cast<size_t>(c.attr) >= tuple.arity()) return false;
    key->push_back(tuple[static_cast<size_t>(c.attr)]);
  }
  return !key->empty();
}

Status ReteNetwork::ActivateLeft(JoinNode* node, const ReteToken& token,
                                 bool positive) {
  ++stats_.propagations;
  const Rule& rule = rules_[static_cast<size_t>(node->rule)];
  const ConditionSpec& cond = rule.lhs.conditions[node->ce];
  // A token produced in a shared prefix carries the binding width of the
  // prefix's first compiler; this rule's suffix may use higher var ids.
  const size_t want_vars = static_cast<size_t>(rule.lhs.num_vars);

  // Visits the RIGHT-memory tokens that can join with `token`: a keyed
  // probe when the node has an equality key derivable from the token,
  // else the §3.2 full scan.
  auto for_each_right =
      [&](const std::function<Status(const ReteToken&)>& fn) -> Status {
    std::vector<Value> key;
    if (ProbeKeyFromToken(*node, token, &key)) {
      ++stats_.index_probes;
      return node->right->ScanMatching(key, [&](const ReteToken& r) {
        ++stats_.probe_tokens_visited;
        return fn(r);
      });
    }
    return node->right->Scan([&](const ReteToken& r) {
      ++stats_.scan_tokens_visited;
      return fn(r);
    });
  };

  if (positive) {
    PRODB_RETURN_IF_ERROR(node->left->Add(token));
    ++stats_.patterns_stored;
    if (node->negated) {
      int count = 0;
      PRODB_RETURN_IF_ERROR(for_each_right([&](const ReteToken& r) {
        ++stats_.tuples_examined;
        Binding b = token.binding;
        if (b.size() < want_vars) b.resize(want_vars, std::nullopt);
        if (TupleConsistent(cond, r.tuples[node->level], &b)) ++count;
        return Status::OK();
      }));
      node->neg_counts[token.Key()] = count;
      if (count == 0) return Descend(node, token, true);
      return Status::OK();
    }
    return for_each_right([&](const ReteToken& r) {
      ++stats_.tuples_examined;
      ReteToken merged = token;
      if (merged.binding.size() < want_vars) {
        merged.binding.resize(want_vars, std::nullopt);
      }
      if (!TupleConsistent(cond, r.tuples[node->level], &merged.binding)) {
        return Status::OK();
      }
      EnsureWidth(&merged, node->level);
      merged.ids[node->level] = r.ids[node->level];
      merged.tuples[node->level] = r.tuples[node->level];
      return Descend(node, merged, true);
    });
  }

  // Negative (−) token: retract.
  bool found = false;
  PRODB_RETURN_IF_ERROR(node->left->RemoveExact(token, &found));
  if (!found) return Status::OK();
  if (stats_.patterns_stored > 0) --stats_.patterns_stored;
  if (node->negated) {
    auto it = node->neg_counts.find(token.Key());
    int count = it == node->neg_counts.end() ? 0 : it->second;
    if (it != node->neg_counts.end()) node->neg_counts.erase(it);
    if (count == 0) return Descend(node, token, false);
    return Status::OK();
  }
  return for_each_right([&](const ReteToken& r) {
    ++stats_.tuples_examined;
    ReteToken merged = token;
    if (merged.binding.size() < want_vars) {
      merged.binding.resize(want_vars, std::nullopt);
    }
    if (!TupleConsistent(cond, r.tuples[node->level], &merged.binding)) {
      return Status::OK();
    }
    EnsureWidth(&merged, node->level);
    merged.ids[node->level] = r.ids[node->level];
    merged.tuples[node->level] = r.tuples[node->level];
    return Descend(node, merged, false);
  });
}

Status ReteNetwork::ActivateRightBatch(
    JoinNode* node, const std::vector<RightActivation>& acts) {
  ++stats_.propagations;
  const Rule& rule = rules_[static_cast<size_t>(node->rule)];
  const ConditionSpec& cond = rule.lhs.conditions[node->ce];

  // Head node: no LEFT memory; each tuple becomes a width-1 token (slot
  // = level 0 of the chain) on its own.
  if (node->level == 0) {
    for (const RightActivation& a : acts) {
      ReteToken token;
      token.binding.assign(static_cast<size_t>(rule.lhs.num_vars),
                           std::nullopt);
      if (!TupleConsistent(cond, *a.tuple, &token.binding)) continue;
      token.ids.assign(1, a.id);
      token.tuples.assign(1, *a.tuple);
      PRODB_RETURN_IF_ERROR(Descend(node, token, a.positive));
    }
    return Status::OK();
  }

  // Each tuple must pass the CE's own tests before entering the memory.
  // Tests against variables bound by earlier CEs cannot be evaluated here
  // (they are join tests); defer-and-discard — the join enforces them.
  // Store mutations happen up front so the whole group is one atomic
  // activation; `effective` keeps the activations that actually entered
  // or left the memory.
  std::vector<RightActivation> effective;
  effective.reserve(acts.size());
  node->right->ReserveAdditional(acts.size());
  for (const RightActivation& a : acts) {
    {
      Binding b(static_cast<size_t>(rule.lhs.num_vars), std::nullopt);
      std::vector<DeferredTest> deferred;
      if (!TupleConsistent(cond, *a.tuple, &b, &deferred)) continue;
    }
    ReteToken single;
    single.ids.assign(node->level + 1, ReteToken::kNoTuple);
    single.tuples.assign(node->level + 1, Tuple());
    single.ids[node->level] = a.id;
    single.tuples[node->level] = *a.tuple;
    if (a.positive) {
      PRODB_RETURN_IF_ERROR(node->right->Add(single));
      ++stats_.patterns_stored;
    } else {
      bool found = false;
      PRODB_RETURN_IF_ERROR(node->right->RemoveExact(single, &found));
      if (!found) continue;
      if (stats_.patterns_stored > 0) --stats_.patterns_stored;
    }
    effective.push_back(a);
  }
  if (effective.empty()) return Status::OK();

  // Pairs one LEFT token (binding already recomputed/widened) with one
  // activation; shared by the probe and scan paths below.
  auto pair_one = [&](ReteToken& l, const RightActivation& a) -> Status {
    Binding b = l.binding;
    if (!TupleConsistent(cond, *a.tuple, &b)) return Status::OK();
    if (node->negated) {
      int& count = node->neg_counts[l.Key()];
      if (a.positive) {
        if (++count == 1) {
          PRODB_RETURN_IF_ERROR(Descend(node, l, false));
        }
      } else {
        if (--count == 0) {
          PRODB_RETURN_IF_ERROR(Descend(node, l, true));
        }
      }
      return Status::OK();
    }
    ReteToken merged = l;
    merged.binding = std::move(b);
    EnsureWidth(&merged, node->level);
    merged.ids[node->level] = a.id;
    merged.tuples[node->level] = *a.tuple;
    return Descend(node, merged, a.positive);
  };

  auto prepare = [&](ReteToken* l) -> bool {
    if (l->binding.empty()) {
      // Relation-backed stores persist tuples, not bindings.
      if (!RecomputeBinding(node->rule, l, node->level)) return false;
    }
    // Tokens stored by a shared prefix carry the first compiler's
    // binding width; widen to this rule's variable space.
    if (l->binding.size() < static_cast<size_t>(rule.lhs.num_vars)) {
      l->binding.resize(static_cast<size_t>(rule.lhs.num_vars),
                        std::nullopt);
    }
    return true;
  };

  if (!node->left_key.empty()) {
    // Indexed path: each activation probes the LEFT memory for its
    // join-compatible tokens only — per-delta cost O(matches), not
    // O(|memory|). Activation-major order equals the order of
    // propagating the deltas one at a time.
    for (const RightActivation& a : effective) {
      std::vector<Value> key;
      std::vector<ReteToken> lefts;
      if (ProbeKeyFromTuple(*node, *a.tuple, &key)) {
        ++stats_.index_probes;
        PRODB_RETURN_IF_ERROR(node->left->ScanMatching(
            key, [&](const ReteToken& l) {
              ++stats_.probe_tokens_visited;
              lefts.push_back(l);
              return Status::OK();
            }));
      } else {
        PRODB_RETURN_IF_ERROR(node->left->Scan([&](const ReteToken& l) {
          ++stats_.scan_tokens_visited;
          lefts.push_back(l);
          return Status::OK();
        }));
      }
      for (ReteToken& l : lefts) {
        ++stats_.tuples_examined;
        if (!prepare(&l)) continue;
        PRODB_RETURN_IF_ERROR(pair_one(l, a));
      }
    }
    return Status::OK();
  }

  // Walk the LEFT memory once, pairing every stored token with every
  // activation of the group in delta order — one-delta batches re-scan
  // this memory for each arrival; a larger group pays the scan once.
  std::vector<ReteToken> lefts;
  PRODB_RETURN_IF_ERROR(node->left->Scan([&](const ReteToken& l) {
    ++stats_.scan_tokens_visited;
    lefts.push_back(l);
    return Status::OK();
  }));
  for (ReteToken& l : lefts) {
    ++stats_.tuples_examined;
    if (!prepare(&l)) continue;
    for (const RightActivation& a : effective) {
      PRODB_RETURN_IF_ERROR(pair_one(l, a));
    }
  }
  return Status::OK();
}

Status ReteNetwork::PropagateGroup(const std::string& rel,
                                   const std::vector<RightActivation>& group) {
  auto it = alpha_by_class_.find(rel);
  if (it == alpha_by_class_.end()) return Status::OK();
  const std::vector<AlphaNode*>& nodes = it->second;

  if (options_.discriminate_alpha) {
    auto dit = alpha_disc_.find(rel);
    if (dit == alpha_disc_.end()) return Status::OK();
    const DiscriminationIndex& disc = dit->second;
    // Tuple-major candidate collection into sparse per-alpha passed
    // lists, so each surviving alpha still sees the group's deltas in
    // order while the class's other alpha nodes are never touched.
    std::vector<uint32_t> cands;
    cands.reserve(last_candidates_);
    std::unordered_map<uint32_t, std::vector<RightActivation>> passed;
    std::vector<uint32_t> touched;
    for (const RightActivation& a : group) {
      cands.clear();
      disc.Lookup(*a.tuple, &cands);
      stats_.candidates_visited += cands.size();
      for (uint32_t pos : cands) {
        ++stats_.alpha_tests_evaluated;
        if (!nodes[pos]->Matches(*a.tuple)) continue;
        auto [pit, fresh] = passed.try_emplace(pos);
        if (fresh) {
          pit->second.reserve(group.size());
          touched.push_back(pos);
        }
        pit->second.push_back(a);
      }
    }
    last_candidates_ = static_cast<uint32_t>(cands.size());
    // Registration order within the class, as the linear walk visits.
    std::sort(touched.begin(), touched.end());
    for (uint32_t pos : touched) {
      ++stats_.propagations;
      for (JoinNode* node : nodes[pos]->successors) {
        PRODB_RETURN_IF_ERROR(ActivateRightBatch(node, passed[pos]));
      }
    }
    return Status::OK();
  }

  // Linear-scan ablation: every alpha node of the class tests every
  // delta — the §3.2 full walk the discrimination index replaces.
  for (AlphaNode* alpha : nodes) {
    ++stats_.propagations;
    std::vector<RightActivation> passed;
    passed.reserve(group.size());
    for (const RightActivation& a : group) {
      ++stats_.alpha_tests_evaluated;
      if (alpha->Matches(*a.tuple)) passed.push_back(a);
    }
    if (passed.empty()) continue;
    for (JoinNode* node : alpha->successors) {
      PRODB_RETURN_IF_ERROR(ActivateRightBatch(node, passed));
    }
  }
  return Status::OK();
}

Status ReteNetwork::OnBatch(const ChangeSet& batch) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  ++stats_.batches;
  if (options_.planner.enable) cat_stats_.OnBatch(batch);
  // Group same-relation deltas, preserving their relative order (ids are
  // never reused, so cross-relation reordering cannot invert an
  // insert/delete pair of the same tuple). Groups run in first-appearance
  // order; the conflict set reconciles by instantiation key, so the net
  // result matches propagating the deltas one at a time.
  std::vector<const std::string*> order;
  std::unordered_map<std::string, std::vector<RightActivation>> groups;
  for (const Delta& d : batch) {
    auto [it, inserted] = groups.try_emplace(d.relation);
    if (inserted) order.push_back(&it->first);
    it->second.push_back(RightActivation{d.id, &d.tuple, d.is_insert()});
  }

  for (const std::string* rel : order) {
    PRODB_RETURN_IF_ERROR(PropagateGroup(*rel, groups.at(*rel)));
  }
  return MaybeReplan(batch.size());
}

Status ReteNetwork::MaybeReplan(size_t deltas) {
  if (!options_.planner.enable || rules_.empty()) return Status::OK();
  deltas_since_plan_check_ += deltas;
  if (deltas_since_plan_check_ < kReplanCheckInterval) return Status::OK();
  deltas_since_plan_check_ = 0;
  bool drift = false;
  for (const JoinPlan& p : plans_) {
    if (planner_.NeedsReplan(p)) {
      drift = true;
      break;
    }
  }
  if (!drift) return Status::OK();
  return ReplanAll();
}

Status ReteNetwork::ForceReplan() {
  std::lock_guard<std::mutex> lock(batch_mu_);
  if (rules_.empty()) return Status::OK();
  return ReplanAll();
}

Status ReteNetwork::ReplanAll() {
  // Off the per-delta counter path: re-sketch aged histograms / distinct
  // bitmaps, then recompute every plan against the fresh statistics.
  cat_stats_.RefreshStale(catalog_);
  // Estimator accounting: compare each rule's live instantiation count
  // against the fresh estimate (same stats either way, so the sample
  // measures the estimator, not plan staleness).
  std::vector<uint64_t> actual(rules_.size(), 0);
  for (const Instantiation& inst : conflict_set_.Snapshot()) {
    if (inst.rule_index >= 0 &&
        static_cast<size_t>(inst.rule_index) < actual.size()) {
      ++actual[static_cast<size_t>(inst.rule_index)];
    }
  }
  bool changed = false;
  std::vector<JoinPlan> next;
  next.reserve(rules_.size());
  for (size_t i = 0; i < rules_.size(); ++i) {
    next.push_back(planner_.Plan(rules_[i].lhs));
    ++stats_.plans_built;
    stats_.ObserveCardEstimate(next[i].est_final,
                               static_cast<double>(actual[i]));
    if (next[i].order != plans_[i].order) changed = true;
  }
  plans_ = std::move(next);
  ++stats_.replans;
  // Unchanged orders only refresh the drift snapshots — the compiled
  // network is still the cheapest known, keep its token memories.
  if (!changed) return Status::OK();
  return RebuildAndReseed();
}

Status ReteNetwork::RebuildAndReseed() {
  // Tear down the compiled network. The DBMS-backed token relations
  // must be dropped from the catalog before the stores that own them go
  // away.
  if (options_.dbms_backed) {
    for (const auto& node : join_nodes_) {
      for (TokenStore* s : {node->left.get(), node->right.get()}) {
        auto* rs = dynamic_cast<RelationTokenStore*>(s);
        if (rs != nullptr) {
          PRODB_RETURN_IF_ERROR(
              catalog_->Drop(rs->relation()->schema().name()));
        }
      }
    }
  }
  alpha_by_class_.clear();
  alpha_disc_.clear();
  alpha_index_.clear();
  beta_index_.clear();
  alpha_nodes_.clear();
  join_nodes_.clear();
  last_candidates_ = 0;
  // Recompile every rule under its new plan.
  for (size_t i = 0; i < rules_.size(); ++i) {
    PRODB_RETURN_IF_ERROR(BuildRule(rules_[i], static_cast<int>(i)));
  }
  // Reseed token memories by replaying WM through the fresh network with
  // Produce suppressed (the conflict set was never torn down). Replay
  // order across classes is irrelevant: all activations are inserts, and
  // negated-node bookkeeping nets out the same whichever side arrives
  // first.
  reseeding_ = true;
  Status st = ReseedFromRelations();
  reseeding_ = false;
  // patterns_stored is a resident-token gauge; the rebuild dropped the
  // old stores without decrementing it, so recompute from the survivors.
  stats_.patterns_stored.store(TokenCount(), std::memory_order_relaxed);
  return st;
}

Status ReteNetwork::ReseedFromRelations() {
  // Sorted class set: deterministic replay regardless of rule order.
  std::set<std::string> classes;
  for (const Rule& r : rules_) {
    for (const ConditionSpec& c : r.lhs.conditions) classes.insert(c.relation);
  }
  for (const std::string& cls : classes) {
    Relation* rel = catalog_->Get(cls);
    if (rel == nullptr) continue;
    std::vector<std::pair<TupleId, Tuple>> rows;
    rows.reserve(rel->Count());
    PRODB_RETURN_IF_ERROR(rel->Scan([&](TupleId id, const Tuple& t) {
      rows.emplace_back(id, t);
      return Status::OK();
    }));
    std::vector<RightActivation> group;
    group.reserve(rows.size());
    for (const auto& [id, t] : rows) {
      group.push_back(RightActivation{id, &t, /*positive=*/true});
    }
    PRODB_RETURN_IF_ERROR(PropagateGroup(cls, group));
  }
  return Status::OK();
}

size_t ReteNetwork::AuxiliaryFootprintBytes() const {
  size_t total = 0;
  for (const auto& node : join_nodes_) {
    if (node->left != nullptr) total += node->left->FootprintBytes();
    if (node->right != nullptr) total += node->right->FootprintBytes();
    total += node->neg_counts.size() * 48;  // approximate map overhead
  }
  return total;
}

ReteTopology ReteNetwork::Topology() const {
  ReteTopology topo;
  topo.production_nodes = rules_.size();
  topo.alpha_nodes = alpha_nodes_.size();
  for (const auto& node : join_nodes_) {
    if (node->negated) {
      ++topo.negative_nodes;
    } else if (node->level > 0) {
      ++topo.beta_nodes;
    }
  }
  return topo;
}

size_t ReteNetwork::TokenCount() const {
  size_t total = 0;
  for (const auto& node : join_nodes_) {
    if (node->left != nullptr) total += node->left->size();
    if (node->right != nullptr) total += node->right->size();
  }
  return total;
}

}  // namespace prodb
