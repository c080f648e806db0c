// ingest: a closed-loop client streams 16-op make/modify/remove batches
// into an in-process RuleServer over TCP loopback. Each client owns two
// classes (A<c>, B<c>) and two rules over them: a one-CE filter and a
// two-CE equi-join with fan-out about 1.
//
// Untraced run (ingest-mem, the volatile server only): set-up (start,
// load, fill), then a timed window of --seconds cut into segments, each
// after one more set-up and a restart, then the checks (acks, per-class
// dump against the client model, the acked conflict set against a
// from-scratch replay of the acked state). Traced run, on the volatile
// server and on the durable one (paged WM, WAL, durable acks):
// fixed-size phases with client spans, then a single-threaded in-process
// replay of the whole op stream through the public calls the server's
// batch path makes, one span per call.
#include <algorithm>
#include <filesystem>
#include <latch>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

using prodb::ChangeSet;
using prodb::ProductionSystem;
using prodb::ProductionSystemOptions;
using prodb::Rng;
using prodb::Status;
using prodb::Tuple;
using prodb::TupleId;
using prodb::Value;
using prodb::net::MsgType;
using prodb::net::RuleClient;
using prodb::net::RuleServer;
using prodb::net::RuleServerOptions;
using prodb::net::WireBatch;
using prodb::net::WireBatchAck;
using prodb::net::WireConflictDelta;
using prodb::net::WireOp;

/// One closed-loop client: a second one adds no parallelism (the server
/// serialises match maintenance), only lock hand-offs between sessions
/// whose timing the host's scheduler decides.
constexpr size_t kClients = 1;
constexpr size_t kLivePerClass = 1024;
constexpr int64_t kKeyDomain = kLivePerClass;  // join fan-out about 1
constexpr int64_t kFilterDomain = 8;           // filter keeps 1 in 8
constexpr size_t kOpsPerBatch = 16;
/// Segments of the timed window, each after a set-up and a restart: the
/// latency and throughput metrics are taken over the segments, setup_s
/// and restart_s over the set-ups and restarts (about 25 ms each).
constexpr size_t kSegments = 10;
/// Well below the ~50 pages the paged WM and its COND relations occupy.
constexpr size_t kDurablePoolFrames = 16;
/// Batches per client in each fixed-size traced phase.
constexpr size_t kTracedBatches = 300;
constexpr size_t kPings = 2000;
/// Untimed batches per client before the timed window.
constexpr size_t kPreBatches = 1000;

std::string ClassName(size_t client, int which) {
  return (which == 0 ? "A" : "B") + std::to_string(client);
}

std::string Program() {
  std::string src;
  for (size_t c = 0; c < kClients; ++c) {
    const std::string a = ClassName(c, 0), b = ClassName(c, 1);
    src += "(literalize " + a + " k g v s)\n";
    src += "(literalize " + b + " k w s)\n";
    src += "(p filter" + std::to_string(c) + " (" + a +
           " ^g 0 ^v <v>) --> (remove 1))\n";
    src += "(p join" + std::to_string(c) + " (" + a + " ^k <k>) (" + b +
           " ^k <k>) --> (remove 1))\n";
  }
  return src;
}

size_t UserBytes(const Tuple& t) {
  std::string s;
  t.SerializeTo(&s);
  return s.size();
}

struct Live {
  TupleId id;
  Tuple tuple;
  bool from_make = false;
};

/// One client's view of its two classes: the live tuples it was acked,
/// and the seeded generator of its op stream. Targets of removes and
/// modifies are picked by index among live tuples known from earlier
/// acks, so the logical stream depends only on the seed.
class ClientModel {
 public:
  ClientModel(size_t client, uint64_t seed)
      : client_(client), rng_(seed * 1000003 + client * 7919 + 17) {}

  /// Next batch of makes toward kLivePerClass per class; false when full.
  bool NextFillBatch(WireBatch* batch) {
    batch->ops.clear();
    pending_.clear();
    for (int w = 0; w < 2 && batch->ops.size() < kOpsPerBatch; ++w) {
      size_t have = live_[w].size();
      while (have < kLivePerClass && batch->ops.size() < kOpsPerBatch) {
        AddMake(w, batch);
        ++have;
      }
    }
    return !batch->ops.empty();
  }

  /// A steady-state batch: makes balance removes, so WM size is fixed.
  void NextBatch(WireBatch* batch) {
    batch->ops.clear();
    pending_.clear();
    taken_.clear();
    for (size_t pair = 0; pair < kOpsPerBatch / 2; ++pair) {
      if (rng_.Uniform(2) == 0) {
        const int w = static_cast<int>(rng_.Uniform(2));
        AddMake(w, batch);
        AddTargeted(prodb::net::kOpRemove, w, batch);
      } else {
        AddTargeted(prodb::net::kOpModify, static_cast<int>(rng_.Uniform(2)),
                    batch);
        AddTargeted(prodb::net::kOpModify, static_cast<int>(rng_.Uniform(2)),
                    batch);
      }
    }
    // Shuffle ops (and their bookkeeping) so kinds interleave.
    for (size_t i = batch->ops.size(); i > 1; --i) {
      size_t j = rng_.Uniform(i);
      std::swap(batch->ops[i - 1], batch->ops[j]);
      std::swap(pending_[i - 1], pending_[j]);
    }
  }

  /// Folds the ack of the last generated batch into the model.
  bool ApplyAck(const WireBatch& batch, const WireBatchAck& ack) {
    size_t next_id = 0;
    std::vector<std::pair<int, size_t>> removes;
    std::vector<Live> makes[2];
    for (size_t i = 0; i < batch.ops.size(); ++i) {
      const WireOp& op = batch.ops[i];
      const Pending& p = pending_[i];
      if (op.kind == prodb::net::kOpRemove) {
        removes.emplace_back(p.which, p.index);
        continue;
      }
      if (next_id >= ack.insert_ids.size()) return false;
      Live live{ack.insert_ids[next_id++], op.tuple,
                op.kind == prodb::net::kOpMake};
      if (op.kind == prodb::net::kOpModify) {
        live_[p.which][p.index] = std::move(live);
      } else {
        makes[p.which].push_back(std::move(live));
      }
    }
    if (next_id != ack.insert_ids.size()) return false;
    std::sort(removes.begin(), removes.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [w, idx] : removes) {
      live_[w][idx] = std::move(live_[w].back());
      live_[w].pop_back();
    }
    for (int w = 0; w < 2; ++w) {
      for (Live& l : makes[w]) live_[w].push_back(std::move(l));
    }
    return true;
  }

  std::vector<Live>& live(int which) { return live_[which]; }
  const std::vector<Live>& live(int which) const { return live_[which]; }

  size_t LiveUserBytes() const {
    size_t total = 0;
    for (int w = 0; w < 2; ++w) {
      for (const Live& l : live_[w]) total += UserBytes(l.tuple);
    }
    return total;
  }

 private:
  struct Pending {
    int which;
    size_t index;  // target index for removes/modifies
  };

  Tuple NewTuple(int which) {
    const int64_t k = static_cast<int64_t>(rng_.Uniform(kKeyDomain));
    const int64_t s = serial_++;
    if (which == 0) {
      return Tuple{Value(k),
                   Value(static_cast<int64_t>(rng_.Uniform(kFilterDomain))),
                   Value(static_cast<int64_t>(rng_.Uniform(1 << 20))),
                   Value(s)};
    }
    return Tuple{Value(k), Value(static_cast<int64_t>(rng_.Uniform(1 << 20))),
                 Value(s)};
  }

  void AddMake(int which, WireBatch* batch) {
    WireOp op;
    op.kind = prodb::net::kOpMake;
    op.cls = ClassName(client_, which);
    op.tuple = NewTuple(which);
    batch->ops.push_back(std::move(op));
    pending_.push_back(Pending{which, 0});
  }

  /// A remove or modify of a distinct live tuple of class `which`.
  void AddTargeted(uint8_t kind, int which, WireBatch* batch) {
    const std::vector<Live>& pool = live_[which];
    size_t idx = 0;
    do {
      idx = rng_.Uniform(pool.size());
    } while (!taken_.insert((static_cast<uint64_t>(which) << 32) | idx).second);
    WireOp op;
    op.kind = kind;
    op.cls = ClassName(client_, which);
    op.id = pool[idx].id;
    if (kind == prodb::net::kOpModify) op.tuple = NewTuple(which);
    batch->ops.push_back(std::move(op));
    pending_.push_back(Pending{which, idx});
  }

  size_t client_;
  Rng rng_;
  int64_t serial_ = 0;
  std::vector<Live> live_[2];
  std::vector<Pending> pending_;
  std::unordered_set<uint64_t> taken_;
};

/// A batch as sent and acked, kept by traced runs for the replay.
struct Recorded {
  WireBatch batch;
  WireBatchAck ack;
};

/// One client connection and everything it observed.
struct ClientRun {
  ClientRun(size_t client, uint64_t seed, bool traced)
      : index(client), model(client, seed), tracer(traced) {}

  size_t index;
  RuleClient conn;
  ClientModel model;
  Tracer tracer;
  /// Conflict set accumulated from ack deltas (keys).
  std::unordered_set<std::string> conflict;
  bool conflict_consistent = true;
  std::vector<double> latency_us;
  uint64_t ops_attempted = 0;
  uint64_t ops_failed = 0;
  uint64_t batches_acked = 0;
  uint64_t conflict_deltas = 0;
  uint64_t user_bytes_sent = 0;
  uint64_t last_lsn = 0;
  bool acks_ok = true;  // every ack positive (and durable, when asked)
  int64_t end_ns = 0;
  bool record = false;
  std::vector<Recorded> recorded;
};

/// Folds an ack's conflict-set delta into the client's accumulated set.
void FoldConflict(ClientRun* c, const WireBatchAck& ack) {
  for (const WireConflictDelta& d : ack.conflict) {
    bool changed = d.added ? c->conflict.insert(d.key).second
                           : c->conflict.erase(d.key) == 1;
    if (!changed) c->conflict_consistent = false;
  }
  c->conflict_deltas += ack.conflict.size();
}

/// Sends one batch through encode -> round trip -> decode, checks the ack
/// and folds it into the client's model and conflict set. Returns false
/// when the batch failed (the client then stops).
bool SendBatch(ClientRun* c, const WireBatch& batch, bool durable,
               uint64_t group, bool timed) {
  Tracer* tr = &c->tracer;
  const int64_t t0 = timed ? NowNs() : 0;
  Scope root(tr, "client.batch", group);
  std::string payload;
  {
    Scope s(tr, "client.encode", group, root.id());
    prodb::net::EncodeBatch(batch, &payload);
  }
  MsgType type;
  std::string reply;
  Status st;
  {
    Scope s(tr, "client.round_trip", group, root.id());
    st = c->conn.RoundTrip(MsgType::kBatch, payload, &type, &reply);
  }
  WireBatchAck ack;
  if (st.ok()) {
    Scope s(tr, "client.decode", group, root.id());
    if (type == MsgType::kBatchAck) {
      st = prodb::net::DecodeBatchAck(reply, &ack);
    } else if (type == MsgType::kError) {
      st = prodb::net::DecodeError(reply);
    } else {
      st = Status::Corruption("unexpected reply type");
    }
  }
  const int64_t t1 = timed ? NowNs() : 0;
  c->ops_attempted += batch.ops.size();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: batch failed: %s\n", st.ToString().c_str());
    c->ops_failed += batch.ops.size();
    c->acks_ok = false;
    return false;
  }
  if (durable) {
    if (!ack.durable || ack.durable_lsn < c->last_lsn) c->acks_ok = false;
    c->last_lsn = ack.durable_lsn;
  }
  if (timed) {
    c->latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  if (!c->model.ApplyAck(batch, ack)) c->acks_ok = false;
  FoldConflict(c, ack);
  c->batches_acked += 1;
  for (const WireOp& op : batch.ops) {
    if (op.kind != prodb::net::kOpRemove) c->user_bytes_sent += UserBytes(op.tuple);
  }
  if (c->record) c->recorded.push_back(Recorded{batch, std::move(ack)});
  return true;
}

ProductionSystemOptions SystemOptions(bool durable, const std::string& db,
                                      bool reopen) {
  ProductionSystemOptions opts;  // shipped defaults: pattern matcher
  if (durable) {
    opts.wm_storage = prodb::StorageKind::kPaged;
    opts.db_path = db;
    opts.open_existing = reopen;
    opts.enable_wal = true;
    opts.durable_directory = true;
    opts.buffer_pool_frames = kDurablePoolFrames;
  }
  return opts;
}

/// The served system: a RuleServer plus its connected clients.
struct Deployment {
  std::unique_ptr<RuleServer> server;
  std::vector<std::unique_ptr<ClientRun>> clients;
};

/// Start + load + fill. Returns the load (start + kLoad) and fill times.
void SetUp(const Args& args, bool durable, const std::string& db,
           bool traced, Deployment* d, double* load_s, double* fill_s) {
  std::filesystem::remove(db);
  const int64_t t0 = NowNs();
  RuleServerOptions opts;
  opts.tcp_port = 0;
  opts.system = SystemOptions(durable, db, /*reopen=*/false);
  d->server = std::make_unique<RuleServer>(opts);
  Require(d->server->Start(), "server start");
  {
    RuleClient admin;
    Require(admin.ConnectTcp("127.0.0.1", d->server->tcp_port()), "connect");
    Require(admin.Load(Program()), "load program");
  }
  d->clients.clear();
  for (size_t c = 0; c < kClients; ++c) {
    d->clients.push_back(std::make_unique<ClientRun>(c, args.seed, traced));
    d->clients[c]->record = traced;
    Require(d->clients[c]->conn.ConnectTcp("127.0.0.1", d->server->tcp_port()),
            "connect");
  }
  const int64_t t1 = NowNs();
  std::vector<std::thread> threads;
  for (auto& cp : d->clients) {
    ClientRun* c = cp.get();
    threads.emplace_back([c, durable] {
      WireBatch batch;
      uint64_t group = 0;
      while (c->model.NextFillBatch(&batch)) {
        if (!SendBatch(c, batch, durable, group++, /*timed=*/false)) return;
      }
    });
  }
  for (auto& t : threads) t.join();
  *load_s = static_cast<double>(t1 - t0) * 1e-9;
  *fill_s = SecondsSince(t1);
}

/// Runs the clients in a closed loop, either for `seconds` or for
/// `batches` batches each. Returns the phase's start time; the phase
/// ends at the latest client's end_ns.
int64_t Drive(Deployment* d, bool durable, double seconds, size_t batches,
              bool traced_phase) {
  std::latch start(static_cast<ptrdiff_t>(kClients) + 1);
  int64_t deadline_ns = 0;
  std::vector<std::thread> threads;
  for (auto& cp : d->clients) {
    ClientRun* c = cp.get();
    threads.emplace_back([&, c] {
      Tracer untraced(false);
      if (!traced_phase) std::swap(c->tracer, untraced);
      WireBatch batch;
      start.arrive_and_wait();
      for (size_t n = 0;; ++n) {
        if (batches == 0 ? NowNs() >= deadline_ns : n >= batches) break;
        c->model.NextBatch(&batch);
        if (!SendBatch(c, batch, durable, c->batches_acked, /*timed=*/true)) break;
      }
      c->end_ns = NowNs();
      if (!traced_phase) std::swap(c->tracer, untraced);
    });
  }
  const int64_t t0 = NowNs();
  deadline_ns = t0 + static_cast<int64_t>(seconds * 1e9);
  start.arrive_and_wait();
  for (auto& t : threads) t.join();
  return t0;
}

double PhaseSeconds(const Deployment& d, int64_t start_ns) {
  int64_t end = start_ns;
  for (const auto& c : d.clients) end = std::max(end, c->end_ns);
  return static_cast<double>(end - start_ns) * 1e-9;
}

/// Every class dump equals the client's model of its live tuples.
bool DumpMatchesModel(RuleClient* conn, const Deployment& d) {
  for (size_t c = 0; c < kClients; ++c) {
    for (int w = 0; w < 2; ++w) {
      prodb::net::WireDumpReply dump;
      if (!conn->DumpClass(ClassName(c, w), &dump).ok()) return false;
      std::vector<std::pair<TupleId, Tuple>> want;
      for (const Live& l : d.clients[c]->model.live(w)) {
        want.emplace_back(l.id, l.tuple);
      }
      auto by_id = [](const auto& a, const auto& b) { return a.first < b.first; };
      std::sort(want.begin(), want.end(), by_id);
      std::sort(dump.tuples.begin(), dump.tuples.end(), by_id);
      if (want != dump.tuples) return false;
    }
  }
  return true;
}

/// Maps tuple ids of one system onto another's, per class.
class IdMap {
 public:
  void Set(const std::string& cls, TupleId from, TupleId to) {
    map_[cls][from.AsU64()] = to;
  }
  bool Get(const std::string& cls, TupleId from, TupleId* to) const {
    auto c = map_.find(cls);
    if (c == map_.end()) return false;
    auto it = c->second.find(from.AsU64());
    if (it == c->second.end()) return false;
    *to = it->second;
    return true;
  }
  void Erase(const std::string& cls, TupleId from) {
    map_[cls].erase(from.AsU64());
  }

 private:
  std::unordered_map<std::string, std::unordered_map<uint64_t, TupleId>> map_;
};

/// Rewrites a conflict-set key ("rule|page.slot|...") into another id
/// space; the classes come from the rule's condition elements.
bool TranslateKey(const std::string& key, const std::vector<prodb::Rule>& rules,
                  const IdMap& map, std::string* out) {
  size_t bar = key.find('|');
  const size_t rule = std::stoul(key.substr(0, bar));
  if (rule >= rules.size()) return false;
  *out = key.substr(0, bar);
  size_t ce = 0;
  while (bar != std::string::npos) {
    size_t next = key.find('|', bar + 1);
    std::string part = key.substr(bar + 1, next == std::string::npos
                                               ? std::string::npos
                                               : next - bar - 1);
    size_t dot = part.find('.');
    TupleId id{static_cast<uint32_t>(std::stoul(part.substr(0, dot))),
               static_cast<uint32_t>(std::stoul(part.substr(dot + 1)))};
    if (id != prodb::Instantiation::kNoTuple) {
      if (ce >= rules[rule].lhs.conditions.size()) return false;
      if (!map.Get(rules[rule].lhs.conditions[ce].relation, id, &id)) {
        return false;
      }
    }
    *out += "|" + std::to_string(id.page_id) + "." + std::to_string(id.slot_id);
    bar = next;
    ++ce;
  }
  return true;
}

std::unordered_set<std::string> AckedConflictSet(const Deployment& d) {
  std::unordered_set<std::string> all;
  for (const auto& c : d.clients) all.insert(c->conflict.begin(), c->conflict.end());
  return all;
}

/// The conflict set a fresh in-process system derives from the acked
/// state, in the server's id space.
bool RecomputedConflictSetMatches(const Deployment& d) {
  ProductionSystem ps;
  Require(ps.LoadString(Program()), "load program");
  IdMap to_server;
  prodb::WorkingMemory& wm = ps.working_memory();
  wm.BeginBatch();
  for (size_t c = 0; c < kClients; ++c) {
    for (int w = 0; w < 2; ++w) {
      const std::string cls = ClassName(c, w);
      for (const Live& l : d.clients[c]->model.live(w)) {
        TupleId id;
        Require(wm.Insert(cls, l.tuple, &id), "replay insert");
        to_server.Set(cls, id, l.id);
      }
    }
  }
  Require(wm.CommitBatch(), "replay commit");
  std::unordered_set<std::string> got;
  for (const prodb::Instantiation& inst : ps.conflict_set().Snapshot()) {
    std::string key;
    if (!TranslateKey(inst.Key(), ps.rules(), to_server, &key)) return false;
    got.insert(std::move(key));
  }
  return got == AckedConflictSet(d);
}

/// Restarts the volatile served system (start, load, and the clients
/// re-send their live tuples) and checks the dump against the client
/// model. The clients reconnect to the restarted server. Returns seconds.
double Restart(Deployment* d, Result* result) {
  for (auto& c : d->clients) c->conn.Close();
  d->server.reset();
  const int64_t t0 = NowNs();
  RuleServerOptions opts;
  opts.tcp_port = 0;
  opts.preload = Program();
  d->server = std::make_unique<RuleServer>(opts);
  Require(d->server->Start(), "server restart");
  const int port = d->server->tcp_port();
  std::vector<std::thread> threads;
  for (auto& cp : d->clients) {
    ClientRun* c = cp.get();
    threads.emplace_back([c, port] {
      Require(c->conn.ConnectTcp("127.0.0.1", port), "connect");
      // A volatile server restarts empty: the client re-sends its state,
      // and its conflict set restarts from the re-sent state's acks.
      c->conflict.clear();
      for (int w = 0; w < 2; ++w) {
        std::vector<Live>& live = c->model.live(w);
        for (size_t i = 0; i < live.size(); i += kOpsPerBatch) {
          WireBatch batch;
          const size_t end = std::min(live.size(), i + kOpsPerBatch);
          for (size_t j = i; j < end; ++j) {
            WireOp op;
            op.kind = prodb::net::kOpMake;
            op.cls = ClassName(c->index, w);
            op.tuple = live[j].tuple;
            batch.ops.push_back(std::move(op));
          }
          WireBatchAck ack;
          if (!c->conn.Apply(batch, &ack).ok() || ack.insert_ids.size() != end - i) {
            c->acks_ok = false;
            return;
          }
          for (size_t j = i; j < end; ++j) live[j].id = ack.insert_ids[j - i];
          FoldConflict(c, ack);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = SecondsSince(t0);
  result->Check(DumpMatchesModel(&d->clients[0]->conn, *d),
                "restarted dump equals acked state");
  return seconds;
}

std::string DbPath(const Args& args, const char* name) {
  return args.work_dir + "/" + name + ".db";
}

void CheckAcks(const Deployment& d, bool durable, Result* result) {
  for (const auto& c : d.clients) {
    result->Check(c->acks_ok, durable ? "every ack positive, durable, LSN monotone"
                                      : "every ack positive");
    result->Check(c->conflict_consistent,
                  "ack conflict deltas add absent / remove present keys");
  }
}

void ApplyFault(const Args& args, Deployment* d) {
  if (args.fault != Fault::kDropMake) return;
  std::vector<Live>& live = d->clients[0]->model.live(0);
  for (size_t i = live.size(); i-- > 0;) {
    if (live[i].from_make) {
      live.erase(live.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace

void RunIngest(const Args& args, Result* result) {
  const std::string db = DbPath(args, "ingest-mem");
  Deployment d;
  double load_s = 0, fill_s = 0;
  SetUp(args, /*durable=*/false, db, /*traced=*/false, &d, &load_s, &fill_s);
  std::vector<double> setups{load_s + fill_s};
  // Space of the loaded state: measured before the churn, so it does not
  // grow with the number of ops the window happens to fit.
  size_t user_bytes = 0;
  for (const auto& c : d.clients) user_bytes += c->model.LiveUserBytes();
  const double stored_bytes =
      static_cast<double>(d.server->system().catalog().FootprintBytes());

  // A fixed-size untimed phase is the warm-up. The timed window is cut
  // into segments, each on a restarted server (a restart re-sends the
  // live tuples, whose count is fixed) and each after one more set-up of
  // a server of its own, so set-ups and restarts are spread over the run
  // like the segments.
  Drive(&d, /*durable=*/false, 0, kPreBatches, /*traced_phase=*/false);
  uint64_t attempted_before = 0, failed_before = 0;
  for (const auto& c : d.clients) {
    attempted_before += c->ops_attempted;
    failed_before += c->ops_failed;
  }
  std::vector<double> restarts, rates, p50s, p99s;
  size_t batches = 0;
  for (size_t s = 0; s < kSegments; ++s) {
    {
      Deployment side;
      SetUp(args, /*durable=*/false, DbPath(args, "ingest-mem-setup"), /*traced=*/false,
            &side, &load_s, &fill_s);
      setups.push_back(load_s + fill_s);
    }
    restarts.push_back(Restart(&d, result));
    for (auto& c : d.clients) c->latency_us.clear();
    const int64_t start = Drive(&d, /*durable=*/false, args.seconds / kSegments, 0,
                                /*traced_phase=*/false);
    const double segment_s = PhaseSeconds(d, start);
    std::vector<double> latency;
    for (const auto& c : d.clients) {
      latency.insert(latency.end(), c->latency_us.begin(), c->latency_us.end());
    }
    rates.push_back(static_cast<double>(latency.size() * kOpsPerBatch) / segment_s);
    p50s.push_back(Percentile(latency, 0.5));
    p99s.push_back(Percentile(latency, 0.99));
    batches += latency.size();
  }
  for (const auto& c : d.clients) {
    result->attempted += c->ops_attempted;
    result->failed += c->ops_failed;
  }
  result->attempted -= attempted_before;
  result->failed -= failed_before;

  CheckAcks(d, /*durable=*/false, result);
  ApplyFault(args, &d);
  result->Check(DumpMatchesModel(&d.clients[0]->conn, d), "dump equals client model");
  result->Check(RecomputedConflictSetMatches(d),
                "acked conflict set equals replay of the acked state");
  // The server's heap: what stopping it gives back. The client models
  // and the window's samples are live in both readings.
  const double heap_with_server = HeapMb();
  for (auto& c : d.clients) c->conn.Close();
  d.server.reset();
  const double heap_mb = heap_with_server - HeapMb();
  d = Deployment{};

  result->Add("throughput_per_s", Median(rates), "1/s");
  result->Add("latency_p50_us", Median(p50s), "us");
  result->Add("latency_tail_us", Median(p99s), "us");
  result->Add("setup_s", Median(setups), "s");
  result->Add("restart_s", Median(restarts), "s");
  result->Add("space_amp", stored_bytes / static_cast<double>(user_bytes), "ratio");
  result->Add("heap_mb", heap_mb, "MiB");
  std::fprintf(stderr, "perfbench: %zu batches acked in %zu segments of %.2f s\n",
               batches, kSegments, args.seconds / kSegments);
}

namespace {

/// What the single-threaded in-process replay observed.
struct ReplayOutcome {
  uint64_t ops = 0;      // ops replayed after the fill
  uint64_t batches = 0;  // batches replayed after the fill
  uint64_t wire_bytes = 0;
  uint64_t txn_calls = 0;
  MatchCounts match;  // counter deltas after the fill
  prodb::BufferPoolStats pool;
  prodb::DurabilityStats durability;
  bool deltas_match = true;
  bool conflict_set_matches = false;
};

std::vector<std::string> SortedDeltas(const std::vector<WireConflictDelta>& ds) {
  std::vector<std::string> out;
  for (const WireConflictDelta& d : ds) {
    out.push_back((d.added ? "+" : "-") + d.rule + "/" + d.key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Replays the recorded batches (clients round-robin) into a fresh system
/// through the calls the server's batch path makes: DecodeBatch,
/// TxnManager::Begin, Transaction ops, Matcher::OnBatch,
/// TxnManager::Commit, EncodeBatchAck (plus the client's
/// EncodeBatch/DecodeBatchAck), one span per call. Fill batches are
/// replayed without spans.
class Replayer {
 public:
  Replayer(bool durable, const std::string& db, const Deployment& d,
           size_t fill_batches, Tracer* tracer)
      : durable_(durable), db_(db), d_(d), fill_batches_(fill_batches), tracer_(tracer) {
    std::filesystem::remove(db_);
    ps_ = std::make_unique<ProductionSystem>(SystemOptions(durable, db_, /*reopen=*/false));
    Require(ps_->LoadString(Program()), "load program");
    for (const auto& c : d_.clients) rounds_ = std::max(rounds_, c->recorded.size());
  }
  ~Replayer() {
    ps_.reset();
    std::filesystem::remove(db_);
  }

  size_t rounds() const { return rounds_; }
  size_t fill_batches() const { return fill_batches_; }

  /// Replays client c's batch of round r, if it has one. Returns the
  /// nanoseconds from encode to decoded ack.
  double Batch(size_t r, const ClientRun& c);

  /// Counter deltas since the fill, and the final conflict-set check.
  ReplayOutcome Finish();

 private:
  bool durable_;
  std::string db_;
  const Deployment& d_;
  size_t fill_batches_;
  Tracer* tracer_;
  Tracer quiet_{false};
  std::unique_ptr<ProductionSystem> ps_;
  size_t rounds_ = 0;
  IdMap to_replay_, to_server_;
  MatchCounts match_before_;
  prodb::BufferPoolStats pool_before_;
  ReplayOutcome out_;
};

double Replayer::Batch(size_t r, const ClientRun& c) {
  if (r >= c.recorded.size()) return 0;
  if (r == fill_batches_ && c.index == 0) {
    match_before_ = MatchCounts::Of(ps_->matcher().stats());
    if (durable_) pool_before_ = ps_->catalog().buffer_pool()->stats();
  }
  prodb::TxnManager& txns = ps_->concurrent_engine().txn_manager();
  prodb::ConflictSet& cs = ps_->conflict_set();
  Tracer* tr = r < fill_batches_ ? &quiet_ : tracer_;
  const Recorded& rec = c.recorded[r];
  const uint64_t group = r * kClients + c.index;
  WireBatch sent = rec.batch;
  for (WireOp& op : sent.ops) {
    if (op.kind != prodb::net::kOpMake && !to_replay_.Get(op.cls, op.id, &op.id)) {
      out_.deltas_match = false;
    }
  }
  const int64_t t0 = NowNs();
  Scope root(tr, "replay.batch", group);
  std::string payload;
  {
    Scope s(tr, "net.encode_batch", group, root.id());
    prodb::net::EncodeBatch(sent, &payload);
  }
  WireBatch batch;
  {
    Scope s(tr, "net.decode_batch", group, root.id());
    Require(prodb::net::DecodeBatch(payload, &batch), "decode batch");
  }
  std::unique_ptr<prodb::Transaction> txn;
  {
    Scope s(tr, "txn.begin", group, root.id());
    txn = txns.Begin();
  }
  ChangeSet delta;
  WireBatchAck ack;
  for (const WireOp& op : batch.ops) {
    TupleId id;
    Tuple old;
    if (op.kind != prodb::net::kOpMake) {
      {
        Scope s(tr, "txn.read", group, root.id());
        Require(txn->Read(op.cls, op.id, &old), "txn read");
      }
      Scope s(tr, "txn.delete", group, root.id());
      Require(txn->Delete(op.cls, op.id), "txn delete");
      out_.txn_calls += 2;
    }
    if (op.kind != prodb::net::kOpRemove) {
      Scope s(tr, "txn.insert", group, root.id());
      Require(txn->Insert(op.cls, op.tuple, &id), "txn insert");
      ack.insert_ids.push_back(id);
      out_.txn_calls += 1;
    }
    if (op.kind == prodb::net::kOpMake) {
      delta.AddInsert(op.cls, op.tuple, id);
    } else if (op.kind == prodb::net::kOpRemove) {
      delta.AddDelete(op.cls, op.id, old);
    } else {
      delta.AddModify(op.cls, op.id, old, op.tuple, id);
    }
  }
  cs.SetDeltaListener([&](bool added, const std::string& key,
                          const prodb::Instantiation* inst) {
    WireConflictDelta cd;
    cd.added = added;
    cd.key = key;
    if (inst != nullptr) cd.rule = inst->rule_name;
    ack.conflict.push_back(std::move(cd));
  });
  {
    Scope s(tr, "match.on_batch", group, root.id());
    Require(ps_->matcher().OnBatch(delta), "OnBatch");
  }
  cs.SetDeltaListener(nullptr);
  {
    Scope s(tr, "txn.commit", group, root.id());
    Require(txns.Commit(txn.get()), "commit");
  }
  ack.txn_id = txn->id();
  if (prodb::LogManager* wal = ps_->catalog().wal()) {
    ack.durable = true;
    ack.durable_lsn = wal->flushed_lsn();
  }
  std::string ack_bytes;
  {
    Scope s(tr, "net.encode_ack", group, root.id());
    prodb::net::EncodeBatchAck(ack, &ack_bytes);
  }
  WireBatchAck decoded;
  {
    Scope s(tr, "net.decode_ack", group, root.id());
    Require(prodb::net::DecodeBatchAck(ack_bytes, &decoded), "decode ack");
  }
  const int64_t t1 = NowNs();
  // Map the new ids both ways, translate this batch's conflict deltas
  // into the server's id space, then forget the old ids.
  size_t next = 0;
  for (const WireOp& op : batch.ops) {
    if (op.kind == prodb::net::kOpRemove) continue;
    if (next >= rec.ack.insert_ids.size()) {
      out_.deltas_match = false;
      break;
    }
    to_replay_.Set(op.cls, rec.ack.insert_ids[next], decoded.insert_ids[next]);
    to_server_.Set(op.cls, decoded.insert_ids[next], rec.ack.insert_ids[next]);
    ++next;
  }
  for (WireConflictDelta& cd : decoded.conflict) {
    std::string key;
    if (!TranslateKey(cd.key, ps_->rules(), to_server_, &key)) out_.deltas_match = false;
    cd.key = std::move(key);
  }
  if (SortedDeltas(decoded.conflict) != SortedDeltas(rec.ack.conflict)) {
    out_.deltas_match = false;
  }
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const WireOp& op = batch.ops[i];
    if (op.kind == prodb::net::kOpMake) continue;
    to_replay_.Erase(op.cls, rec.batch.ops[i].id);
    to_server_.Erase(op.cls, op.id);
  }
  if (r >= fill_batches_) {
    out_.ops += batch.ops.size();
    out_.batches += 1;
    out_.wire_bytes += payload.size() + ack_bytes.size();
  }
  return static_cast<double>(t1 - t0);
}

ReplayOutcome Replayer::Finish() {
  out_.match = MatchCounts::Of(ps_->matcher().stats()) - match_before_;
  if (durable_) {
    prodb::BufferPoolStats now = ps_->catalog().buffer_pool()->stats();
    out_.pool.hits = now.hits - pool_before_.hits;
    out_.pool.misses = now.misses - pool_before_.misses;
    out_.pool.evictions = now.evictions - pool_before_.evictions;
    out_.pool.dirty_writebacks = now.dirty_writebacks - pool_before_.dirty_writebacks;
    out_.pool.pages_stolen = now.pages_stolen - pool_before_.pages_stolen;
  }
  out_.durability = ps_->catalog().GetDurabilityStats();
  std::unordered_set<std::string> got;
  bool translated = true;
  for (const prodb::Instantiation& inst : ps_->conflict_set().Snapshot()) {
    std::string key;
    translated = TranslateKey(inst.Key(), ps_->rules(), to_server_, &key) && translated;
    got.insert(std::move(key));
  }
  out_.conflict_set_matches = translated && got == AckedConflictSet(d_);
  return out_;
}

double PerOp(double count, double ops) { return ops > 0 ? count / ops : 0; }

uint64_t Counter(const prodb::net::WireStatsReply& r, const std::string& name) {
  for (const auto& [k, v] : r.counters) {
    if (k == name) return v;
  }
  return 0;
}

}  // namespace

void TraceIngest(const Args& args, bool durable, unsigned groups,
                 Result* result) {
  const std::string name = durable ? "ingest-durable" : "ingest-mem";
  const std::string db = DbPath(args, durable ? "trace-durable" : "trace-mem");
  Deployment d;
  double load_s = 0, fill_s = 0;
  SetUp(args, durable, db, /*traced=*/true, &d, &load_s, &fill_s);
  const size_t fill_batches = d.clients[0]->recorded.size();
  for (const auto& c : d.clients) {
    result->Check(c->recorded.size() == fill_batches, "equal fill per client");
  }
  RuleClient admin;
  Require(admin.ConnectTcp("127.0.0.1", d.server->tcp_port()), "connect");
  std::vector<double> pings;
  for (size_t i = 0; i < kPings; ++i) {
    const int64_t t0 = NowNs();
    Require(admin.Ping(), "ping");
    pings.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }

  // Phase A, untraced: log and kStats counters read at its edges.
  auto sent = [&](uint64_t* ops, uint64_t* user_bytes) {
    *ops = *user_bytes = 0;
    for (const auto& c : d.clients) {
      *ops += c->ops_attempted;
      *user_bytes += c->user_bytes_sent;
    }
  };
  prodb::net::WireStatsReply stats0, stats1;
  Require(admin.GetStats(&stats0), "stats");
  prodb::DurabilityStats log0 = d.server->system().catalog().GetDurabilityStats();
  uint64_t ops0, bytes0, ops1, bytes1;
  sent(&ops0, &bytes0);
  Drive(&d, durable, 0, kTracedBatches, false);
  Require(admin.GetStats(&stats1), "stats");
  prodb::DurabilityStats log1 = d.server->system().catalog().GetDurabilityStats();
  sent(&ops1, &bytes1);
  // Phase B, traced: client spans around encode, round trip and decode.
  Drive(&d, durable, 0, kTracedBatches, true);

  CheckAcks(d, durable, result);
  ApplyFault(args, &d);
  result->Check(DumpMatchesModel(&admin, d), "dump equals client model");
  admin.Close();
  size_t live = 0;
  for (const auto& c : d.clients) live += c->model.live(0).size() + c->model.live(1).size();
  const double wm_bytes =
      static_cast<double>(d.server->system().catalog().FootprintBytes());
  uint64_t acked_deltas = 0, acked_batches = 0;
  for (const auto& c : d.clients) {
    result->attempted += c->ops_attempted;
    result->failed += c->ops_failed;
    for (size_t i = fill_batches; i < c->recorded.size(); ++i) {
      acked_deltas += c->recorded[i].ack.conflict.size();
      acked_batches += 1;
    }
  }
  d.server->Stop();
  d.server.reset();

  // The replay with spans. For the spans' overhead, the same replay also
  // runs without spans in lockstep, batch by batch, the two taking turns
  // to go first; the overhead is the median of the per-batch time ratios.
  Tracer off(false), replay_tracer(true);
  ReplayOutcome rp;
  double overhead = 0;
  {
    Replayer traced(durable, DbPath(args, "replay"), d, fill_batches, &replay_tracer);
    std::unique_ptr<Replayer> quiet;
    if (groups & kGeneric) {
      quiet = std::make_unique<Replayer>(durable, DbPath(args, "replay-quiet"), d,
                                         fill_batches, &off);
    }
    std::vector<double> ratios;
    for (size_t r = 0; r < traced.rounds(); ++r) {
      for (const auto& c : d.clients) {
        if (quiet == nullptr) {
          traced.Batch(r, *c);
          continue;
        }
        double with = 0, without = 0;
        if ((r + c->index) % 2 == 0) {
          with = traced.Batch(r, *c);
          without = quiet->Batch(r, *c);
        } else {
          without = quiet->Batch(r, *c);
          with = traced.Batch(r, *c);
        }
        if (r >= fill_batches && without > 0) ratios.push_back(with / without);
      }
    }
    rp = traced.Finish();
    if (quiet != nullptr) overhead = Median(ratios) - 1;
  }
  result->Check(rp.deltas_match, "replayed conflict deltas equal acked deltas");
  result->Check(rp.conflict_set_matches,
                "acked conflict set equals the replay's conflict set");

  const std::string p = name + ".";
  result->Count(p + "replay.ops", rp.ops);
  result->Count(p + "replay.txn_calls", rp.txn_calls);
  result->Count(p + "replay.propagations", rp.match.propagations);
  result->Count(p + "replay.alpha_tests", rp.match.alpha_tests);
  result->Count(p + "replay.index_probes", rp.match.index_probes);
  result->Count(p + "replay.wal_records", rp.durability.wal_records_appended);
  result->Count(p + "replay.wal_bytes", rp.durability.wal_bytes_appended);
  result->Count(p + "replay.pool_hits", rp.pool.hits);
  result->Count(p + "replay.pool_misses", rp.pool.misses);
  result->Count(p + "replay.evictions", rp.pool.evictions);
  result->Count(p + "replay.pages_stolen", rp.pool.pages_stolen);

  const double ops = static_cast<double>(rp.ops);
  if (groups & kGeneric) {
    result->Add("setup.load_ms", load_s * 1e3, "ms");
    result->Add("setup.fill_ms", fill_s * 1e3, "ms");
    result->Add("db.wm_bytes_per_tuple", wm_bytes / static_cast<double>(live), "B");
    result->Add("trace.overhead_frac", overhead, "frac");
    AddMatchPerOp(rp.match, ops, result);
  }
  if (groups & kServing) {
    const Tracer& t = replay_tracer;
    result->Add("net.ping_us", Median(pings), "us");
    result->Add("net.codec_ns_per_op",
                (t.TotalNs("net.encode_batch") + t.TotalNs("net.decode_batch") +
                 t.TotalNs("net.encode_ack") + t.TotalNs("net.decode_ack")) / ops,
                "ns");
    result->Add("net.bytes_per_op", static_cast<double>(rp.wire_bytes) / ops, "B");
    result->Add("txn.op_ns",
                (t.TotalNs("txn.insert") + t.TotalNs("txn.read") +
                 t.TotalNs("txn.delete")) / static_cast<double>(rp.txn_calls),
                "ns");
    std::vector<double> commits = t.Durations("txn.commit");
    result->Add("txn.commit_us_p50", Percentile(commits, 0.5) * 1e-3, "us");
    result->Add("txn.commit_us_p99", Percentile(commits, 0.99) * 1e-3, "us");
    std::vector<double> on_batch = t.Durations("match.on_batch");
    result->Add("match.on_batch_us_p50", Percentile(on_batch, 0.5) * 1e-3, "us");
    result->Add("match.on_batch_us_p99", Percentile(on_batch, 0.99) * 1e-3, "us");
    result->Add("match.conflict_deltas_per_batch",
                PerOp(static_cast<double>(acked_deltas), static_cast<double>(acked_batches)),
                "count");
  }
  if (groups & kStorage) {
    const double accesses = static_cast<double>(rp.pool.hits + rp.pool.misses);
    result->Add("storage.pool_hit_ratio", PerOp(rp.pool.hits, accesses), "frac");
    result->Add("storage.evictions_per_op", PerOp(rp.pool.evictions, ops), "count");
    result->Add("storage.writebacks_per_op", PerOp(rp.pool.dirty_writebacks, ops), "count");
    result->Add("storage.pages_stolen_per_op", PerOp(rp.pool.pages_stolen, ops), "count");
    result->Add("storage.wal_bytes_per_user_byte",
                PerOp(log1.wal_bytes_appended - log0.wal_bytes_appended, bytes1 - bytes0),
                "ratio");
    result->Add("storage.wal_records_per_op",
                PerOp(log1.wal_records_appended - log0.wal_records_appended, ops1 - ops0),
                "count");
    result->Add("storage.batches_per_wal_flush",
                PerOp(Counter(stats1, "batches_applied") - Counter(stats0, "batches_applied"),
                      Counter(stats1, "wal_flushes") - Counter(stats0, "wal_flushes")),
                "count");
    // Restart, step by step: reopen + recover, reload, reseed.
    const int64_t t0 = NowNs();
    {
      ProductionSystem ps(SystemOptions(durable, db, /*reopen=*/true));
      prodb::RecoveryResult rr;
      Require(ps.catalog().Recover(&rr), "recover");
      const int64_t t1 = NowNs();
      Require(ps.LoadString(Program()), "reload program");
      const int64_t t2 = NowNs();
      Require(ps.ReseedMatcher(), "reseed");
      const int64_t t3 = NowNs();
      result->Add("restart.recover_ms", static_cast<double>(t1 - t0) * 1e-6, "ms");
      result->Add("restart.load_ms", static_cast<double>(t2 - t1) * 1e-6, "ms");
      result->Add("restart.reseed_ms", static_cast<double>(t3 - t2) * 1e-6, "ms");
      bool same = true;
      for (const auto& c : d.clients) {
        for (int w = 0; w < 2; ++w) {
          std::vector<std::pair<TupleId, Tuple>> got, want;
          prodb::Relation* rel = ps.catalog().Get(ClassName(c->index, w));
          if (rel == nullptr) {
            same = false;
            continue;
          }
          Require(rel->Scan([&](TupleId id, const Tuple& t) {
                    got.emplace_back(id, t);
                    return Status::OK();
                  }),
                  "scan");
          for (const Live& l : c->model.live(w)) want.emplace_back(l.id, l.tuple);
          auto by_id = [](const auto& a, const auto& b) { return a.first < b.first; };
          std::sort(got.begin(), got.end(), by_id);
          std::sort(want.begin(), want.end(), by_id);
          same = same && got == want;
        }
      }
      result->Check(same, "recovered WM equals acked state");
    }
  }
  std::filesystem::remove(db);

  Tracer all(true);
  for (const auto& c : d.clients) all.Merge(c->tracer);
  all.Merge(replay_tracer);
  if (!all.WriteTsv(args.work_dir + "/trace-" + name + ".tsv")) {
    std::fprintf(stderr, "perfbench: could not write trace file\n");
  }
}

}  // namespace perfbench
