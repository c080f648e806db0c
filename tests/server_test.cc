// Serving-layer integration tests: framed wire protocol, durable-ack
// sessions, crash-path hygiene (SIGPIPE-safe writes, EINTR-retried
// syscalls, malformed-frame handling). The kill-after-ack durability
// proof lives in server_crash_test.cc (it needs the real binary).

#include "net/server.h"

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "net/client.h"

namespace prodb {
namespace net {
namespace {

std::string TempPath(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + std::to_string(::getpid())))
      .string();
}

// One class per client so concurrent sessions tell deterministic
// stories: relation-local tuple ids + per-class rules means each
// client's conflict-delta stream is independent of interleaving.
std::string Program(size_t classes) {
  std::string src;
  for (size_t c = 0; c < classes; ++c) {
    std::string cls = "C" + std::to_string(c);
    src += "(literalize " + cls + " v tag)\n";
    src += "(p r" + std::to_string(c) + " (" + cls +
           " ^v <x> ^tag 1) --> (make " + cls + " ^v <x> ^tag 0))\n";
  }
  return src;
}

RuleServerOptions TcpOptions() {
  RuleServerOptions opts;
  opts.tcp_port = 0;  // ephemeral
  return opts;
}

WireOp Make(const std::string& cls, int64_t v, int64_t tag) {
  WireOp op;
  op.kind = kOpMake;
  op.cls = cls;
  op.tuple = Tuple{Value(v), Value(tag)};
  return op;
}

TEST(ServerTest, StartStopAndPing) {
  RuleServerOptions opts = TcpOptions();
  opts.unix_path = TempPath("prodb_srv_ping_");
  RuleServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  RuleClient tcp;
  ASSERT_TRUE(tcp.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  EXPECT_TRUE(tcp.Ping().ok());
  EXPECT_FALSE(tcp.server_durable());

  RuleClient uds;
  ASSERT_TRUE(uds.ConnectUnix(opts.unix_path).ok());
  EXPECT_TRUE(uds.Ping().ok());

  server.Stop();
  server.Stop();  // idempotent
}

TEST(ServerTest, WrongHelloMagicRejected) {
  RuleServer server(TcpOptions());
  ASSERT_TRUE(server.Start().ok());
  Socket sock;
  ASSERT_TRUE(ConnectTcp("127.0.0.1", server.tcp_port(), &sock).ok());
  std::string hello;
  PutU32(&hello, 0xdeadbeef);
  ASSERT_TRUE(sock.SendFrame(MsgType::kHello, hello).ok());
  MsgType type;
  std::string payload;
  ASSERT_TRUE(sock.RecvFrame(&type, &payload).ok());
  EXPECT_EQ(type, MsgType::kError);
  server.Stop();
}

TEST(ServerTest, LoadBatchRunDump) {
  RuleServer server(TcpOptions());
  ASSERT_TRUE(server.Start().ok());
  RuleClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  ASSERT_TRUE(client.Load(Program(1)).ok());

  WireBatch batch;
  batch.ops.push_back(Make("C0", 7, 1));
  batch.ops.push_back(Make("C0", 8, 0));
  WireBatchAck ack;
  ASSERT_TRUE(client.Apply(batch, &ack).ok());
  EXPECT_FALSE(ack.durable);
  ASSERT_EQ(ack.insert_ids.size(), 2u);
  // The ^tag 1 make satisfied r0 — its instantiation must be in the
  // ack's conflict delta.
  ASSERT_EQ(ack.conflict.size(), 1u);
  EXPECT_TRUE(ack.conflict[0].added);
  EXPECT_EQ(ack.conflict[0].rule, "r0");

  // Modify the non-matching tuple into a matching one.
  WireBatch modify;
  WireOp op;
  op.kind = kOpModify;
  op.cls = "C0";
  op.id = ack.insert_ids[1];
  op.tuple = Tuple{Value(int64_t{8}), Value(int64_t{1})};
  modify.ops.push_back(op);
  WireBatchAck ack2;
  ASSERT_TRUE(client.Apply(modify, &ack2).ok());
  ASSERT_EQ(ack2.insert_ids.size(), 1u);
  ASSERT_EQ(ack2.conflict.size(), 1u);
  EXPECT_TRUE(ack2.conflict[0].added);

  WireRunResult run;
  ASSERT_TRUE(client.Run(/*concurrent=*/false, &run).ok());
  EXPECT_EQ(run.firings, 2u);
  EXPECT_EQ(run.fired.size(), 2u);

  WireDumpReply dump;
  ASSERT_TRUE(client.DumpClass("C0", &dump).ok());
  // 2 makes + 1 modify-insert + 2 rule makes.
  EXPECT_EQ(dump.tuples.size(), 4u);  // modify removed one of the five

  // Remove one tuple and confirm the retraction reaches the dump.
  WireBatch remove;
  WireOp rm;
  rm.kind = kOpRemove;
  rm.cls = "C0";
  rm.id = ack.insert_ids[0];
  remove.ops.push_back(rm);
  WireBatchAck ack3;
  ASSERT_TRUE(client.Apply(remove, &ack3).ok());
  WireDumpReply dump2;
  ASSERT_TRUE(client.DumpClass("C0", &dump2).ok());
  EXPECT_EQ(dump2.tuples.size(), dump.tuples.size() - 1);

  EXPECT_FALSE(client.DumpClass("NoSuch", &dump).ok());
  server.Stop();
}

TEST(ServerTest, ConcurrentRunOverWire) {
  RuleServer server(TcpOptions());
  ASSERT_TRUE(server.Start().ok());
  RuleClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  ASSERT_TRUE(client.Load(Program(2)).ok());
  WireBatch batch;
  for (int i = 0; i < 8; ++i) batch.ops.push_back(Make("C1", i, 1));
  WireBatchAck ack;
  ASSERT_TRUE(client.Apply(batch, &ack).ok());
  EXPECT_EQ(ack.conflict.size(), 8u);
  WireRunResult run;
  ASSERT_TRUE(client.Run(/*concurrent=*/true, &run).ok());
  EXPECT_EQ(run.firings, 8u);
  EXPECT_EQ(run.fired.size(), 8u);
  server.Stop();
}

// The tentpole correctness claim: the conflict-set delta a server ack
// carries is byte-identical to what an in-process system produces for
// the same batches — even with concurrent clients, as long as their
// classes are disjoint (per-class determinism; cross-class interleaving
// is inherently racy and carries no ordering promise).
TEST(ServerTest, ConflictDeltasByteIdenticalToInProcess) {
  constexpr size_t kClients = 4;
  constexpr size_t kBatches = 16;
  constexpr size_t kOpsPerBatch = 8;

  RuleServer server(TcpOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    RuleClient admin;
    ASSERT_TRUE(admin.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
    ASSERT_TRUE(admin.Load(Program(kClients)).ok());
  }

  auto batch_for = [](size_t client, size_t b) {
    WireBatch batch;
    std::string cls = "C" + std::to_string(client);
    for (size_t k = 0; k < kOpsPerBatch; ++k) {
      batch.ops.push_back(
          Make(cls, static_cast<int64_t>(b * kOpsPerBatch + k),
               static_cast<int64_t>(k % 2)));
    }
    return batch;
  };

  // Each client records the encoded conflict-delta bytes of every ack.
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RuleClient client;
      if (!client.ConnectTcp("127.0.0.1", server.tcp_port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t b = 0; b < kBatches; ++b) {
        WireBatchAck ack;
        if (!client.Apply(batch_for(c, b), &ack).ok()) {
          failures.fetch_add(1);
          return;
        }
        std::string bytes;
        EncodeConflictDeltas(ack.conflict, &bytes);
        got[c].push_back(std::move(bytes));
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  server.Stop();

  // In-process reference: same program, clients replayed sequentially,
  // deltas captured around each batch's OnBatch.
  ProductionSystem ref;
  ASSERT_TRUE(ref.LoadString(Program(kClients)).ok());
  WorkingMemory& wm = ref.working_memory();
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t b = 0; b < kBatches; ++b) {
      std::vector<WireConflictDelta> deltas;
      ref.conflict_set().SetDeltaListener(
          [&](bool added, const std::string& key,
              const Instantiation* inst) {
            WireConflictDelta cd;
            cd.added = added;
            cd.key = key;
            if (inst != nullptr) cd.rule = inst->rule_name;
            deltas.push_back(std::move(cd));
          });
      wm.BeginBatch();
      for (const WireOp& op : batch_for(c, b).ops) {
        ASSERT_TRUE(wm.Insert(op.cls, op.tuple).ok());
      }
      ASSERT_TRUE(wm.CommitBatch().ok());
      ref.conflict_set().SetDeltaListener(nullptr);
      std::string bytes;
      EncodeConflictDeltas(deltas, &bytes);
      ASSERT_EQ(bytes, got[c][b])
          << "client " << c << " batch " << b << " delta bytes diverged";
    }
  }
}

TEST(ServerTest, MalformedFrameRejectedWithoutSessionTeardown) {
  RuleServer server(TcpOptions());
  ASSERT_TRUE(server.Start().ok());
  RuleClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());

  // Intact frame, garbage batch payload: kError, session survives.
  MsgType type;
  std::string reply;
  ASSERT_TRUE(
      client.RoundTrip(MsgType::kBatch, "\xff\xff\xff\xff", &type, &reply)
          .ok());
  EXPECT_EQ(type, MsgType::kError);
  EXPECT_FALSE(DecodeError(reply).ok());

  // Truncated batch (op count says 3, zero ops follow): same story.
  std::string truncated;
  PutU32(&truncated, 3);
  ASSERT_TRUE(
      client.RoundTrip(MsgType::kBatch, truncated, &type, &reply).ok());
  EXPECT_EQ(type, MsgType::kError);

  // Unknown frame type: still recoverable.
  ASSERT_TRUE(
      client.RoundTrip(static_cast<MsgType>(200), "", &type, &reply).ok());
  EXPECT_EQ(type, MsgType::kError);

  // The session is alive and fully functional after all three.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Load(Program(1)).ok());
  server.Stop();
}

TEST(ServerTest, FailedBatchIsUndoneOverTheWire) {
  RuleServer server(TcpOptions());
  ASSERT_TRUE(server.Start().ok());
  RuleClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  ASSERT_TRUE(client.Load(Program(1)).ok());

  WireBatch setup;
  setup.ops.push_back(Make("C0", 1, 0));
  setup.ops.push_back(Make("C0", 2, 0));
  setup.ops.push_back(Make("C0", 3, 1));
  WireBatchAck ack;
  ASSERT_TRUE(client.Apply(setup, &ack).ok());
  ASSERT_EQ(ack.insert_ids.size(), 3u);
  WireDumpReply before;
  ASSERT_TRUE(client.DumpClass("C0", &before).ok());
  ASSERT_EQ(before.tuples.size(), 3u);

  // Remove, modify and make, then remove an id that never existed: the
  // last op fails, so the whole batch must be undone.
  WireBatch batch;
  WireOp rm;
  rm.kind = kOpRemove;
  rm.cls = "C0";
  rm.id = ack.insert_ids[0];
  batch.ops.push_back(rm);
  WireOp mod;
  mod.kind = kOpModify;
  mod.cls = "C0";
  mod.id = ack.insert_ids[1];
  mod.tuple = Tuple{Value(int64_t{2}), Value(int64_t{1})};
  batch.ops.push_back(mod);
  batch.ops.push_back(Make("C0", 4, 1));
  WireOp dead = rm;
  dead.id = TupleId{12345, 0};
  batch.ops.push_back(dead);
  std::string payload;
  EncodeBatch(batch, &payload);
  MsgType type;
  std::string reply;
  ASSERT_TRUE(client.RoundTrip(MsgType::kBatch, payload, &type, &reply).ok());
  ASSERT_EQ(type, MsgType::kError);
  EXPECT_TRUE(DecodeError(reply).IsNotFound());

  // The removed and modified tuples are back under their original ids;
  // the make and the modify's new tuple are gone.
  WireDumpReply after;
  ASSERT_TRUE(client.DumpClass("C0", &after).ok());
  auto sorted = [](std::vector<std::pair<TupleId, Tuple>> v) {
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return v;
  };
  EXPECT_EQ(sorted(after.tuples), sorted(before.tuples));

  // The conflict set saw nothing of the failed batch: only the setup's
  // ^tag 1 tuple fires.
  WireRunResult run;
  ASSERT_TRUE(client.Run(/*concurrent=*/false, &run).ok());
  EXPECT_EQ(run.firings, 1u);
  server.Stop();
}

TEST(ServerTest, OversizeFrameClosesConnection) {
  RuleServer server(TcpOptions());
  ASSERT_TRUE(server.Start().ok());
  RuleClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());

  // Forge a header declaring a payload beyond the limit. The stream
  // cannot be resynchronized, so the server must error and hang up.
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(MsgType::kBatch, kMaxFramePayload + 1, header);
  ASSERT_TRUE(client.socket().SendAll(header, sizeof(header)).ok());
  MsgType type;
  std::string payload;
  ASSERT_TRUE(client.socket().RecvFrame(&type, &payload).ok());
  EXPECT_EQ(type, MsgType::kError);
  // Next read sees the close.
  Status st = client.socket().RecvFrame(&type, &payload);
  EXPECT_TRUE(st.IsNotFound());

  // The server itself is unharmed.
  RuleClient again;
  ASSERT_TRUE(again.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  EXPECT_TRUE(again.Ping().ok());
  server.Stop();
}

// A client that vanishes right after a request must not kill the server
// with SIGPIPE when the reply is written into the dead socket (sends use
// MSG_NOSIGNAL). The test process shares the signal disposition, so an
// unprotected write would abort the whole test run.
TEST(ServerTest, SigpipeSafeWrites) {
  RuleServer server(TcpOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    RuleClient admin;
    ASSERT_TRUE(admin.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
    ASSERT_TRUE(admin.Load(Program(1)).ok());
  }
  for (int i = 0; i < 8; ++i) {
    RuleClient client;
    ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
    // Large dump reply gives the server a multi-packet write to trip
    // over; close without reading.
    WireBatch batch;
    for (int k = 0; k < 256; ++k) batch.ops.push_back(Make("C0", k, 0));
    WireBatchAck ack;
    ASSERT_TRUE(client.Apply(batch, &ack).ok());
    std::string payload;
    PutString(&payload, "C0");
    ASSERT_TRUE(
        client.socket().SendFrame(MsgType::kDump, payload).ok());
    client.Close();
  }
  RuleClient check;
  ASSERT_TRUE(check.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  EXPECT_TRUE(check.Ping().ok());
  server.Stop();
}

// RecvAll/SendAll retry EINTR: dribble bytes through a socketpair while
// peppering the reading thread with a no-op signal installed *without*
// SA_RESTART, so every slow recv is interrupted at least once.
TEST(ServerTest, EintrRetriedSyscalls) {
  struct sigaction sa{};
  sa.sa_handler = [](int) {};
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old{};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket reader(fds[0]);
  Socket writer(fds[1]);

  constexpr size_t kBytes = 64 * 1024;
  std::string received(kBytes, '\0');
  std::atomic<bool> done{false};
  Status recv_st;
  std::thread t([&] {
    recv_st = reader.RecvAll(received.data(), kBytes);
    done.store(true);
  });
  pthread_t handle = t.native_handle();

  std::string sent(kBytes, '\0');
  for (size_t i = 0; i < kBytes; ++i) {
    sent[i] = static_cast<char>(i * 131);
  }
  size_t off = 0;
  while (off < kBytes) {
    pthread_kill(handle, SIGUSR1);
    size_t chunk = std::min<size_t>(977, kBytes - off);
    ASSERT_TRUE(writer.SendAll(sent.data() + off, chunk).ok());
    off += chunk;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    pthread_kill(handle, SIGUSR1);
  }
  for (int i = 0; i < 100 && !done.load(); ++i) {
    pthread_kill(handle, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.join();
  EXPECT_TRUE(recv_st.ok());
  EXPECT_EQ(received, sent);
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);
}

TEST(ServerTest, DurableAckAndEmptyBatchBarrier) {
  std::string db = TempPath("prodb_srv_durable_");
  std::filesystem::remove(db);
  RuleServerOptions opts = TcpOptions();
  opts.system.wm_storage = StorageKind::kPaged;
  opts.system.db_path = db;
  opts.system.enable_wal = true;
  opts.system.durable_directory = true;
  RuleServer server(opts);
  ASSERT_TRUE(server.Start().ok());

  RuleClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  EXPECT_TRUE(client.server_durable());
  ASSERT_TRUE(client.Load(Program(1)).ok());

  WireBatch batch;
  batch.ops.push_back(Make("C0", 1, 1));
  WireBatchAck ack;
  ASSERT_TRUE(client.Apply(batch, &ack).ok());
  EXPECT_TRUE(ack.durable);
  EXPECT_GT(ack.durable_lsn, 0u);
  EXPECT_GT(ack.txn_id, 0u);

  // Empty batch = durability barrier; LSN does not regress.
  WireBatchAck barrier;
  ASSERT_TRUE(client.Apply(WireBatch{}, &barrier).ok());
  EXPECT_TRUE(barrier.durable);
  EXPECT_GE(barrier.durable_lsn, ack.durable_lsn);

  WireStatsReply stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  auto find = [&](const std::string& key) -> uint64_t {
    for (const auto& [k, v] : stats.counters) {
      if (k == key) return v;
    }
    return UINT64_MAX;
  };
  EXPECT_GE(find("durable_forces"), 1u);
  EXPECT_EQ(find("batches_applied"), 1u);
  server.Stop();
  std::filesystem::remove(db);
}

TEST(ServerTest, ShardingAndPlannerPlumbedThrough) {
  RuleServerOptions opts = TcpOptions();
  opts.system.matcher = MatcherKind::kRete;
  opts.system.sharding.num_shards = 4;
  opts.system.sharding.threads = 2;
  opts.system.planner.enable = true;
  opts.system.planner.min_card = 0.0;
  RuleServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  RuleClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  ASSERT_TRUE(client.Load(Program(2)).ok());
  WireBatch batch;
  batch.ops.push_back(Make("C0", 1, 1));
  WireBatchAck ack;
  ASSERT_TRUE(client.Apply(batch, &ack).ok());
  WireStatsReply stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  auto find = [&](const std::string& key) -> uint64_t {
    for (const auto& [k, v] : stats.counters) {
      if (k == key) return v;
    }
    return UINT64_MAX;
  };
  EXPECT_EQ(find("match_shards"), 4u);
  EXPECT_GE(find("plans_built"), 2u);
  EXPECT_EQ(find("matcher_batches"), 1u);
  server.Stop();
}

TEST(ServerTest, LoadCanBeDisabled) {
  RuleServerOptions opts = TcpOptions();
  opts.allow_load = false;
  opts.preload = Program(1);
  RuleServer server(opts);
  ASSERT_TRUE(server.Start().ok());
  RuleClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  EXPECT_FALSE(client.Load("(literalize X a)").ok());
  // The preloaded program still serves.
  WireBatch batch;
  batch.ops.push_back(Make("C0", 1, 1));
  WireBatchAck ack;
  EXPECT_TRUE(client.Apply(batch, &ack).ok());
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace prodb
