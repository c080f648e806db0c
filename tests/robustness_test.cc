// Robustness: fuzzed inputs must produce errors, never crashes or
// corruption; buffer-pool flush paths; malformed-encoding handling,
// including mutated wire-protocol payloads.

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "lang/analyzer.h"
#include "lang/parser.h"
#include "net/wire.h"
#include "storage/buffer_pool.h"

namespace prodb {
namespace {

TEST(FuzzTest, LexerSurvivesRandomBytes) {
  Rng rng(1);
  for (int iter = 0; iter < 300; ++iter) {
    std::string input;
    size_t len = rng.Uniform(120);
    for (size_t i = 0; i < len; ++i) {
      input += static_cast<char>(32 + rng.Uniform(95));
    }
    std::vector<Token> tokens;
    (void)Lex(input, &tokens);  // must not crash; status may be error
  }
}

TEST(FuzzTest, ParserSurvivesRandomTokenSoup) {
  Rng rng(2);
  const char* atoms[] = {"(", ")", "p", "literalize", "^", "-->", "-",
                         "<x>", "{", "}", "42", "foo", "*", "<", ">=",
                         "make", "remove", "modify", "halt", "call", "1"};
  for (int iter = 0; iter < 500; ++iter) {
    std::string input;
    size_t len = rng.Uniform(40);
    for (size_t i = 0; i < len; ++i) {
      input += atoms[rng.Uniform(sizeof(atoms) / sizeof(atoms[0]))];
      input += " ";
    }
    ProgramAst program;
    (void)ParseProgram(input, &program);  // error or success, no crash
  }
}

TEST(FuzzTest, AnalyzerSurvivesRandomValidParses) {
  // Generate syntactically valid but semantically random rules.
  Catalog catalog;
  Relation* rel;
  ASSERT_TRUE(catalog
                  .CreateRelation(Schema("E", {{"a", ValueType::kInt},
                                               {"b", ValueType::kInt}}),
                                  &rel)
                  .ok());
  Rng rng(3);
  const char* attrs[] = {"a", "b", "zz"};
  const char* vals[] = {"1", "<x>", "<y>", "*", "q"};
  const char* acts[] = {"(remove 1)", "(remove 9)", "(modify 1 ^a 2)",
                        "(make E ^a <x>)", "(make E ^zz 1)", "(halt)"};
  Analyzer analyzer(&catalog);
  for (int iter = 0; iter < 300; ++iter) {
    std::string src = "(p r";
    size_t ces = 1 + rng.Uniform(3);
    for (size_t c = 0; c < ces; ++c) {
      if (rng.Chance(0.2)) src += " -";
      src += " (E";
      size_t tests = rng.Uniform(3);
      for (size_t t = 0; t < tests; ++t) {
        src += " ^";
        src += attrs[rng.Uniform(3)];
        src += " ";
        src += vals[rng.Uniform(5)];
      }
      src += ")";
    }
    src += " --> ";
    src += acts[rng.Uniform(6)];
    src += ")";
    RuleAst ast;
    if (!ParseRule(src, &ast).ok()) continue;
    Rule rule;
    (void)analyzer.Compile(ast, &rule);  // error or success, no crash
  }
}

TEST(BufferPoolFlushTest, FlushPageAndFlushAllPersist) {
  auto disk = std::make_unique<MemoryDiskManager>();
  MemoryDiskManager* raw = disk.get();
  BufferPool pool(4, std::move(disk));
  uint32_t p0, p1;
  Frame *f0, *f1;
  ASSERT_TRUE(pool.NewPage(&p0, &f0).ok());
  f0->data[0] = 'x';
  ASSERT_TRUE(pool.UnpinPage(p0, true).ok());
  ASSERT_TRUE(pool.NewPage(&p1, &f1).ok());
  f1->data[0] = 'y';
  ASSERT_TRUE(pool.UnpinPage(p1, true).ok());

  ASSERT_TRUE(pool.FlushPage(p0).ok());
  char buf[kPageSize];
  ASSERT_TRUE(raw->ReadPage(p0, buf).ok());
  EXPECT_EQ(buf[0], 'x');
  // p1 not yet flushed to disk.
  ASSERT_TRUE(raw->ReadPage(p1, buf).ok());
  EXPECT_EQ(buf[0], 0);
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(raw->ReadPage(p1, buf).ok());
  EXPECT_EQ(buf[0], 'y');
  // Flushing a non-resident page is a no-op.
  EXPECT_TRUE(pool.FlushPage(777).ok());
}

TEST(TupleRobustnessTest, GarbageBytesRejected) {
  Rng rng(4);
  for (int iter = 0; iter < 500; ++iter) {
    std::string garbage;
    size_t len = rng.Uniform(64);
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.Uniform(256));
    }
    Tuple t;
    size_t off = 0;
    (void)Tuple::DeserializeFrom(garbage.data(), garbage.size(), &off, &t);
  }
}

// --- Wire-codec mutation fuzzer ------------------------------------------
// Valid encodings of every payload codec in net/wire.h are flipped,
// truncated and extended. Decoding must return a Status (or false) and
// never crash; unmutated encodings must round-trip byte for byte.

using namespace net;

std::string RandomName(Rng* rng) {
  std::string s;
  size_t len = rng->Uniform(12);
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>(rng->Uniform(256));
  }
  return s;
}

Tuple RandomWireTuple(Rng* rng) {
  std::vector<Value> values;
  size_t arity = rng->Uniform(5);
  for (size_t i = 0; i < arity; ++i) {
    switch (rng->Uniform(4)) {
      case 0:
        values.emplace_back();
        break;
      case 1:
        values.emplace_back(static_cast<int64_t>(rng->Next()));
        break;
      case 2:
        values.emplace_back(rng->NextDouble() * 1e6);
        break;
      default:
        values.emplace_back(RandomName(rng));
        break;
    }
  }
  return Tuple(std::move(values));
}

TupleId RandomTupleId(Rng* rng) {
  return TupleId{static_cast<uint32_t>(rng->Next()),
                 static_cast<uint32_t>(rng->Next())};
}

std::string Mutate(const std::string& in, Rng* rng) {
  std::string s = in;
  switch (rng->Uniform(3)) {
    case 0:  // flip 1–4 bytes
      for (uint64_t n = 1 + rng->Uniform(4); n > 0 && !s.empty(); --n) {
        s[rng->Uniform(s.size())] ^= static_cast<char>(1 + rng->Uniform(255));
      }
      break;
    case 1:  // truncate
      s.resize(rng->Uniform(s.size() + 1));
      break;
    default:  // extend
      for (uint64_t n = 1 + rng->Uniform(16); n > 0; --n) {
        s += static_cast<char>(rng->Uniform(256));
      }
      break;
  }
  return s;
}

template <typename Msg>
void FuzzCodec(uint64_t seed, Msg (*make)(Rng*),
               void (*encode)(const Msg&, std::string*),
               Status (*decode)(const std::string&, Msg*)) {
  Rng rng(seed);
  for (int iter = 0; iter < 200; ++iter) {
    std::string bytes;
    encode(make(&rng), &bytes);
    Msg back;
    ASSERT_TRUE(decode(bytes, &back).ok());
    std::string again;
    encode(back, &again);
    ASSERT_EQ(again, bytes);
    for (int m = 0; m < 25; ++m) {
      Msg out;
      (void)decode(Mutate(bytes, &rng), &out);  // any Status, no crash
    }
  }
}

WireBatch RandomBatch(Rng* rng) {
  WireBatch b;
  for (uint64_t n = rng->Uniform(6); n > 0; --n) {
    WireOp op;
    op.kind = static_cast<uint8_t>(kOpMake + rng->Uniform(3));
    op.cls = RandomName(rng);
    if (op.kind != kOpMake) op.id = RandomTupleId(rng);
    if (op.kind != kOpRemove) op.tuple = RandomWireTuple(rng);
    b.ops.push_back(std::move(op));
  }
  return b;
}

std::vector<WireConflictDelta> RandomConflictDeltas(Rng* rng) {
  std::vector<WireConflictDelta> out;
  for (uint64_t n = rng->Uniform(5); n > 0; --n) {
    WireConflictDelta cd;
    cd.added = rng->Chance(0.5);
    cd.rule = RandomName(rng);
    cd.key = RandomName(rng);
    out.push_back(std::move(cd));
  }
  return out;
}

WireBatchAck RandomAck(Rng* rng) {
  WireBatchAck a;
  a.txn_id = rng->Next();
  a.durable_lsn = rng->Next();
  a.durable = rng->Chance(0.5);
  for (uint64_t n = rng->Uniform(5); n > 0; --n) {
    a.insert_ids.push_back(RandomTupleId(rng));
  }
  a.conflict = RandomConflictDeltas(rng);
  return a;
}

WireRunResult RandomRunResult(Rng* rng) {
  WireRunResult r;
  r.firings = rng->Next();
  r.halted = rng->Chance(0.5);
  for (uint64_t n = rng->Uniform(5); n > 0; --n) {
    r.fired.push_back(RandomName(rng));
  }
  return r;
}

WireDumpReply RandomDump(Rng* rng) {
  WireDumpReply d;
  for (uint64_t n = rng->Uniform(5); n > 0; --n) {
    d.tuples.emplace_back(RandomTupleId(rng), RandomWireTuple(rng));
  }
  return d;
}

WireStatsReply RandomStats(Rng* rng) {
  WireStatsReply s;
  for (uint64_t n = rng->Uniform(6); n > 0; --n) {
    s.counters.emplace_back(RandomName(rng), rng->Next());
  }
  return s;
}

// The conflict-delta section as a standalone payload codec.
Status DecodeDeltas(const std::string& payload,
                    std::vector<WireConflictDelta>* out) {
  size_t off = 0;
  return DecodeConflictDeltas(payload.data(), payload.size(), &off, out);
}

TEST(WireFuzzTest, BatchCodec) {
  FuzzCodec<WireBatch>(5, RandomBatch, EncodeBatch, DecodeBatch);
}

TEST(WireFuzzTest, BatchAckCodec) {
  FuzzCodec<WireBatchAck>(6, RandomAck, EncodeBatchAck, DecodeBatchAck);
}

TEST(WireFuzzTest, ConflictDeltaCodec) {
  FuzzCodec<std::vector<WireConflictDelta>>(7, RandomConflictDeltas,
                                            EncodeConflictDeltas,
                                            DecodeDeltas);
}

TEST(WireFuzzTest, RunResultCodec) {
  FuzzCodec<WireRunResult>(8, RandomRunResult, EncodeRunResult,
                           DecodeRunResult);
}

TEST(WireFuzzTest, DumpReplyCodec) {
  FuzzCodec<WireDumpReply>(9, RandomDump, EncodeDumpReply, DecodeDumpReply);
}

TEST(WireFuzzTest, StatsReplyCodec) {
  FuzzCodec<WireStatsReply>(10, RandomStats, EncodeStatsReply,
                            DecodeStatsReply);
}

TEST(WireFuzzTest, ErrorCodec) {
  Rng rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    Status st = Status::Internal(RandomName(&rng));
    std::string bytes;
    EncodeError(st, &bytes);
    Status back = DecodeError(bytes);
    ASSERT_EQ(back.code(), st.code());
    ASSERT_EQ(back.message(), st.message());
    for (int m = 0; m < 25; ++m) {
      (void)DecodeError(Mutate(bytes, &rng));  // any Status, no crash
    }
  }
}

TEST(WireFuzzTest, FrameHeaderCodec) {
  Rng rng(12);
  for (int iter = 0; iter < 200; ++iter) {
    const auto type = static_cast<MsgType>(rng.Uniform(256));
    const auto len = static_cast<uint32_t>(rng.Next());
    char header[kFrameHeaderBytes];
    EncodeFrameHeader(type, len, header);
    MsgType got_type;
    uint32_t got_len = 0;
    ASSERT_TRUE(DecodeFrameHeader(header, &got_type, &got_len));
    ASSERT_EQ(got_type, type);
    ASSERT_EQ(got_len, len);
    for (int m = 0; m < 25; ++m) {
      // The header is fixed-size: only flips apply.
      std::string bytes(header, kFrameHeaderBytes);
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
      (void)DecodeFrameHeader(bytes.data(), &got_type, &got_len);
    }
  }
}

}  // namespace
}  // namespace prodb
