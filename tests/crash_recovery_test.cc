// Crash-recovery sweep over the WAL-enabled paged store.
//
// A scripted transactional workload runs over a fault-injecting disk with
// freeze-on-fault: the first injected failure snapshots every page — data
// and log live on the same disk, so one snapshot is a complete,
// consistent crash image. The sweep arms a sticky fault at every
// injectable I/O index in the workload's trace, restarts from each crash
// image, and checks that recovery restores exactly the committed prefix:
// the recovered commit set is a prefix of the script's commit sequence,
// and the relation's contents equal the script's shadow model at that
// prefix. Recovering the same image twice must leave every page
// byte-identical (idempotence). Torn-tail cases — the final record
// truncated mid-record or CRC-corrupted — are synthesized directly.

#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/sequential_engine.h"
#include "rete/network.h"
#include "storage/fault_disk.h"
#include "storage/page_layout.h"
#include "storage/recovery.h"
#include "txn/transaction.h"
#include "workload/generator.h"

namespace prodb {
namespace {

Schema CrashSchema() {
  return Schema("WM", {{"k", ValueType::kInt}, {"s", ValueType::kSymbol}});
}

CatalogOptions WalCatalogOptions(DiskManager* disk, bool auto_flush) {
  CatalogOptions copts;
  copts.default_storage = StorageKind::kPaged;
  copts.buffer_pool_frames = 4;  // tiny: eviction exercises the WAL rule
  copts.disk = disk;
  copts.enable_wal = true;
  copts.wal_auto_flush = auto_flush;
  return copts;
}

// Everything the verification step needs to know about the crashed run.
struct ScriptResult {
  Status first_error;                 // first I/O failure the fault caused
  std::vector<uint64_t> commit_ids;   // txn ids in commit order
  // snapshots[j] = serialized live tuples after the j-th commit ([0] =
  // before any commit): the shadow model the recovered image must match.
  std::vector<std::multiset<std::string>> snapshots;
  uint32_t head_page = UINT32_MAX;    // heap head of the WM relation
};

std::multiset<std::string> ModelTuples(
    const std::map<TupleId, Tuple>& model) {
  std::multiset<std::string> out;
  for (const auto& [id, t] : model) {
    std::string s;
    t.SerializeTo(&s);
    out.insert(std::move(s));
  }
  return out;
}

// Deterministic transactional workload: 14 transactions, each inserting
// three tuples and sometimes deleting/updating earlier committed ones;
// every fourth transaction aborts instead of committing. The shadow
// model applies each transaction's changes() only at its commit, so
// snapshots[] is exactly what a restart must reproduce. With
// `checkpoints` the script also takes two fuzzy checkpoints mid-stream,
// putting every checkpoint write — the kCheckpoint record's flush and
// the anchor rewrite — into the injectable I/O trace, and recycling log
// pages into the allocator under the sweep. Any injected I/O failure
// ends the script (the "crash").
void RunScript(Catalog* catalog, LockManager* locks, ScriptResult* out,
               bool checkpoints = false) {
  out->snapshots.push_back({});
  auto note = [&](const Status& st) {
    if (out->first_error.ok() && !st.ok()) out->first_error = st;
    return st.ok();
  };

  Relation* rel = nullptr;
  if (!note(catalog->CreateRelation(CrashSchema(), StorageKind::kPaged,
                                    &rel))) {
    return;
  }
  out->head_page = rel->head_page_id();

  TxnManager tm(catalog, locks);
  std::map<TupleId, Tuple> model;  // committed state only
  int counter = 0;
  for (int t = 0; t < 14; ++t) {
    std::vector<TupleId> live;  // deterministic: map order
    for (const auto& [id, tup] : model) live.push_back(id);

    auto txn = tm.Begin();
    bool ok = true;
    for (int i = 0; i < 3 && ok; ++i) {
      Tuple tup{Value(static_cast<int64_t>(counter)),
                Value("v" + std::to_string(counter) + std::string(120, 'x'))};
      ++counter;
      TupleId id;
      ok = note(txn->Insert("WM", tup, &id));
    }
    size_t del_pick = live.empty() ? 0 : (static_cast<size_t>(t) * 7) %
                                             live.size();
    if (ok && !live.empty() && t % 2 == 0) {
      ok = note(txn->Delete("WM", live[del_pick]));
    }
    if (ok && live.size() > 1 && t % 3 == 1) {
      size_t up_pick = (static_cast<size_t>(t) * 5 + 1) % live.size();
      if (up_pick != del_pick) {
        TupleId moved;
        Tuple tup{Value(static_cast<int64_t>(1000 + t)),
                  Value("u" + std::to_string(t) + std::string(120, 'y'))};
        ok = note(txn->Update("WM", live[up_pick], tup, &moved));
      }
    }
    if (!ok) {
      (void)tm.Abort(txn.get());  // disk is dying; best-effort
      return;
    }
    if (t % 4 == 3) {
      // Deliberate abort: its records must be skipped at restart.
      if (!note(tm.Abort(txn.get()))) return;
      continue;
    }
    if (!note(tm.Commit(txn.get()))) return;
    for (const Delta& c : txn->changes()) {
      if (c.is_insert()) {
        model[c.id] = c.tuple;
      } else {
        model.erase(c.id);
      }
    }
    out->commit_ids.push_back(txn->id());
    out->snapshots.push_back(ModelTuples(model));
    if (checkpoints && (t == 5 || t == 9)) {
      if (!note(catalog->Checkpoint())) return;
    }
  }
}

std::vector<std::string> DumpPages(DiskManager* disk) {
  std::vector<std::string> pages;
  char buf[kPageSize];
  for (uint32_t p = 0; p < disk->PageCount(); ++p) {
    EXPECT_TRUE(disk->ReadPage(p, buf).ok());
    pages.emplace_back(buf, kPageSize);
  }
  return pages;
}

// Copies `fault`'s frozen crash snapshot into a fresh memory disk.
std::unique_ptr<MemoryDiskManager> CrashImage(
    const FaultInjectingDiskManager& fault) {
  auto img = std::make_unique<MemoryDiskManager>();
  char buf[kPageSize];
  for (uint32_t p = 0; p < fault.snapshot_page_count(); ++p) {
    uint32_t pid;
    EXPECT_TRUE(img->AllocatePage(&pid).ok());
    EXPECT_TRUE(fault.ReadSnapshotPage(p, buf).ok());
    EXPECT_TRUE(img->WritePage(p, buf).ok());
  }
  return img;
}

// Recovers `img` and checks it against the script's shadow model.
// Checkpoint truncation may have recycled log pages holding early commit
// records, so the recovered commit list is a contiguous *window* of the
// script's commit sequence ending at the durable prefix k; the
// relation's contents must equal the snapshot at k. Then recovers a
// second time and demands byte-identical pages.
void VerifyCrashImage(MemoryDiskManager* img, const ScriptResult& script) {
  Catalog rcat(WalCatalogOptions(img, /*auto_flush=*/false));
  RecoveryResult rr;
  { Status rst = rcat.Recover(&rr); ASSERT_TRUE(rst.ok()) << rst.ToString(); }

  // Locate the recovered window inside the script's commit sequence.
  // Commit records are strictly ordered in the log and the log is
  // truncated (front and back) at record boundaries, so the window must
  // be contiguous; its end is the durable prefix length k.
  size_t k = 0;
  bool k_known = false;
  if (!rr.committed.empty()) {
    size_t j = 0;
    while (j < script.commit_ids.size() &&
           script.commit_ids[j] != rr.committed[0]) {
      ++j;
    }
    ASSERT_LT(j, script.commit_ids.size())
        << "recovered a commit id the script never committed";
    ASSERT_LE(j + rr.committed.size(), script.commit_ids.size());
    for (size_t i = 0; i < rr.committed.size(); ++i) {
      EXPECT_EQ(rr.committed[i], script.commit_ids[j + i]);
    }
    k = j + rr.committed.size();
    k_known = true;
  }

  // Relation contents must match the shadow model at commit k. If the
  // head page never became durable, nothing can have committed (the
  // head's format record precedes every commit in the log).
  char head[kPageSize];
  bool head_ok = script.head_page != UINT32_MAX &&
                 script.head_page < img->PageCount() &&
                 img->ReadPage(script.head_page, head).ok() &&
                 HeapPageLooksFormatted(head);
  if (!head_ok) {
    EXPECT_TRUE(rr.committed.empty())
        << "commits recovered but the relation head is gone";
    return;
  }
  std::unique_ptr<Relation> rel;
  ASSERT_TRUE(Relation::OpenPaged(CrashSchema(), rcat.buffer_pool(),
                                  script.head_page, &rel)
                  .ok());
  std::multiset<std::string> got;
  ASSERT_TRUE(rel->Scan([&](TupleId, const Tuple& t) {
                    std::string s;
                    t.SerializeTo(&s);
                    got.insert(std::move(s));
                    return Status::OK();
                  })
                  .ok());
  if (k_known) {
    EXPECT_EQ(got, script.snapshots[k])
        << "recovered state diverges from the committed prefix (k=" << k
        << ")";
  } else {
    // No commit record survived truncation (crash right after a
    // checkpoint recycled them all). The heap must still equal one of
    // the script's committed snapshots — checkpointing never publishes
    // a state the commit sequence didn't pass through.
    bool matches_some = false;
    for (const auto& snap : script.snapshots) {
      if (got == snap) {
        matches_some = true;
        break;
      }
    }
    EXPECT_TRUE(matches_some)
        << "recovered state matches no committed snapshot";
  }

  // Idempotence: recovering the already-recovered image changes nothing.
  std::vector<std::string> before = DumpPages(img);
  Catalog rcat2(WalCatalogOptions(img, /*auto_flush=*/false));
  RecoveryResult rr2;
  ASSERT_TRUE(rcat2.Recover(&rr2).ok());
  EXPECT_EQ(rr2.committed.size(), rr.committed.size());
  EXPECT_EQ(rr2.records_redone, 0u)
      << "second recovery re-applied records the first already flushed";
  EXPECT_FALSE(rr2.torn_tail);
  std::vector<std::string> after = DumpPages(img);
  ASSERT_EQ(before.size(), after.size());
  for (size_t p = 0; p < before.size(); ++p) {
    EXPECT_TRUE(before[p] == after[p])
        << "page " << p << " not byte-identical after double recovery";
  }
}

// Fault-free baseline; its I/O trace defines the sweep's index space.
uint64_t CountScriptOps(bool auto_flush) {
  FaultInjectingDiskManager fault(std::make_unique<MemoryDiskManager>());
  Catalog catalog(WalCatalogOptions(&fault, auto_flush));
  LockManager locks;
  ScriptResult script;
  RunScript(&catalog, &locks, &script, /*checkpoints=*/true);
  EXPECT_TRUE(script.first_error.ok()) << script.first_error.ToString();
  EXPECT_EQ(script.commit_ids.size(), 11u);  // 14 txns, 3 abort
  return fault.total_ops();
}

void RunCrashCase(uint64_t index, bool auto_flush) {
  FaultInjectingDiskManager fault(std::make_unique<MemoryDiskManager>());
  fault.set_freeze_on_fault(true);
  fault.FailAtOp(index, /*sticky=*/true);

  Catalog catalog(WalCatalogOptions(&fault, auto_flush));
  LockManager locks;
  ScriptResult script;
  RunScript(&catalog, &locks, &script, /*checkpoints=*/true);
  ASSERT_TRUE(fault.has_snapshot()) << "fault index never reached";
  // Locks may still be held here — they are in-memory state that dies
  // with the crashed process, so recovery owes them nothing.

  auto img = CrashImage(fault);
  VerifyCrashImage(img.get(), script);
}

TEST(CrashRecoveryTest, CleanImageRecoversToFullState) {
  // No fault: "crash" right after the last commit by recovering from the
  // raw disk (losing the buffer pool, keeping the flushed log).
  auto mem = std::make_unique<MemoryDiskManager>();
  ScriptResult script;
  {
    Catalog catalog(WalCatalogOptions(mem.get(), /*auto_flush=*/false));
    LockManager locks;
    RunScript(&catalog, &locks, &script, /*checkpoints=*/true);
    ASSERT_TRUE(script.first_error.ok()) << script.first_error.ToString();
  }
  VerifyCrashImage(mem.get(), script);
}

TEST(CrashRecoveryTest, GroupCommitCrashSweep) {
  uint64_t total = CountScriptOps(/*auto_flush=*/false);
  ASSERT_GT(total, 0u);
  std::cout << "[ sweep    ] " << total
            << " injectable crash points (group commit)\n";
  for (uint64_t i = 0; i < total; ++i) {
    SCOPED_TRACE("crash at I/O index " + std::to_string(i));
    RunCrashCase(i, /*auto_flush=*/false);
    if (HasFailure()) return;  // first broken index is enough signal
  }
}

TEST(CrashRecoveryTest, AutoFlushCrashSweep) {
  // Every log record boundary is a disk-write boundary under auto_flush,
  // so this sweep crashes between (and inside) individual records.
  uint64_t total = CountScriptOps(/*auto_flush=*/true);
  ASSERT_GT(total, 0u);
  std::cout << "[ sweep    ] " << total
            << " injectable crash points (auto-flush)\n";
  for (uint64_t i = 0; i < total; ++i) {
    SCOPED_TRACE("crash at I/O index " + std::to_string(i));
    RunCrashCase(i, /*auto_flush=*/true);
    if (HasFailure()) return;
  }
}

// --- Torn / corrupt tail -------------------------------------------------

struct CleanRun {
  std::unique_ptr<MemoryDiskManager> disk;
  ScriptResult script;
};

CleanRun MakeCleanRun() {
  CleanRun run;
  run.disk = std::make_unique<MemoryDiskManager>();
  Catalog catalog(WalCatalogOptions(run.disk.get(), /*auto_flush=*/false));
  LockManager locks;
  RunScript(&catalog, &locks, &run.script);
  EXPECT_TRUE(run.script.first_error.ok())
      << run.script.first_error.ToString();
  return run;
}

TEST(CrashRecoveryTest, CorruptedTailRecordRollsBackToLastIntactCommit) {
  CleanRun run = MakeCleanRun();
  LogScanResult scan;
  ASSERT_TRUE(ScanLog(run.disk.get(), &scan).ok());
  ASSERT_FALSE(scan.records.empty());
  const ScannedRecord& last = scan.records.back();
  ASSERT_EQ(last.rec.type, LogRecordType::kCommit);

  // Flip the last body byte of the final (commit) record on disk: its CRC
  // fails, the commit is lost, and its transaction becomes a loser. LSNs
  // are stream offsets; truncation makes the chain start at scan.base.
  Lsn off = last.lsn - 1 - scan.base;
  size_t page_index = static_cast<size_t>(off / kLogPagePayload);
  ASSERT_LT(page_index, scan.pages.size());
  char page[kPageSize];
  ASSERT_TRUE(run.disk->ReadPage(scan.pages[page_index], page).ok());
  page[kLogPageHeaderSize + off % kLogPagePayload] ^= 0x5A;
  ASSERT_TRUE(run.disk->WritePage(scan.pages[page_index], page).ok());

  Catalog rcat(WalCatalogOptions(run.disk.get(), /*auto_flush=*/false));
  RecoveryResult rr;
  { Status rst = rcat.Recover(&rr); ASSERT_TRUE(rst.ok()) << rst.ToString(); }
  EXPECT_TRUE(rr.torn_tail);
  EXPECT_GT(rr.truncated_bytes, 0u);
  ASSERT_EQ(rr.committed.size(), run.script.commit_ids.size() - 1);

  std::unique_ptr<Relation> rel;
  ASSERT_TRUE(Relation::OpenPaged(CrashSchema(), rcat.buffer_pool(),
                                  run.script.head_page, &rel)
                  .ok());
  std::multiset<std::string> got;
  ASSERT_TRUE(rel->Scan([&](TupleId, const Tuple& t) {
                    std::string s;
                    t.SerializeTo(&s);
                    got.insert(std::move(s));
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(got, run.script.snapshots[rr.committed.size()]);
}

TEST(CrashRecoveryTest, RecordTruncatedMidWriteIsDiscarded) {
  CleanRun run = MakeCleanRun();
  LogScanResult scan;
  ASSERT_TRUE(ScanLog(run.disk.get(), &scan).ok());
  ASSERT_FALSE(scan.records.empty());
  const ScannedRecord& last = scan.records.back();
  size_t rec_len = EncodedLogRecordSize(last.rec);
  Lsn rec_start = last.lsn - rec_len;

  // Shorten the tail page's used count so the stream ends mid-record —
  // the torn-write shape a crash during the final page write leaves.
  size_t tail_index = scan.pages.size() - 1;
  Lsn tail_start =
      scan.base + static_cast<Lsn>(tail_index) * kLogPagePayload;
  ASSERT_GE(last.lsn - 2, tail_start) << "final record not in tail page";
  Lsn cut = last.lsn - 2;
  if (cut < rec_start + kLogRecordHeader) cut = rec_start + 1;
  char page[kPageSize];
  ASSERT_TRUE(run.disk->ReadPage(scan.pages[tail_index], page).ok());
  PutU16(page, kLogPageUsedOff, static_cast<uint16_t>(cut - tail_start));
  ASSERT_TRUE(run.disk->WritePage(scan.pages[tail_index], page).ok());

  Catalog rcat(WalCatalogOptions(run.disk.get(), /*auto_flush=*/false));
  RecoveryResult rr;
  { Status rst = rcat.Recover(&rr); ASSERT_TRUE(rst.ok()) << rst.ToString(); }
  EXPECT_TRUE(rr.torn_tail);
  EXPECT_GT(rr.truncated_bytes, 0u);
  // The torn record is gone, but recovery appends CLRs for the commit
  // that fell with it, so the log ends at or past the truncation point.
  EXPECT_GE(rr.log_end, rec_start);
  ASSERT_EQ(rr.committed.size(), run.script.commit_ids.size() - 1);
}

TEST(CrashRecoveryTest, ResumedLogAcceptsNewCommitsAfterRestart) {
  CleanRun run = MakeCleanRun();

  // Restart 1: recover, adopt the surviving relation, commit more work.
  ScriptResult more;
  {
    Catalog rcat(WalCatalogOptions(run.disk.get(), /*auto_flush=*/false));
    RecoveryResult rr;
    { Status rst = rcat.Recover(&rr); ASSERT_TRUE(rst.ok()) << rst.ToString(); }
    ASSERT_EQ(rr.committed.size(), run.script.commit_ids.size());
    Relation* rel = nullptr;
    ASSERT_TRUE(
        rcat.AdoptPaged(CrashSchema(), run.script.head_page, &rel).ok());
    EXPECT_EQ(rel->Count(), run.script.snapshots.back().size());

    LockManager locks;
    TxnManager tm(&rcat, &locks);
    auto txn = tm.Begin();
    TupleId id;
    ASSERT_TRUE(
        txn->Insert("WM", Tuple{Value(int64_t{9000}), Value("post")}, &id)
            .ok());
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
  }

  // Restart 2: the post-restart commit must have survived too.
  Catalog rcat2(WalCatalogOptions(run.disk.get(), /*auto_flush=*/false));
  RecoveryResult rr2;
  ASSERT_TRUE(rcat2.Recover(&rr2).ok());
  EXPECT_EQ(rr2.committed.size(), run.script.commit_ids.size() + 1);
  std::unique_ptr<Relation> rel;
  ASSERT_TRUE(Relation::OpenPaged(CrashSchema(), rcat2.buffer_pool(),
                                  run.script.head_page, &rel)
                  .ok());
  EXPECT_EQ(rel->Count(), run.script.snapshots.back().size() + 1);
}

// --- Steal: write sets larger than the buffer pool -----------------------

// One transaction inserts far more pages than the pool holds: eviction
// must steal its dirty pages (forcing the undo records out first), the
// commit must succeed, and a crash-restart must reproduce all of it.
// A second big transaction left in flight at the crash exercises the
// other half of steal: its stolen pages are on disk and restart undo
// must roll every one of them back.
TEST(CrashRecoveryTest, WriteSetBeyondPoolCapacityCommitsAndRecovers) {
  auto mem = std::make_unique<MemoryDiskManager>();
  uint32_t head = UINT32_MAX;
  constexpr int kBig = 200;  // ~150 bytes each: dozens of pages, 4 frames
  {
    Catalog catalog(WalCatalogOptions(mem.get(), /*auto_flush=*/false));
    LockManager locks;
    Relation* rel = nullptr;
    ASSERT_TRUE(
        catalog.CreateRelation(CrashSchema(), StorageKind::kPaged, &rel)
            .ok());
    head = rel->head_page_id();
    TxnManager tm(&catalog, &locks);

    auto txn = tm.Begin();
    for (int i = 0; i < kBig; ++i) {
      TupleId id;
      ASSERT_TRUE(txn->Insert("WM",
                              Tuple{Value(static_cast<int64_t>(i)),
                                    Value("big" + std::to_string(i) +
                                          std::string(120, 'b'))},
                              &id)
                      .ok());
    }
    ASSERT_TRUE(tm.Commit(txn.get()).ok());
    EXPECT_GE(catalog.GetDurabilityStats().pages_stolen, 1u)
        << "a write set this large must have been stolen";

    // Second big transaction: still in flight when the catalog dies.
    auto loser = tm.Begin();
    for (int i = 0; i < kBig; ++i) {
      TupleId id;
      ASSERT_TRUE(loser->Insert("WM",
                                Tuple{Value(static_cast<int64_t>(9000 + i)),
                                      Value("loser" + std::string(120, 'l'))},
                                &id)
                      .ok());
    }
    // No commit, no abort: the crash. Many of its pages are on disk.
  }

  Catalog rcat(WalCatalogOptions(mem.get(), /*auto_flush=*/false));
  RecoveryResult rr;
  { Status rst = rcat.Recover(&rr); ASSERT_TRUE(rst.ok()) << rst.ToString(); }
  ASSERT_EQ(rr.committed.size(), 1u);
  EXPECT_EQ(rr.loser_txns, 1u);
  EXPECT_GT(rr.records_undone, 0u)
      << "the in-flight transaction's stolen pages were never rolled back";
  std::unique_ptr<Relation> rel;
  ASSERT_TRUE(
      Relation::OpenPaged(CrashSchema(), rcat.buffer_pool(), head, &rel)
          .ok());
  size_t count = 0;
  ASSERT_TRUE(rel->Scan([&](TupleId, const Tuple& t) {
                    ++count;
                    EXPECT_NE(t.values()[1].as_symbol().substr(0, 5),
                              "loser");
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, static_cast<size_t>(kBig));
}

// --- Checkpointing bounds the log ----------------------------------------

// Repeated update churn with periodic checkpoints: the live log footprint
// and the restart redo work must stay bounded instead of growing with
// total history, and recycled log pages must be reused by the allocator
// (the disk stops growing).
TEST(CrashRecoveryTest, CheckpointsBoundLogAndRestartWork) {
  auto mem = std::make_unique<MemoryDiskManager>();
  uint32_t head = UINT32_MAX;
  uint64_t live_pages_after_round = 0;
  uint64_t recycled = 0;
  {
    Catalog catalog(WalCatalogOptions(mem.get(), /*auto_flush=*/false));
    LockManager locks;
    Relation* rel = nullptr;
    ASSERT_TRUE(
        catalog.CreateRelation(CrashSchema(), StorageKind::kPaged, &rel)
            .ok());
    head = rel->head_page_id();
    TxnManager tm(&catalog, &locks);

    // Seed a handful of rows, then churn them.
    std::vector<TupleId> ids;
    {
      auto txn = tm.Begin();
      for (int i = 0; i < 8; ++i) {
        TupleId id;
        ASSERT_TRUE(txn->Insert("WM",
                                Tuple{Value(static_cast<int64_t>(i)),
                                      Value("seed" + std::string(60, 's'))},
                                &id)
                        .ok());
        ids.push_back(id);
      }
      ASSERT_TRUE(tm.Commit(txn.get()).ok());
    }
    for (int round = 0; round < 12; ++round) {
      auto txn = tm.Begin();
      for (size_t i = 0; i < ids.size(); ++i) {
        TupleId moved;
        ASSERT_TRUE(txn->Update("WM", ids[i],
                                Tuple{Value(static_cast<int64_t>(round)),
                                      Value("r" + std::to_string(round) +
                                            std::string(60, 'u'))},
                                &moved)
                        .ok());
        ids[i] = moved;
      }
      ASSERT_TRUE(tm.Commit(txn.get()).ok());
      ASSERT_TRUE(catalog.Checkpoint().ok());
      DurabilityStats ds = catalog.GetDurabilityStats();
      live_pages_after_round = ds.wal_live_pages;
      recycled = ds.log_pages_recycled;
      // Bounded: the live chain never accumulates the full history (12
      // rounds of 8 updates would span far more pages than this).
      EXPECT_LE(live_pages_after_round, 6u)
          << "round " << round << ": log not truncated";
    }
    EXPECT_GT(recycled, 0u);
    EXPECT_GT(catalog.GetDurabilityStats().disk_pages_reused, 0u)
        << "recycled log pages never served an allocation";
  }

  // Restart: redo work is bounded by the checkpoint, not total history.
  Catalog rcat(WalCatalogOptions(mem.get(), /*auto_flush=*/false));
  RecoveryResult rr;
  { Status rst = rcat.Recover(&rr); ASSERT_TRUE(rst.ok()) << rst.ToString(); }
  EXPECT_LE(rr.log_pages.size(), 6u);
  std::unique_ptr<Relation> rel;
  ASSERT_TRUE(
      Relation::OpenPaged(CrashSchema(), rcat.buffer_pool(), head, &rel)
          .ok());
  EXPECT_EQ(rel->Count(), 8u);
}

// --- Crash during recovery -----------------------------------------------

std::unique_ptr<MemoryDiskManager> CopyDisk(MemoryDiskManager* src) {
  auto dst = std::make_unique<MemoryDiskManager>();
  char buf[kPageSize];
  for (uint32_t p = 0; p < src->PageCount(); ++p) {
    uint32_t pid;
    EXPECT_TRUE(dst->AllocatePage(&pid).ok());
    EXPECT_TRUE(src->ReadPage(p, buf).ok());
    EXPECT_TRUE(dst->WritePage(p, buf).ok());
  }
  return dst;
}

// Crash mid-script, then crash again at every I/O index of the restart
// recovery itself (its redo page writes, tail truncation, CLR appends
// and undo page writes are all injectable). The third restart over each
// doubly-crashed image must still satisfy the full contract, including
// byte-level idempotence — CLRs make re-undo skip what a previous
// recovery attempt already compensated.
TEST(CrashRecoveryTest, CrashDuringRecoveryConvergesOnThirdRestart) {
  uint64_t total = CountScriptOps(/*auto_flush=*/false);
  ASSERT_GT(total, 0u);
  // Mid-script: late enough for commits, checkpoints and in-flight work.
  uint64_t first_idx = (total * 2) / 3;
  FaultInjectingDiskManager fault(std::make_unique<MemoryDiskManager>());
  fault.set_freeze_on_fault(true);
  fault.FailAtOp(first_idx, /*sticky=*/true);
  Catalog catalog(WalCatalogOptions(&fault, /*auto_flush=*/false));
  LockManager locks;
  ScriptResult script;
  RunScript(&catalog, &locks, &script, /*checkpoints=*/true);
  ASSERT_TRUE(fault.has_snapshot()) << "fault index never reached";
  auto img = CrashImage(fault);

  // The recovery of this image defines the second sweep's index space.
  uint64_t rec_ops = 0;
  {
    FaultInjectingDiskManager rfault(CopyDisk(img.get()));
    Catalog rcat(WalCatalogOptions(&rfault, /*auto_flush=*/false));
    RecoveryResult rr;
    { Status rst = rcat.Recover(&rr); ASSERT_TRUE(rst.ok()) << rst.ToString(); }
    rec_ops = rfault.total_ops();
  }
  ASSERT_GT(rec_ops, 0u);
  std::cout << "[ sweep    ] " << rec_ops
            << " injectable crash points inside recovery\n";

  for (uint64_t j = 0; j < rec_ops; ++j) {
    SCOPED_TRACE("second crash at recovery I/O index " + std::to_string(j));
    FaultInjectingDiskManager rfault(CopyDisk(img.get()));
    rfault.set_freeze_on_fault(true);
    rfault.FailAtOp(j, /*sticky=*/true);
    {
      Catalog rcat(WalCatalogOptions(&rfault, /*auto_flush=*/false));
      RecoveryResult rr;
      // The disk dies mid-recovery; the error itself is expected.
      Status st = rcat.Recover(&rr);
      (void)st;
    }
    ASSERT_TRUE(rfault.has_snapshot()) << "recovery never reached op " << j;
    auto img2 = CrashImage(rfault);
    VerifyCrashImage(img2.get(), script);
    if (HasFailure()) return;
  }
}

// --- Engine-level smoke test ---------------------------------------------

// A full production-system run (paged WM classes, DBMS-backed Rete with
// paged token memories, sequential engine) over a WAL-enabled catalog.
// "Crash" by abandoning the buffer pool and restarting from the raw
// disk: the log alone must rebuild every WM class relation.
TEST(CrashRecoveryTest, EngineWorkloadSurvivesRestartFromLogAlone) {
  WorkloadSpec spec;
  spec.num_classes = 3;
  spec.attrs_per_class = 3;
  spec.num_rules = 6;
  spec.ces_per_rule = 2;
  spec.domain = 4;
  spec.consuming_actions = true;
  spec.seed = 7;
  WorkloadGenerator gen(spec);

  auto mem = std::make_unique<MemoryDiskManager>();
  std::vector<uint32_t> heads;
  std::vector<std::multiset<std::string>> expected;
  {
    CatalogOptions copts = WalCatalogOptions(mem.get(), false);
    copts.buffer_pool_frames = 8;
    Catalog catalog(copts);
    ASSERT_TRUE(gen.CreateClasses(&catalog, StorageKind::kPaged).ok());

    ReteOptions ropts;
    ropts.dbms_backed = true;
    ropts.memory_storage = StorageKind::kPaged;
    ReteNetwork matcher(&catalog, ropts);
    for (const Rule& r : gen.GenerateRules()) {
      ASSERT_TRUE(matcher.AddRule(r).ok());
    }
    SequentialEngineOptions eopts;
    eopts.max_firings = 32;
    SequentialEngine engine(&catalog, &matcher, eopts);
    Rng rng(13);
    for (int i = 0; i < 40; ++i) {
      std::string cls = gen.ClassName(rng.Uniform(spec.num_classes));
      TupleId id;
      ASSERT_TRUE(engine.Insert(cls, gen.RandomTuple(&rng), &id).ok());
    }
    EngineRunResult result;
    ASSERT_TRUE(engine.Run(&result).ok());

    // The post-run WM contents are the durability contract: every WM
    // batch forced the log, so a restart from disk must reproduce them.
    for (size_t c = 0; c < spec.num_classes; ++c) {
      Relation* rel = catalog.Get(gen.ClassName(c));
      ASSERT_NE(rel, nullptr);
      heads.push_back(rel->head_page_id());
      std::multiset<std::string> tuples;
      ASSERT_TRUE(rel->Scan([&](TupleId, const Tuple& t) {
                        std::string s;
                        t.SerializeTo(&s);
                        tuples.insert(std::move(s));
                        return Status::OK();
                      })
                      .ok());
      expected.push_back(std::move(tuples));
    }
    // Catalog (and its pool of dirty pages) dies here: the crash.
  }

  Catalog rcat(WalCatalogOptions(mem.get(), /*auto_flush=*/false));
  RecoveryResult rr;
  { Status rst = rcat.Recover(&rr); ASSERT_TRUE(rst.ok()) << rst.ToString(); }
  EXPECT_GT(rr.records_scanned, 0u);
  for (size_t c = 0; c < spec.num_classes; ++c) {
    std::vector<Attribute> attrs;
    for (size_t a = 0; a < spec.attrs_per_class; ++a) {
      attrs.push_back(Attribute{"a" + std::to_string(a), ValueType::kInt});
    }
    std::unique_ptr<Relation> rel;
    ASSERT_TRUE(Relation::OpenPaged(Schema(gen.ClassName(c), attrs),
                                    rcat.buffer_pool(), heads[c], &rel)
                    .ok());
    std::multiset<std::string> got;
    ASSERT_TRUE(rel->Scan([&](TupleId, const Tuple& t) {
                      std::string s;
                      t.SerializeTo(&s);
                      got.insert(std::move(s));
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(got, expected[c]) << "class " << gen.ClassName(c)
                                << " diverged after restart";
  }
}

}  // namespace
}  // namespace prodb
