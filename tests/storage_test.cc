#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace prodb {
namespace {

// Frame-accounting invariant, checked after every buffer-pool-touching
// test: no test may leave the pool with leaked frames or inconsistent
// page-table/LRU bookkeeping.
void ExpectPoolBalanced(const BufferPool& pool) {
  Status st = pool.VerifyFrameAccounting();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(MemoryDiskManagerTest, AllocateReadWrite) {
  MemoryDiskManager dm;
  uint32_t p0, p1;
  ASSERT_TRUE(dm.AllocatePage(&p0).ok());
  ASSERT_TRUE(dm.AllocatePage(&p1).ok());
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  char buf[kPageSize];
  std::fill(buf, buf + kPageSize, 'x');
  ASSERT_TRUE(dm.WritePage(p1, buf).ok());
  char out[kPageSize];
  ASSERT_TRUE(dm.ReadPage(p1, out).ok());
  EXPECT_EQ(out[0], 'x');
  EXPECT_EQ(out[kPageSize - 1], 'x');
  // Fresh pages are zeroed.
  ASSERT_TRUE(dm.ReadPage(p0, out).ok());
  EXPECT_EQ(out[0], 0);
}

TEST(MemoryDiskManagerTest, OutOfRangeRejected) {
  MemoryDiskManager dm;
  char buf[kPageSize];
  EXPECT_FALSE(dm.ReadPage(5, buf).ok());
  EXPECT_FALSE(dm.WritePage(5, buf).ok());
}

TEST(FileDiskManagerTest, PersistsAcrossReopen) {
  std::string path = testing::TempDir() + "/prodb_dm_test.db";
  {
    std::unique_ptr<FileDiskManager> dm;
    ASSERT_TRUE(FileDiskManager::Open(path, /*truncate=*/true, &dm).ok());
    uint32_t pid;
    ASSERT_TRUE(dm->AllocatePage(&pid).ok());
    char buf[kPageSize] = {};
    buf[17] = 'z';
    ASSERT_TRUE(dm->WritePage(pid, buf).ok());
  }
  {
    std::unique_ptr<FileDiskManager> dm;
    ASSERT_TRUE(FileDiskManager::Open(path, /*truncate=*/false, &dm).ok());
    EXPECT_EQ(dm->PageCount(), 1u);
    char out[kPageSize];
    ASSERT_TRUE(dm->ReadPage(0, out).ok());
    EXPECT_EQ(out[17], 'z');
  }
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, StreamFailureIsNotSticky) {
  std::string path = testing::TempDir() + "/prodb_dm_failbit.db";
  std::unique_ptr<FileDiskManager> dm;
  ASSERT_TRUE(FileDiskManager::Open(path, /*truncate=*/true, &dm).ok());
  uint32_t pid;
  ASSERT_TRUE(dm->AllocatePage(&pid).ok());
  char buf[kPageSize] = {};
  ASSERT_TRUE(dm->WritePage(pid, buf).ok());
  // One failed operation must not make every later operation fail: the
  // stream's failbit has to be cleared after the error.
  dm->InjectStreamFaultForTesting();
  EXPECT_FALSE(dm->ReadPage(pid, buf).ok());
  EXPECT_TRUE(dm->ReadPage(pid, buf).ok());
  dm->InjectStreamFaultForTesting();
  EXPECT_FALSE(dm->WritePage(pid, buf).ok());
  EXPECT_TRUE(dm->WritePage(pid, buf).ok());
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, FailedAllocateDoesNotBurnPageId) {
  std::string path = testing::TempDir() + "/prodb_dm_alloc.db";
  std::unique_ptr<FileDiskManager> dm;
  ASSERT_TRUE(FileDiskManager::Open(path, /*truncate=*/true, &dm).ok());
  uint32_t pid;
  ASSERT_TRUE(dm->AllocatePage(&pid).ok());
  EXPECT_EQ(pid, 0u);
  // A failed allocate must not consume a page id: the id would be
  // in-range for ReadPage but its page was never zero-filled.
  dm->InjectStreamFaultForTesting();
  EXPECT_FALSE(dm->AllocatePage(&pid).ok());
  EXPECT_EQ(dm->PageCount(), 1u);
  char buf[kPageSize];
  EXPECT_EQ(dm->ReadPage(1, buf).code(), Status::Code::kOutOfRange);
  ASSERT_TRUE(dm->AllocatePage(&pid).ok());
  EXPECT_EQ(pid, 1u);  // the failed attempt's id is reissued
  EXPECT_TRUE(dm->ReadPage(1, buf).ok());
  std::remove(path.c_str());
}

TEST(BufferPoolTest, FetchHitsCache) {
  auto disk = std::make_unique<MemoryDiskManager>();
  MemoryDiskManager* raw = disk.get();
  BufferPool pool(4, std::move(disk));
  uint32_t pid;
  Frame* f;
  ASSERT_TRUE(pool.NewPage(&pid, &f).ok());
  f->data[0] = 'a';
  ASSERT_TRUE(pool.UnpinPage(pid, true).ok());
  uint64_t reads_before = raw->reads();
  ASSERT_TRUE(pool.FetchPage(pid, &f).ok());
  EXPECT_EQ(f->data[0], 'a');
  EXPECT_EQ(raw->reads(), reads_before);  // served from cache
  EXPECT_EQ(pool.stats().hits, 1u);
  ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
  ExpectPoolBalanced(pool);
}

TEST(BufferPoolTest, EvictsLruAndWritesBackDirty) {
  auto disk = std::make_unique<MemoryDiskManager>();
  MemoryDiskManager* raw = disk.get();
  BufferPool pool(2, std::move(disk));
  uint32_t pids[3];
  for (int i = 0; i < 3; ++i) {
    Frame* f;
    ASSERT_TRUE(pool.NewPage(&pids[i], &f).ok());
    f->data[0] = static_cast<char>('a' + i);
    ASSERT_TRUE(pool.UnpinPage(pids[i], true).ok());
  }
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
  // The evicted first page must reload with its data intact.
  Frame* f;
  ASSERT_TRUE(pool.FetchPage(pids[0], &f).ok());
  EXPECT_EQ(f->data[0], 'a');
  ASSERT_TRUE(pool.UnpinPage(pids[0], false).ok());
  EXPECT_GT(raw->writes(), 0u);
  ExpectPoolBalanced(pool);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(2, std::make_unique<MemoryDiskManager>());
  uint32_t p0, p1, p2;
  Frame *f0, *f1, *f2;
  ASSERT_TRUE(pool.NewPage(&p0, &f0).ok());
  ASSERT_TRUE(pool.NewPage(&p1, &f1).ok());
  // Both frames pinned: a third page cannot be materialized.
  EXPECT_FALSE(pool.NewPage(&p2, &f2).ok());
  ASSERT_TRUE(pool.UnpinPage(p0, false).ok());
  EXPECT_TRUE(pool.NewPage(&p2, &f2).ok());
  ASSERT_TRUE(pool.UnpinPage(p1, false).ok());
  ASSERT_TRUE(pool.UnpinPage(p2, false).ok());
  ExpectPoolBalanced(pool);
}

TEST(BufferPoolTest, UnpinErrorsOnBadCalls) {
  BufferPool pool(2, std::make_unique<MemoryDiskManager>());
  EXPECT_FALSE(pool.UnpinPage(99, false).ok());
  uint32_t pid;
  Frame* f;
  ASSERT_TRUE(pool.NewPage(&pid, &f).ok());
  ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
  EXPECT_FALSE(pool.UnpinPage(pid, false).ok());  // already unpinned
  ExpectPoolBalanced(pool);
}

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<BufferPool>(
        16, std::make_unique<MemoryDiskManager>());
    ASSERT_TRUE(HeapFile::Create(pool_.get(), &hf_).ok());
  }
  void TearDown() override { ExpectPoolBalanced(*pool_); }
  Tuple MakeTuple(int i) {
    return Tuple{Value(i), Value("name" + std::to_string(i)), Value(i * 1.5)};
  }
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<HeapFile> hf_;
};

TEST_F(HeapFileTest, InsertAndGet) {
  TupleId id;
  ASSERT_TRUE(hf_->Insert(MakeTuple(1), &id).ok());
  Tuple out;
  ASSERT_TRUE(hf_->Get(id, &out).ok());
  EXPECT_EQ(out, MakeTuple(1));
  EXPECT_EQ(hf_->TupleCount(), 1u);
}

TEST_F(HeapFileTest, GetMissingFails) {
  Tuple out;
  EXPECT_TRUE(hf_->Get(TupleId{0, 5}, &out).IsNotFound());
}

TEST_F(HeapFileTest, DeleteRemovesTuple) {
  TupleId id;
  ASSERT_TRUE(hf_->Insert(MakeTuple(1), &id).ok());
  ASSERT_TRUE(hf_->Delete(id).ok());
  Tuple out;
  EXPECT_TRUE(hf_->Get(id, &out).IsNotFound());
  EXPECT_TRUE(hf_->Delete(id).IsNotFound());  // double delete
  EXPECT_EQ(hf_->TupleCount(), 0u);
}

TEST_F(HeapFileTest, UpdateInPlaceKeepsId) {
  TupleId id, nid;
  ASSERT_TRUE(hf_->Insert(MakeTuple(123456), &id).ok());
  Tuple smaller{Value(1), Value("x"), Value(0.5)};
  ASSERT_TRUE(hf_->Update(id, smaller, &nid).ok());
  EXPECT_EQ(id, nid);
  Tuple out;
  ASSERT_TRUE(hf_->Get(nid, &out).ok());
  EXPECT_EQ(out, smaller);
}

TEST_F(HeapFileTest, UpdateGrowingTupleMayMove) {
  TupleId id, nid;
  ASSERT_TRUE(hf_->Insert(Tuple{Value(1)}, &id).ok());
  Tuple bigger{Value(std::string(500, 'q'))};
  ASSERT_TRUE(hf_->Update(id, bigger, &nid).ok());
  Tuple out;
  ASSERT_TRUE(hf_->Get(nid, &out).ok());
  EXPECT_EQ(out, bigger);
  EXPECT_EQ(hf_->TupleCount(), 1u);
}

TEST_F(HeapFileTest, ScanVisitsAllLiveTuples) {
  std::vector<TupleId> ids(10);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(hf_->Insert(MakeTuple(i), &ids[static_cast<size_t>(i)]).ok());
  }
  ASSERT_TRUE(hf_->Delete(ids[3]).ok());
  ASSERT_TRUE(hf_->Delete(ids[7]).ok());
  int count = 0;
  ASSERT_TRUE(hf_->Scan([&](TupleId id, const Tuple&) {
                 EXPECT_NE(id, ids[3]);
                 EXPECT_NE(id, ids[7]);
                 ++count;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(count, 8);
}

TEST_F(HeapFileTest, SpillsAcrossPagesAndScans) {
  // Each tuple ~120 bytes; hundreds force multiple pages.
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    TupleId id;
    ASSERT_TRUE(
        hf_->Insert(Tuple{Value(i), Value(std::string(100, 'a'))}, &id).ok());
  }
  EXPECT_GT(hf_->PageCount(), 3u);
  size_t count = 0;
  ASSERT_TRUE(hf_->Scan([&](TupleId, const Tuple&) {
                 ++count;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(count, static_cast<size_t>(n));
}

TEST_F(HeapFileTest, CompactionReclaimsDeletedSpace) {
  // Fill one page, delete everything, re-fill: should not grow by much.
  std::vector<TupleId> ids;
  for (int i = 0; i < 30; ++i) {
    TupleId id;
    ASSERT_TRUE(hf_->Insert(Tuple{Value(std::string(100, 'b'))}, &id).ok());
    ids.push_back(id);
  }
  size_t pages_before = hf_->PageCount();
  for (TupleId id : ids) ASSERT_TRUE(hf_->Delete(id).ok());
  for (int i = 0; i < 30; ++i) {
    TupleId id;
    ASSERT_TRUE(hf_->Insert(Tuple{Value(std::string(100, 'c'))}, &id).ok());
  }
  EXPECT_EQ(hf_->PageCount(), pages_before);
}

TEST_F(HeapFileTest, RejectsOversizedTuple) {
  TupleId id;
  Tuple huge{Value(std::string(kPageSize, 'x'))};
  EXPECT_TRUE(hf_->Insert(huge, &id).IsInvalidArgument());
}

TEST_F(HeapFileTest, ReopenFindsSameTuples) {
  std::vector<std::pair<TupleId, Tuple>> written;
  for (int i = 0; i < 100; ++i) {
    TupleId id;
    Tuple t = MakeTuple(i);
    ASSERT_TRUE(hf_->Insert(t, &id).ok());
    written.emplace_back(id, t);
  }
  uint32_t head = hf_->head_page_id();
  std::unique_ptr<HeapFile> reopened;
  ASSERT_TRUE(HeapFile::Open(pool_.get(), head, &reopened).ok());
  EXPECT_EQ(reopened->TupleCount(), 100u);
  for (const auto& [id, t] : written) {
    Tuple out;
    ASSERT_TRUE(reopened->Get(id, &out).ok());
    EXPECT_EQ(out, t);
  }
}

// Property: random insert/delete/update churn matches a reference map.
TEST(HeapFileProperty, RandomChurnMatchesReference) {
  BufferPool pool(8, std::make_unique<MemoryDiskManager>());
  std::unique_ptr<HeapFile> hf;
  ASSERT_TRUE(HeapFile::Create(&pool, &hf).ok());
  Rng rng(99);
  std::map<TupleId, Tuple> reference;
  for (int step = 0; step < 2000; ++step) {
    int op = static_cast<int>(rng.Uniform(10));
    if (op < 6 || reference.empty()) {
      Tuple t{Value(static_cast<int64_t>(rng.Uniform(1000))),
              Value(std::string(rng.Uniform(60), 's'))};
      TupleId id;
      ASSERT_TRUE(hf->Insert(t, &id).ok());
      reference[id] = t;
    } else if (op < 8) {
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      ASSERT_TRUE(hf->Delete(it->first).ok());
      reference.erase(it);
    } else {
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      Tuple t{Value(static_cast<int64_t>(rng.Uniform(1000))),
              Value(std::string(rng.Uniform(80), 'u'))};
      TupleId nid;
      ASSERT_TRUE(hf->Update(it->first, t, &nid).ok());
      reference.erase(it);
      reference[nid] = t;
    }
  }
  EXPECT_EQ(hf->TupleCount(), reference.size());
  size_t seen = 0;
  ASSERT_TRUE(hf->Scan([&](TupleId id, const Tuple& t) {
                 auto it = reference.find(id);
                 EXPECT_NE(it, reference.end());
                 if (it != reference.end()) {
                   EXPECT_EQ(it->second, t);
                 }
                 ++seen;
                 return Status::OK();
               }).ok());
  EXPECT_EQ(seen, reference.size());
  ExpectPoolBalanced(pool);
}

}  // namespace
}  // namespace prodb
