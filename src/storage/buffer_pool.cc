#include "storage/buffer_pool.h"

#include <cstring>

#include "storage/page_layout.h"
#include "storage/wal.h"

namespace prodb {

BufferPool::BufferPool(size_t capacity, DiskManager* disk) : disk_(disk) {
  frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_.push_back(std::make_unique<Frame>());
    free_frames_.push_back(frames_.back().get());
  }
}

BufferPool::BufferPool(size_t capacity, std::unique_ptr<DiskManager> disk)
    : BufferPool(capacity, disk.get()) {
  owned_disk_ = std::move(disk);
}

Frame* BufferPool::Victim(Status* status) {
  *status = Status::OK();
  if (!free_frames_.empty()) {
    Frame* f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  if (lru_.empty()) {
    *status = Status::Internal("buffer pool exhausted: all frames pinned");
    return nullptr;
  }
  // Walk the LRU candidates oldest-first. A dirty candidate is only
  // evicted once its writeback succeeds; on failure it stays fully
  // resident (frame, page-table and LRU entries intact) so the only copy
  // of its data is preserved, and the next candidate is tried. If every
  // candidate's writeback fails, the first error is surfaced. Pages
  // dirtied by in-flight transactions are fair game (steal): the WAL
  // rule inside WritePageWithWalRule forces the log — and with it the
  // record's inline before-image — before the page hits disk, so restart
  // undo can always roll the transaction back.
  Status first_error;
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    Frame* f = *it;
    if (f->dirty) {
      Status st = WritePageWithWalRule(f);
      if (!st.ok()) {
        ++stats_.writeback_failures;
        if (first_error.ok()) first_error = st;
        continue;
      }
      ++stats_.dirty_writebacks;
      f->dirty = false;
      f->rec_lsn = 0;
    }
    lru_.erase(it);
    lru_pos_.erase(f);
    page_table_.erase(f->page_id);
    ++stats_.evictions;
    return f;
  }
  if (first_error.ok()) {
    first_error = Status::Internal("buffer pool: no evictable frame");
  }
  *status = first_error;
  return nullptr;
}

Status BufferPool::WritePageWithWalRule(const Frame* f) {
  if (wal_ == nullptr) return disk_->WritePage(f->page_id, f->data);
  Lsn lsn = PageLsn(f->data);
  if (lsn > wal_->flushed_lsn()) {
    PRODB_RETURN_IF_ERROR(wal_->FlushTo(lsn));
    ++stats_.log_forces;
  }
  PRODB_RETURN_IF_ERROR(disk_->WritePage(f->page_id, f->data));
  if (lsn > wal_->OldestActiveTxnLsn()) ++stats_.pages_stolen;
  return Status::OK();
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BufferPool::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = BufferPoolStats{};
}

void BufferPool::SetWal(LogManager* wal) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = wal;
}

void BufferPool::NoteLoggedUpdate(Frame* f, uint64_t rec_start_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (f->rec_lsn == 0) f->rec_lsn = rec_start_lsn + 1;
}

uint64_t BufferPool::MinDirtyRecLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t min_lsn = UINT64_MAX;
  for (const auto& f : frames_) {
    if (f->rec_lsn != 0 && f->rec_lsn - 1 < min_lsn) {
      min_lsn = f->rec_lsn - 1;
    }
  }
  return min_lsn;
}

Status BufferPool::FetchPage(uint32_t page_id, Frame** frame) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    Frame* f = it->second;
    if (f->pin_count == 0) {
      // Remove from LRU: pinned frames are not eviction candidates.
      auto pos = lru_pos_.find(f);
      if (pos != lru_pos_.end()) {
        lru_.erase(pos->second);
        lru_pos_.erase(pos);
      }
    }
    ++f->pin_count;
    ++stats_.hits;
    *frame = f;
    return Status::OK();
  }
  ++stats_.misses;
  Status st;
  Frame* f = Victim(&st);
  if (f == nullptr) return st;
  st = disk_->ReadPage(page_id, f->data);
  if (!st.ok()) {
    // The victim was already detached from the page table / LRU; hand it
    // back to the free list or the pool permanently loses a frame.
    f->page_id = UINT32_MAX;
    f->dirty = false;
    free_frames_.push_back(f);
    return st;
  }
  f->page_id = page_id;
  f->pin_count = 1;
  f->dirty = false;
  f->rec_lsn = 0;
  page_table_[page_id] = f;
  *frame = f;
  return Status::OK();
}

Status BufferPool::NewPage(uint32_t* page_id, Frame** frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Status st;
  Frame* f = Victim(&st);
  if (f == nullptr) return st;
  st = disk_->AllocatePage(page_id);
  if (!st.ok()) {
    free_frames_.push_back(f);
    return st;
  }
  std::memset(f->data, 0, kPageSize);
  f->page_id = *page_id;
  f->pin_count = 1;
  f->dirty = true;
  f->rec_lsn = 0;
  page_table_[*page_id] = f;
  *frame = f;
  return Status::OK();
}

Status BufferPool::UnpinPage(uint32_t page_id, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::NotFound("unpin of non-resident page " +
                            std::to_string(page_id));
  }
  Frame* f = it->second;
  if (f->pin_count <= 0) {
    return Status::Internal("unpin of unpinned page " +
                            std::to_string(page_id));
  }
  f->dirty = f->dirty || dirty;
  if (--f->pin_count == 0) {
    lru_.push_back(f);
    lru_pos_[f] = std::prev(lru_.end());
  }
  return Status::OK();
}

Status BufferPool::FlushPage(uint32_t page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return Status::OK();
  Frame* f = it->second;
  if (f->dirty) {
    PRODB_RETURN_IF_ERROR(WritePageWithWalRule(f));
    f->dirty = false;
    f->rec_lsn = 0;
  }
  return Status::OK();
}

Status BufferPool::VerifyFrameAccounting() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t pinned = 0;
  for (const auto& f : frames_) {
    if (f->pin_count < 0) {
      return Status::Internal("frame accounting: negative pin count on page " +
                              std::to_string(f->page_id));
    }
    if (f->pin_count > 0) ++pinned;
  }
  if (free_frames_.size() + lru_.size() + pinned != frames_.size()) {
    return Status::Internal(
        "frame accounting: free " + std::to_string(free_frames_.size()) +
        " + lru " + std::to_string(lru_.size()) + " + pinned " +
        std::to_string(pinned) + " != capacity " +
        std::to_string(frames_.size()));
  }
  if (page_table_.size() != lru_.size() + pinned) {
    return Status::Internal(
        "frame accounting: page table " + std::to_string(page_table_.size()) +
        " != lru " + std::to_string(lru_.size()) + " + pinned " +
        std::to_string(pinned));
  }
  if (lru_pos_.size() != lru_.size()) {
    return Status::Internal("frame accounting: lru_pos/lru size mismatch");
  }
  for (Frame* f : lru_) {
    if (f->pin_count != 0) {
      return Status::Internal("frame accounting: pinned frame in LRU, page " +
                              std::to_string(f->page_id));
    }
    auto it = page_table_.find(f->page_id);
    if (it == page_table_.end() || it->second != f) {
      return Status::Internal(
          "frame accounting: LRU frame not in page table, page " +
          std::to_string(f->page_id));
    }
  }
  for (Frame* f : free_frames_) {
    auto it = page_table_.find(f->page_id);
    if (it != page_table_.end() && it->second == f) {
      return Status::Internal("frame accounting: free frame resident, page " +
                              std::to_string(f->page_id));
    }
  }
  return Status::OK();
}

Status BufferPool::VerifyCleanFramesMatchDisk() const {
  std::lock_guard<std::mutex> lock(mu_);
  char buf[kPageSize];
  for (const auto& [pid, f] : page_table_) {
    if (f->dirty) continue;
    PRODB_RETURN_IF_ERROR(disk_->ReadPage(pid, buf));
    if (std::memcmp(buf, f->data, kPageSize) != 0) {
      return Status::Corruption("clean frame diverges from disk, page " +
                                std::to_string(pid));
    }
  }
  return Status::OK();
}

Status BufferPool::FlushPagesDirtyBefore(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [pid, f] : page_table_) {
    if (f->dirty && f->rec_lsn != 0 && f->rec_lsn - 1 < lsn) {
      PRODB_RETURN_IF_ERROR(WritePageWithWalRule(f));
      f->dirty = false;
      f->rec_lsn = 0;
    }
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [pid, f] : page_table_) {
    if (f->dirty) {
      PRODB_RETURN_IF_ERROR(WritePageWithWalRule(f));
      f->dirty = false;
      f->rec_lsn = 0;
    }
  }
  return Status::OK();
}

}  // namespace prodb
