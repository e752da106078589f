#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/env.h"
#include "base/rng.h"
#include "core/database.h"
#include "pager/buffer_pool.h"
#include "pager/pager.h"
#include "storage/note_store.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using testing_util::MakeDoc;
using testing_util::ScratchDir;

// ------------------------------------------------------------------ Pager --

TEST(PagerTest, AllocateFreeReuse) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto pager,
                       pager::Pager::Open(dir.Sub("p.pages"), 512));
  EXPECT_EQ(pager->Allocate(), 0u);
  EXPECT_EQ(pager->Allocate(), 1u);
  EXPECT_EQ(pager->Allocate(), 2u);
  pager->Free(1);
  EXPECT_EQ(pager->free_count(), 1u);
  EXPECT_EQ(pager->Allocate(), 1u);  // lowest free page first
  EXPECT_EQ(pager->Allocate(), 3u);  // then the watermark
  EXPECT_EQ(pager->page_count(), 4u);
}

TEST(PagerTest, RejectsBadPageSizes) {
  ScratchDir dir;
  EXPECT_FALSE(pager::Pager::Open(dir.Sub("a"), 0).ok());
  EXPECT_FALSE(pager::Pager::Open(dir.Sub("b"), 100).ok());  // not a power of 2
  EXPECT_FALSE(pager::Pager::Open(dir.Sub("c"), 32).ok());   // too small
}

TEST(PagerTest, WriteReadRoundTripAndCrcDetection) {
  ScratchDir dir;
  std::string path = dir.Sub("p.pages");
  constexpr uint32_t kPageSize = 512;
  ASSERT_OK_AND_ASSIGN(auto pager, pager::Pager::Open(path, kPageSize));
  uint32_t pgno = pager->Allocate();
  std::vector<char> page(kPageSize, 'q');  // non-zero so a torn tail shows
  page[pager::kPageTypeOffset] = pager::kPageBucket;
  std::memcpy(page.data() + pager::kPageHeaderSize, "payload", 7);
  ASSERT_OK(pager->WritePage(pgno, page.data()));
  ASSERT_OK(pager->Sync());

  std::vector<char> read(kPageSize, 0);
  ASSERT_OK(pager->ReadPage(pgno, read.data()));
  EXPECT_EQ(std::memcmp(read.data() + pager::kPageHeaderSize, "payload", 7),
            0);

  // A torn in-place write (zeroed tail) must fail the CRC.
  ASSERT_OK(SimulateTornWrite(path, kPageSize / 2));
  Status s = pager->ReadPage(pgno, read.data());
  EXPECT_FALSE(s.ok());
}

// ------------------------------------------------------------ BufferPool --

class PoolFixture : public ::testing::Test {
 protected:
  void Open(uint32_t page_size, size_t capacity) {
    auto pager = pager::Pager::Open(dir_.Sub("p.pages"), page_size);
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(*pager);
    pool_ = std::make_unique<pager::BufferPool>(pager_.get(), capacity,
                                                &registry_);
  }

  // Allocates a page, stamps a recognizable byte, and checkpoints it to
  // disk so later Pins can miss-and-read it.
  uint32_t MakePage(char tag) {
    uint32_t pgno = pager_->Allocate();
    {
      pager::PageRef ref = pool_->PinNew(pgno, pager::kPageBucket);
      ref.data()[pager::kPageHeaderSize] = tag;
      ref.MarkDirty();
    }
    return pgno;
  }

  void FlushAll() {
    ASSERT_OK(pool_->ForEachDirty([&](uint32_t pgno, char* data) {
      return pager_->WritePage(pgno, data);
    }));
    pool_->MarkAllClean();
  }

  ScratchDir dir_;
  stats::StatRegistry registry_;
  std::unique_ptr<pager::Pager> pager_;
  std::unique_ptr<pager::BufferPool> pool_;
};

TEST_F(PoolFixture, HitMissAndLruEviction) {
  Open(512, 4);
  std::vector<uint32_t> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(MakePage('a' + i));
  FlushAll();
  // 8 clean frames with capacity 4: eviction trims to capacity as soon
  // as frames become evictable.
  for (uint32_t pgno : pages) {
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pgno));
    (void)ref;
  }
  EXPECT_LE(pool_->frame_count(), 4u);
  uint64_t misses_before = pool_->misses();
  {
    // The most recently used page is still resident.
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pages.back()));
    EXPECT_EQ(ref.data()[pager::kPageHeaderSize], 'a' + 7);
  }
  EXPECT_EQ(pool_->misses(), misses_before);
  EXPECT_GT(pool_->hits(), 0u);
  {
    // The least recently used one was evicted: a miss re-reads it.
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pages.front()));
    EXPECT_EQ(ref.data()[pager::kPageHeaderSize], 'a');
  }
  EXPECT_EQ(pool_->misses(), misses_before + 1);
}

TEST_F(PoolFixture, PinnedFramesSurviveOverCapacity) {
  Open(512, 2);
  std::vector<uint32_t> pages;
  for (int i = 0; i < 6; ++i) pages.push_back(MakePage('A' + i));
  FlushAll();
  // Hold pins on 6 pages at once with capacity 2: the pool must grow
  // (counting overruns) rather than evict a pinned frame.
  std::vector<pager::PageRef> refs;
  for (uint32_t pgno : pages) {
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pgno));
    refs.push_back(std::move(ref));
  }
  EXPECT_EQ(pool_->frame_count(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(refs[i].data()[pager::kPageHeaderSize], 'A' + i);
  }
  EXPECT_GT(registry_.GetCounter("Store.Cache.CapacityOverruns").value(), 0u);
  refs.clear();
  // Once the pins drop, the next pin round lets eviction trim back down.
  for (uint32_t pgno : pages) {
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pgno));
    (void)ref;
  }
  EXPECT_LE(pool_->frame_count(), 2u);
}

TEST_F(PoolFixture, DirtyFramesAreNeverEvicted) {
  Open(512, 2);
  // 5 dirty frames, capacity 2: all must stay resident (the page file
  // knows nothing about them yet).
  for (int i = 0; i < 5; ++i) MakePage('x');
  EXPECT_EQ(pool_->frame_count(), 5u);
  EXPECT_EQ(pool_->dirty_count(), 5u);
  FlushAll();
  // Clean now; fresh pins push the old frames out.
  for (int i = 0; i < 3; ++i) MakePage('y');
  FlushAll();
  for (uint32_t pgno = 5; pgno < 8; ++pgno) {
    ASSERT_OK_AND_ASSIGN(pager::PageRef ref, pool_->Pin(pgno));
    (void)ref;
  }
  EXPECT_LE(pool_->frame_count(), 3u);  // 2 + possibly one in transit
}

TEST_F(PoolFixture, EvictionUnderPinStress) {
  Open(512, 8);
  constexpr int kPages = 32;
  std::vector<uint32_t> pages;
  for (int i = 0; i < kPages; ++i) {
    pages.push_back(MakePage(static_cast<char>(i)));
  }
  FlushAll();
  // Concurrent readers pin random pages while holding a few refs each —
  // constant eviction pressure with interleaved pins (TSan-checked).
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<pager::PageRef> held;
      for (int iter = 0; iter < 400; ++iter) {
        uint32_t idx = static_cast<uint32_t>(rng.Uniform(kPages));
        auto ref = pool_->Pin(pages[idx]);
        if (!ref.ok()) {
          failed = true;
          return;
        }
        if (ref->data()[pager::kPageHeaderSize] !=
            static_cast<char>(idx)) {
          failed = true;
          return;
        }
        held.push_back(std::move(*ref));
        if (held.size() > 3) held.erase(held.begin());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed);
  EXPECT_GT(registry_.GetCounter("Store.Cache.Evictions").value(), 0u);
}

// --------------------------------------------------- Paged store behavior --

StoreOptions TinyPagedOptions() {
  StoreOptions options;
  options.sync_mode = wal::SyncMode::kNone;
  options.checkpoint_threshold_bytes = 0;
  options.page_size = 512;
  options.cache_pages = 8;
  options.compact_threshold_bytes = 0;
  return options;
}

DatabaseInfo PagedInfo() {
  DatabaseInfo info;
  info.replica_id = Unid{0x7a6e, 0x1};
  info.title = "paged";
  return info;
}

Note SizedDoc(uint64_t unid_lo, Micros t, size_t body_len) {
  Note note = MakeDoc("Memo", "s" + std::to_string(unid_lo));
  note.SetText("Body", std::string(body_len, 'b'));
  note.StampCreated(Unid{0x22, unid_lo}, t);
  return note;
}

TEST(PagedStoreTest, OverflowNotesRoundTrip) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(dir.Sub("db"),
                                                   TinyPagedOptions(),
                                                   PagedInfo()));
  // Far larger than one 512-byte page → overflow chain.
  Note big = SizedDoc(1, 10, 5000);
  ASSERT_OK(store->Put(&big));
  Note small = SizedDoc(2, 11, 10);
  ASSERT_OK(store->Put(&small));
  ASSERT_OK_AND_ASSIGN(Note read_big, store->Get(big.id()));
  EXPECT_EQ(read_big.GetText("Body"), std::string(5000, 'b'));
  ASSERT_OK(store->Checkpoint());

  // Reopen: the chain survives a restart.
  ASSERT_OK_AND_ASSIGN(auto reopened, NoteStore::Open(dir.Sub("db"),
                                                      TinyPagedOptions(),
                                                      PagedInfo()));
  ASSERT_OK_AND_ASSIGN(Note again, reopened->Get(big.id()));
  EXPECT_EQ(again.GetText("Body"), std::string(5000, 'b'));
  // Erasing the big note frees its chain pages for reuse.
  size_t free_before = 0;  // fresh pool after reopen
  (void)free_before;
  ASSERT_OK(reopened->Erase(big.id()));
  ASSERT_OK_AND_ASSIGN(Note still, reopened->Get(small.id()));
  EXPECT_EQ(still.GetText("Subject"), "s2");
}

TEST(PagedStoreTest, BeyondRamReopenEquivalence) {
  ScratchDir dir;
  std::map<NoteId, std::pair<std::string, size_t>> model;  // id → subj, len
  {
    ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(dir.Sub("db"),
                                                     TinyPagedOptions(),
                                                     PagedInfo()));
    Rng rng(42);
    Micros t = 1;
    for (int op = 0; op < 600; ++op) {
      double dice = rng.NextDouble();
      if (dice < 0.65 || model.empty()) {
        size_t len = rng.Uniform(3) == 0 ? 900 + rng.Uniform(1200)
                                         : rng.Uniform(200);
        Note note = SizedDoc(rng.Next(), t++, len);
        ASSERT_OK(store->Put(&note));
        model[note.id()] = {note.GetText("Subject"), len};
      } else if (dice < 0.85) {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_OK_AND_ASSIGN(Note note, store->Get(it->first));
        size_t len = rng.Uniform(400);
        note.SetText("Body", std::string(len, 'b'));
        note.BumpSequence(t++);
        ASSERT_OK(store->Put(&note));
        it->second.second = len;
      } else {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_OK(store->Erase(it->first));
        model.erase(it);
      }
      if (op % 211 == 210) ASSERT_OK(store->Checkpoint());
    }
    // The data dwarfs the 8-page pool: the store must have gone to disk.
    EXPECT_GT(store->pages_size_bytes(), 8u * 512u * 4u);
    ASSERT_OK(store->Checkpoint());
  }
  // Reopen with the same tiny pool and compare against the model.
  stats::StatRegistry registry;
  StoreOptions options = TinyPagedOptions();
  options.stats = &registry;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_EQ(store->total_count(), model.size());
  for (const auto& [id, expected] : model) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    EXPECT_EQ(note.GetText("Subject"), expected.first);
    EXPECT_EQ(note.GetText("Body").size(), expected.second);
  }
  // Serving a working set larger than the pool produces misses and
  // evictions; the hit-rate stats are the E16 observables.
  EXPECT_GT(registry.GetCounter("Store.Cache.Misses").value(), 0u);
  EXPECT_GT(registry.GetCounter("Store.Cache.Hits").value(), 0u);
  // ForEach (id order) sweeps the whole file through the bounded pool.
  size_t seen = 0;
  store->ForEach([&](const Note& note) {
    auto it = model.find(note.id());
    ASSERT_NE(it, model.end());
    ++seen;
  });
  EXPECT_EQ(seen, model.size());
}

TEST(PagedStoreTest, FindHandlesSurviveEvictionAndWrites) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(dir.Sub("db"),
                                                   TinyPagedOptions(),
                                                   PagedInfo()));
  Note first = SizedDoc(1, 10, 100);
  ASSERT_OK(store->Put(&first));
  NoteHandle handle = store->Find(first.id());
  ASSERT_NE(handle, nullptr);
  // Churn enough pages to cycle the 8-frame pool several times, then
  // overwrite the note itself: the handle must still read "s1".
  for (int i = 0; i < 200; ++i) {
    Note filler = SizedDoc(100 + static_cast<uint64_t>(i), 20 + i, 300);
    ASSERT_OK(store->Put(&filler));
  }
  Note updated = *handle;
  updated.SetText("Subject", "rewritten");
  updated.BumpSequence(999);
  ASSERT_OK(store->Put(&updated));
  EXPECT_EQ(handle->GetText("Subject"), "s1");
  NoteHandle fresh = store->Find(first.id());
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->GetText("Subject"), "rewritten");
}

// ------------------------------------------------------------- Compaction --

TEST(CompactTest, ReclaimsPurgedStubVolume) {
  ScratchDir dir;
  StoreOptions options = TinyPagedOptions();
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  std::vector<NoteId> victims;
  std::map<NoteId, std::string> survivors;
  Micros t = 1;
  for (int i = 0; i < 200; ++i) {
    Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++, 150);
    ASSERT_OK(store->Put(&note));
    if (i % 2 == 0) {
      victims.push_back(note.id());
    } else {
      survivors[note.id()] = note.GetText("Subject");
    }
  }
  ASSERT_OK(store->Checkpoint());
  const uint64_t size_before = store->pages_size_bytes();
  // Delete half the documents and purge the stubs — the husk bytes are
  // now dead in place.
  for (NoteId id : victims) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    note.MakeStub(t++);
    ASSERT_OK(store->Put(&note));
  }
  Micros later = t + store->info().purge_interval + 1'000'000;
  ASSERT_OK_AND_ASSIGN(size_t purged, store->PurgeStubs(later));
  EXPECT_EQ(purged, victims.size());
  const uint64_t dead = store->dead_bytes();
  EXPECT_GT(dead, 0u);
  // COMPACT in slices until dry.
  for (;;) {
    ASSERT_OK_AND_ASSIGN(size_t reclaimed, store->CompactStep(4));
    if (reclaimed == 0) break;
  }
  // Acceptance: the reclaimed byte volume covers the dead bytes the
  // purge left behind, and the page file shrinks at the checkpoint.
  EXPECT_GE(store->compact_stats().bytes_reclaimed, dead);
  EXPECT_EQ(store->dead_bytes(), 0u);
  ASSERT_OK(store->Checkpoint());
  EXPECT_LT(store->pages_size_bytes(), size_before);
  // Survivors all moved intact.
  for (const auto& [id, subject] : survivors) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    EXPECT_EQ(note.GetText("Subject"), subject);
  }
  // And stay intact across a reopen.
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_EQ(reopened->total_count(), survivors.size());
  for (const auto& [id, subject] : survivors) {
    ASSERT_OK_AND_ASSIGN(Note note, reopened->Get(id));
    EXPECT_EQ(note.GetText("Subject"), subject);
  }
}

TEST(CompactTest, CrashBeforeCheckpointLosesNothing) {
  ScratchDir dir;
  StoreOptions options = TinyPagedOptions();
  std::map<NoteId, std::string> survivors;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
    Micros t = 1;
    std::vector<NoteId> victims;
    for (int i = 0; i < 120; ++i) {
      Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++, 120);
      ASSERT_OK(store->Put(&note));
      if (i % 2 == 0) {
        victims.push_back(note.id());
      } else {
        survivors[note.id()] = note.GetText("Subject");
      }
    }
    ASSERT_OK(store->Checkpoint());
    for (NoteId id : victims) ASSERT_OK(store->Erase(id));
    for (;;) {
      ASSERT_OK_AND_ASSIGN(size_t reclaimed, store->CompactStep(4));
      if (reclaimed == 0) break;
    }
    EXPECT_GT(store->compact_stats().pages_reclaimed, 0u);
    // "Crash": drop the store without checkpointing. Compaction only
    // rearranged in-memory pages; recovery must replay the logical WAL
    // onto the last checkpointed page state.
  }
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_EQ(store->total_count(), survivors.size());
  for (const auto& [id, subject] : survivors) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    EXPECT_EQ(note.GetText("Subject"), subject);
  }
}

TEST(CompactTest, OnlineCompactWithConcurrentReaders) {
  ScratchDir dir;
  DatabaseOptions options;
  options.store.sync_mode = wal::SyncMode::kNone;
  options.store.checkpoint_threshold_bytes = 0;
  options.store.page_size = 512;
  options.store.cache_pages = 16;
  options.title = "compact-online";
  SimClock clock(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(dir.Sub("db"), options,
                                               &clock));
  std::vector<NoteId> live_ids;
  std::vector<NoteId> victims;
  for (int i = 0; i < 300; ++i) {
    Note note = MakeDoc("Memo", "doc" + std::to_string(i));
    note.SetText("Body", std::string(100, 'c'));
    ASSERT_OK_AND_ASSIGN(NoteId id, db->CreateNote(std::move(note)));
    if (i % 2 == 0) {
      victims.push_back(id);
    } else {
      live_ids.push_back(id);
    }
    clock.Advance(1'000'000);
  }
  for (NoteId id : victims) ASSERT_OK(db->DeleteNote(id));
  clock.Advance(db->info().purge_interval + 3'600'000'000ll);
  ASSERT_OK_AND_ASSIGN(size_t purged, db->PurgeStubs());
  EXPECT_EQ(purged, victims.size());
  const uint64_t dead = db->store()->dead_bytes();
  EXPECT_GT(dead, 0u);

  // Readers hammer random live documents while COMPACT runs online; the
  // writer lock is only held per slice, so reads interleave with the
  // copy and must always see intact notes.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 7);
      while (!stop.load(std::memory_order_relaxed)) {
        NoteId id = live_ids[rng.Uniform(live_ids.size())];
        auto note = db->ReadNote(id);
        if (!note.ok() || note->GetText("Body") != std::string(100, 'c')) {
          failed = true;
          return;
        }
      }
    });
  }
  ASSERT_OK(db->RunCompact());
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed);
  EXPECT_GE(db->store()->compact_stats().bytes_reclaimed, dead);
  EXPECT_EQ(db->store()->dead_bytes(), 0u);
  for (NoteId id : live_ids) {
    ASSERT_OK_AND_ASSIGN(Note note, db->ReadNote(id));
    EXPECT_EQ(note.GetText("Body"), std::string(100, 'c'));
  }
}

// Fills `store` with small notes, then one overflow note and a few more
// small notes at the end of the file, then erases, stubs and purges most
// of the early notes. The id-table pages (one per 15 notes at this page
// size) and the overflow chain are left spread above a file full of holes.
void ChurnToHoles(NoteStore* store) {
  Micros t = 1;
  std::vector<NoteId> early;
  for (int i = 0; i < 240; ++i) {
    Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++, 90);
    ASSERT_OK(store->Put(&note));
    early.push_back(note.id());
  }
  Note big = SizedDoc(1000, t++, 3000);  // a chain of several pages
  ASSERT_OK(store->Put(&big));
  for (int i = 0; i < 30; ++i) {
    Note note = SizedDoc(static_cast<uint64_t>(2000 + i), t++, 90);
    ASSERT_OK(store->Put(&note));
  }
  // Of every four early notes: erase one, stub one to be purged, stub one
  // that stays, keep one.
  for (size_t i = 0; i < early.size(); i += 4) {
    ASSERT_OK(store->Erase(early[i]));
    ASSERT_OK_AND_ASSIGN(Note old_stub, store->Get(early[i + 1]));
    old_stub.MakeStub(t++);
    ASSERT_OK(store->Put(&old_stub));
  }
  const Micros recent = t + store->info().purge_interval + 1'000'000;
  t = recent;
  for (size_t i = 2; i < early.size(); i += 4) {
    ASSERT_OK_AND_ASSIGN(Note stub, store->Get(early[i]));
    stub.MakeStub(t++);
    ASSERT_OK(store->Put(&stub));
  }
  ASSERT_OK_AND_ASSIGN(size_t purged,
                       store->PurgeStubs(recent + store->info().purge_interval));
  EXPECT_EQ(purged, early.size() / 4);
}

// Every note (stubs included), encoded, by id.
std::map<NoteId, std::string> EncodedNotes(const NoteStore& store) {
  std::map<NoteId, std::string> notes;
  store.ForEach(
      [&](const Note& note) { notes[note.id()] = note.EncodeToString(); });
  return notes;
}

void CompactUntilDry(NoteStore* store) {
  for (;;) {
    ASSERT_OK_AND_ASSIGN(size_t moved, store->CompactStep(4));
    if (moved == 0) break;
  }
}

TEST(CompactTest, CompactLeavesNoFreePages) {
  ScratchDir dir;
  stats::StatRegistry registry;
  StoreOptions options = TinyPagedOptions();
  options.stats = &registry;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  ASSERT_NO_FATAL_FAILURE(ChurnToHoles(store.get()));
  ASSERT_OK(store->Checkpoint());
  const std::map<NoteId, std::string> before = EncodedNotes(*store);
  const uint64_t size_before = store->pages_size_bytes();
  ASSERT_GT(store->free_pages(), 0u);

  ASSERT_NO_FATAL_FAILURE(CompactUntilDry(store.get()));
  const CompactStats stats = store->compact_stats();
  EXPECT_GT(stats.pages_relocated, 0u);
  EXPECT_EQ(store->dead_bytes(), 0u);
  // Relocated pages have their own counter; the reclaim counters keep
  // counting only the dead-page pass.
  EXPECT_EQ(registry.FindCounter("Store.Compact.PagesRelocated")->value(),
            stats.pages_relocated);
  EXPECT_EQ(registry.FindCounter("Store.Compact.PagesReclaimed")->value(),
            stats.pages_reclaimed);
  EXPECT_EQ(registry.FindCounter("Store.Compact.BytesReclaimed")->value(),
            stats.bytes_reclaimed);
  ASSERT_OK(store->Checkpoint());
  // Acceptance: no free page is left inside the file, and the file is
  // exactly its in-use pages.
  EXPECT_EQ(store->free_pages(), 0u);
  EXPECT_EQ(store->pages_size_bytes(),
            uint64_t{store->used_pages()} * options.page_size);
  EXPECT_LT(store->pages_size_bytes(), size_before);
  EXPECT_EQ(EncodedNotes(*store), before);
  for (const auto& [id, encoded] : before) {
    ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
    EXPECT_EQ(note.EncodeToString(), encoded) << "note " << id;
  }
  // A second COMPACT finds nothing to do.
  ASSERT_OK_AND_ASSIGN(size_t again, store->CompactStep(4));
  EXPECT_EQ(again, 0u);

  store.reset();
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_EQ(reopened->free_pages(), 0u);
  EXPECT_EQ(reopened->total_count(), before.size());
  for (const auto& [id, encoded] : before) {
    ASSERT_OK_AND_ASSIGN(Note note, reopened->Get(id));
    EXPECT_EQ(note.EncodeToString(), encoded) << "note " << id;
  }
  // The relocated layout keeps working: new notes, inline and overflow,
  // go into the fill page and past the end of the file.
  for (size_t body : {size_t{40}, size_t{2000}}) {
    Note fresh = SizedDoc(5000 + body, 1, body);
    ASSERT_OK(reopened->Put(&fresh));
    ASSERT_OK_AND_ASSIGN(Note read_fresh, reopened->Get(fresh.id()));
    EXPECT_EQ(read_fresh.EncodeToString(), fresh.EncodeToString());
  }
}

TEST(CompactTest, RelocatedFillPageKeepsItsRole) {
  ScratchDir dir;
  StoreOptions options = TinyPagedOptions();
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  Micros t = 1;
  // One note per page, then a fill page at the end of the file holding
  // two small notes, one of them overwritten so the fill page carries
  // dead bytes.
  std::vector<NoteId> page_sized;
  for (int i = 0; i < 40; ++i) {
    // 487 bytes encoded: no small note fits beside it in a 512-byte page.
    Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++, 400);
    ASSERT_OK(store->Put(&note));
    page_sized.push_back(note.id());
  }
  std::vector<Note> small;
  for (int i = 0; i < 2; ++i) {
    small.push_back(SizedDoc(static_cast<uint64_t>(100 + i), t++, 10));
    ASSERT_OK(store->Put(&small.back()));
  }
  small[0].SetText("Body", "rewritten");
  ASSERT_OK(store->Put(&small[0]));
  // Erasing whole-page notes frees their pages outright, so the fill page
  // is the only page with dead bytes and the dead-page pass skips it.
  for (NoteId id : page_sized) ASSERT_OK(store->Erase(id));
  const uint64_t dead = store->dead_bytes();
  ASSERT_GT(dead, 0u);
  ASSERT_NO_FATAL_FAILURE(CompactUntilDry(store.get()));
  EXPECT_GT(store->compact_stats().pages_relocated, 0u);
  EXPECT_EQ(store->compact_stats().pages_reclaimed, 0u);
  EXPECT_EQ(store->dead_bytes(), dead);
  ASSERT_OK(store->Checkpoint());
  EXPECT_EQ(store->free_pages(), 0u);
  // The moved page is still the fill page: a new small note joins it
  // rather than opening a page.
  const uint32_t used = store->used_pages();
  small.push_back(SizedDoc(200, t++, 10));
  ASSERT_OK(store->Put(&small.back()));
  EXPECT_EQ(store->used_pages(), used);
  ASSERT_OK(store->Checkpoint());

  ASSERT_OK_AND_ASSIGN(auto reopened,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  // The dead bytes moved with their page, so COMPACT still finds and
  // reclaims them (once the fill page moves on).
  EXPECT_EQ(reopened->dead_bytes(), dead);
  Note spill = SizedDoc(300, t++, 100);  // too big for the fill page
  ASSERT_OK(reopened->Put(&spill));
  small.push_back(spill);
  ASSERT_NO_FATAL_FAILURE(CompactUntilDry(reopened.get()));
  EXPECT_EQ(reopened->dead_bytes(), 0u);
  for (const Note& note : small) {
    ASSERT_OK_AND_ASSIGN(Note read, reopened->Get(note.id()));
    EXPECT_EQ(read.EncodeToString(), note.EncodeToString());
  }
}

TEST(CompactTest, CrashAfterRelocationLosesNothing) {
  ScratchDir dir;
  StoreOptions options = TinyPagedOptions();
  std::map<NoteId, std::string> before;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
    ASSERT_NO_FATAL_FAILURE(ChurnToHoles(store.get()));
    ASSERT_OK(store->Checkpoint());
    before = EncodedNotes(*store);
    ASSERT_NO_FATAL_FAILURE(CompactUntilDry(store.get()));
    EXPECT_GT(store->compact_stats().pages_relocated, 0u);
    // "Crash": drop the store without checkpointing. Relocation only
    // moved buffered pages; the page file still holds the checkpointed
    // layout, which the meta file describes.
  }
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_EQ(EncodedNotes(*store), before);
  // The recovered store compacts all the way down as well.
  ASSERT_NO_FATAL_FAILURE(CompactUntilDry(store.get()));
  ASSERT_OK(store->Checkpoint());
  EXPECT_EQ(store->free_pages(), 0u);
  EXPECT_EQ(EncodedNotes(*store), before);
}

// --------------------------------------------------------- Id-table holes --

// At 512-byte pages an id-table page holds 15 entries: ids 1-15 sit on the
// first page, 16-30 on the second, and so on.
constexpr NoteId kIdsPerTablePage = 15;

// Puts `count` notes of one bucket page each (SizedDoc's 400-byte body),
// recording each encoding in `model`; unid lo == note id.
void PutPageSizedNotes(NoteStore* store, int count,
                       std::map<NoteId, std::string>* model) {
  for (int i = 0; i < count; ++i) {
    Note note = SizedDoc(static_cast<uint64_t>(i + 1), i + 1, 400);
    ASSERT_OK(store->Put(&note));
    ASSERT_EQ(note.id(), static_cast<NoteId>(i + 1));
    (*model)[note.id()] = note.EncodeToString();
  }
}

// Every id the store was ever given (1..max_id) reads as the model says:
// present ids through Get, GetByUnid and ForEach, absent ones NotFound on
// both lookups; the live and stub counts agree too.
void ExpectStoreMatchesModel(const NoteStore& store, NoteId max_id,
                             const std::map<NoteId, std::string>& model) {
  size_t stubs = 0;
  for (NoteId id = 1; id <= max_id; ++id) {
    auto it = model.find(id);
    auto by_id = store.Get(id);
    auto by_unid = store.GetByUnid(Unid{0x22, id});
    if (it == model.end()) {
      EXPECT_TRUE(by_id.status().IsNotFound()) << "note " << id;
      EXPECT_TRUE(by_unid.status().IsNotFound()) << "note " << id;
      continue;
    }
    ASSERT_OK(by_id);
    ASSERT_OK(by_unid);
    EXPECT_EQ(by_id->EncodeToString(), it->second) << "note " << id;
    EXPECT_EQ(by_unid->id(), id);
    if (by_id->deleted()) ++stubs;
  }
  EXPECT_EQ(EncodedNotes(store), model);
  EXPECT_EQ(store.stub_count(), stubs);
  EXPECT_EQ(store.note_count(), model.size() - stubs);
}

TEST(IdTableHoleTest, ErasingEveryIdOfAPageFreesIt) {
  ScratchDir dir;
  StoreOptions options = TinyPagedOptions();
  std::map<NoteId, std::string> model;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  // Ids 1-100 fill 7 id-table pages; the last one (ids 91-105) is the
  // tail page, which next_id_ (101) still points into.
  ASSERT_NO_FATAL_FAILURE(PutPageSizedNotes(store.get(), 100, &model));
  ASSERT_OK(store->Checkpoint());
  const uint64_t size_before = store->pages_size_bytes();

  // Erasing the 30 ids of the second and third id-table pages frees their
  // 30 bucket pages and both id-table pages.
  uint32_t used = store->used_pages();
  for (NoteId id = kIdsPerTablePage + 1; id <= 3 * kIdsPerTablePage; ++id) {
    ASSERT_OK(store->Erase(id));
    model.erase(id);
  }
  EXPECT_EQ(used - store->used_pages(), 30u + 2u);
  // Erasing all but one id of the first page keeps that page.
  used = store->used_pages();
  for (NoteId id = 2; id <= kIdsPerTablePage; ++id) {
    ASSERT_OK(store->Erase(id));
    model.erase(id);
  }
  EXPECT_EQ(used - store->used_pages(), 14u);
  // The tail page stays even once every id on it that was handed out is
  // gone: the ids after them will land on it.
  used = store->used_pages();
  for (NoteId id = 91; id <= 100; ++id) {
    ASSERT_OK(store->Erase(id));
    model.erase(id);
  }
  EXPECT_EQ(used - store->used_pages(), 10u);

  // Stubs on the fourth page: all of them purged frees the page too; the
  // fifth page's stubs are recent and stay.
  Micros t = 1000;
  for (NoteId id = 3 * kIdsPerTablePage + 1; id <= 5 * kIdsPerTablePage;
       ++id) {
    ASSERT_OK_AND_ASSIGN(Note stub, store->Get(id));
    stub.MakeStub(id <= 4 * kIdsPerTablePage
                      ? t++
                      : t + store->info().purge_interval);
    ASSERT_OK(store->Put(&stub));
    model[id] = stub.EncodeToString();
  }
  ASSERT_OK_AND_ASSIGN(size_t purged,
                       store->PurgeStubs(t + store->info().purge_interval));
  EXPECT_EQ(purged, static_cast<size_t>(kIdsPerTablePage));
  for (NoteId id = 3 * kIdsPerTablePage + 1; id <= 4 * kIdsPerTablePage;
       ++id) {
    model.erase(id);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectStoreMatchesModel(*store, 100, model));
  EXPECT_EQ(store->stub_count(), static_cast<size_t>(kIdsPerTablePage));

  // COMPACT moves the tail of the file into the freed pages, and the
  // checkpoint cuts the file down to its in-use pages.
  ASSERT_NO_FATAL_FAILURE(CompactUntilDry(store.get()));
  ASSERT_OK(store->Checkpoint());
  EXPECT_LT(store->pages_size_bytes(), size_before);
  EXPECT_EQ(store->free_pages(), 0u);
  EXPECT_EQ(store->pages_size_bytes(),
            uint64_t{store->used_pages()} * options.page_size);
  ASSERT_NO_FATAL_FAILURE(ExpectStoreMatchesModel(*store, 100, model));

  // Reopening rebuilds the index from an id table with holes.
  store.reset();
  ASSERT_OK_AND_ASSIGN(store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  ASSERT_NO_FATAL_FAILURE(ExpectStoreMatchesModel(*store, 100, model));
  // Ids are not reused: the next note continues after the highest id ever
  // handed out, on the kept tail page.
  Note next = SizedDoc(101, t++, 10);
  ASSERT_OK(store->Put(&next));
  EXPECT_EQ(next.id(), 101u);
  model[next.id()] = next.EncodeToString();
  // A note put at an id inside a hole gets a fresh id-table page.
  Note in_hole = SizedDoc(20, t++, 10);
  in_hole.set_id(20);
  ASSERT_OK(store->Put(&in_hole));
  model[20] = in_hole.EncodeToString();
  ASSERT_NO_FATAL_FAILURE(ExpectStoreMatchesModel(*store, 101, model));
}

TEST(IdTableHoleTest, LogReplayFreesTheSamePages) {
  ScratchDir dir;
  StoreOptions options = TinyPagedOptions();
  std::map<NoteId, std::string> model;
  uint32_t used_live = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
    ASSERT_NO_FATAL_FAILURE(PutPageSizedNotes(store.get(), 60, &model));
    ASSERT_OK(store->Checkpoint());
    const uint32_t used_before = store->used_pages();
    for (NoteId id = 1; id <= 2 * kIdsPerTablePage; ++id) {
      ASSERT_OK(store->Erase(id));
      model.erase(id);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectStoreMatchesModel(*store, 60, model));
    used_live = store->used_pages();
    EXPECT_EQ(used_before - used_live, 2 * kIdsPerTablePage + 2);
    // "Crash": drop the store without a checkpoint; the erases live only
    // in the log.
  }
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_GT(store->stats().recovered_records, 0u);
  ASSERT_NO_FATAL_FAILURE(ExpectStoreMatchesModel(*store, 60, model));
  // Replay went through the same erase path, so it freed the same pages.
  EXPECT_EQ(store->used_pages(), used_live);
  ASSERT_OK(store->Checkpoint());
  store.reset();
  ASSERT_OK_AND_ASSIGN(store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  EXPECT_EQ(store->stats().recovered_records, 0u);
  ASSERT_NO_FATAL_FAILURE(ExpectStoreMatchesModel(*store, 60, model));
}

// ------------------------------------------------------------ Space reuse --

// dead_bytes() agrees with a recount from the pages themselves.
void ExpectDeadBytesRecount(const NoteStore& store) {
  ASSERT_OK_AND_ASSIGN(uint64_t recount, store.RecountDeadBytes());
  EXPECT_EQ(store.dead_bytes(), recount);
}

std::map<NoteId, std::string> Encode(const std::map<NoteId, Note>& notes) {
  std::map<NoteId, std::string> encoded;
  for (const auto& [id, note] : notes) encoded[id] = note.EncodeToString();
  return encoded;
}

// Rewrites `note` with a body of `len` bytes of `fill`.
void RewriteBody(NoteStore* store, Note* note, size_t len, char fill) {
  note->SetText("Body", std::string(len, fill));
  ASSERT_OK(store->Put(note));
}

TEST(SpaceReuseTest, SameSizeRewritesKeepThePageCount) {
  ScratchDir dir;
  ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(dir.Sub("db"),
                                                   TinyPagedOptions(),
                                                   PagedInfo()));
  std::vector<Note> notes;
  for (int i = 0; i < 40; ++i) {
    notes.push_back(SizedDoc(static_cast<uint64_t>(i + 1), i + 1, 60 + i));
    ASSERT_OK(store->Put(&notes.back()));
  }
  // A same-size update always fits back into its own page, so the page
  // count never moves. Each pass rewrites every note once, in a shuffled
  // order, so an appended rewrite would leave its old slot dead on a page
  // that other notes keep alive.
  const uint32_t loaded = store->used_pages();
  Rng rng(20);
  std::vector<size_t> order(notes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int pass = 0; pass < 20; ++pass) {
    for (size_t i = 0; i + 1 < order.size(); ++i) {
      std::swap(order[i], order[i + rng.Uniform(order.size() - i)]);
    }
    for (size_t i : order) {
      ASSERT_NO_FATAL_FAILURE(RewriteBody(
          store.get(), &notes[i], notes[i].GetText("Body").size(),
          static_cast<char>('c' + pass % 20)));
    }
    EXPECT_EQ(store->used_pages(), loaded) << "pass " << pass;
    ASSERT_NO_FATAL_FAILURE(ExpectDeadBytesRecount(*store));
  }
  for (const Note& note : notes) {
    ASSERT_OK_AND_ASSIGN(Note read, store->Get(note.id()));
    EXPECT_EQ(read.EncodeToString(), note.EncodeToString());
  }
}

TEST(SpaceReuseTest, RandomStepsMatchAModel) {
  ScratchDir dir;
  const std::string db_dir = dir.Sub("db");
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(db_dir, TinyPagedOptions(),
                                       PagedInfo()));
  std::map<NoteId, Note> model;
  auto pick = [&](Rng* rng) {
    auto it = model.begin();
    std::advance(it, rng->Uniform(model.size()));
    return it;
  };
  Rng rng(1717);
  Micros t = 1;
  for (int step = 0; step < 1500; ++step) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 30 || model.empty()) {
      // Create; one in ten spills into an overflow chain.
      Note note = SizedDoc(rng.Next(), t++,
                           rng.Uniform(10) == 0 ? 600 + rng.Uniform(900)
                                                : rng.Uniform(260));
      ASSERT_OK(store->Put(&note));
      model[note.id()] = note;
    } else if (dice < 70) {
      // Grow or shrink, sometimes across the overflow threshold.
      auto it = pick(&rng);
      if (it->second.deleted()) continue;
      const size_t len = rng.Uniform(8) == 0 ? rng.Uniform(1000)
                                             : rng.Uniform(300);
      it->second.BumpSequence(t++);
      ASSERT_NO_FATAL_FAILURE(
          RewriteBody(store.get(), &it->second, len, 'g'));
    } else if (dice < 80) {
      auto it = pick(&rng);
      it->second.MakeStub(t++);
      ASSERT_OK(store->Put(&it->second));
    } else if (dice < 88) {
      auto it = pick(&rng);
      ASSERT_OK(store->Erase(it->first));
      model.erase(it);
    } else if (dice < 91) {
      const Micros now = t + store->info().purge_interval -
                         static_cast<Micros>(rng.Uniform(200));
      ASSERT_OK(store->PurgeStubs(now).status());
      const Micros cutoff = now - store->info().purge_interval;
      for (auto it = model.begin(); it != model.end();) {
        if (it->second.deleted() && it->second.sequence_time() < cutoff) {
          it = model.erase(it);
        } else {
          ++it;
        }
      }
    } else if (dice < 96) {
      ASSERT_OK(store->CompactStep(1 + rng.Uniform(4)).status());
    } else if (dice < 98) {
      ASSERT_OK(store->Checkpoint());
    } else {
      // Reopen, with or without a checkpoint first.
      if (rng.Uniform(2) == 0) ASSERT_OK(store->Checkpoint());
      store.reset();
      ASSERT_OK_AND_ASSIGN(store, NoteStore::Open(db_dir, TinyPagedOptions(),
                                                  PagedInfo()));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectDeadBytesRecount(*store)) << "step " << step;
    ASSERT_EQ(store->total_count(), model.size()) << "step " << step;
    if (step % 10 == 0 || dice >= 91) {
      ASSERT_EQ(EncodedNotes(*store), Encode(model)) << "step " << step;
    }
  }
  // COMPACT run to dry reclaims every free byte but the fill page's holes
  // (placing through the free-space map would spend some of them on the
  // moved notes), then packs the file.
  const uint64_t dead = store->dead_bytes();
  const uint64_t reclaimed = store->compact_stats().bytes_reclaimed;
  ASSERT_NO_FATAL_FAILURE(CompactUntilDry(store.get()));
  EXPECT_LT(store->dead_bytes(), uint64_t{store->page_size()});
  EXPECT_GE(store->compact_stats().bytes_reclaimed - reclaimed +
                store->dead_bytes(),
            dead);
  ASSERT_NO_FATAL_FAILURE(ExpectDeadBytesRecount(*store));
  ASSERT_OK(store->Checkpoint());
  EXPECT_EQ(store->free_pages(), 0u);
  for (const auto& [id, note] : model) {
    ASSERT_OK_AND_ASSIGN(Note read, store->Get(id));
    EXPECT_EQ(read.EncodeToString(), note.EncodeToString()) << "note " << id;
  }
}

// Four notes of ~180 encoded bytes on 512-byte pages: two per page, so
// the first two share a fresh bucket page and the last two the next one
// (the fill page). Erasing the first note maps the first page; a fifth
// note reuses its dead directory slot, and growing the second note slides
// the page. Returns the notes by id.
std::map<NoteId, Note> DefragmentFirstPage(NoteStore* store, Micros* t) {
  std::map<NoteId, Note> notes;
  std::vector<NoteId> ids;
  for (int i = 0; i < 4; ++i) {
    Note note = SizedDoc(static_cast<uint64_t>(i + 1), (*t)++, 90);
    EXPECT_OK(store->Put(&note));
    notes[note.id()] = note;
    ids.push_back(note.id());
  }
  EXPECT_OK(store->Erase(ids[0]));
  notes.erase(ids[0]);
  Note fifth = SizedDoc(5, (*t)++, 90);
  EXPECT_OK(store->Put(&fifth));
  notes[fifth.id()] = fifth;
  Note& second = notes[ids[1]];
  second.SetText("Body", std::string(200, 'G'));
  second.BumpSequence((*t)++);
  EXPECT_OK(store->Put(&second));
  return notes;
}

TEST(SpaceReuseTest, PlacementCountersMove) {
  ScratchDir dir;
  stats::StatRegistry registry;
  StoreOptions options = TinyPagedOptions();
  options.stats = &registry;
  ASSERT_OK_AND_ASSIGN(auto store,
                       NoteStore::Open(dir.Sub("db"), options, PagedInfo()));
  auto count = [&](const char* name) {
    return registry.GetCounter(name).value();
  };
  Micros t = 1;
  const std::map<NoteId, Note> notes = DefragmentFirstPage(store.get(), &t);
  // Four creates appended (two pages), note 5 reused the first page, and
  // the grown note 2 stayed on it.
  EXPECT_EQ(count("Store.Place.Appended"), 4u);
  EXPECT_EQ(count("Store.Place.Reused"), 1u);
  EXPECT_EQ(count("Store.Place.InPlace"), 1u);
  EXPECT_EQ(store->used_pages(), 3u);  // two bucket pages + the id table
  EXPECT_EQ(EncodedNotes(*store), Encode(notes));
  ASSERT_NO_FATAL_FAILURE(ExpectDeadBytesRecount(*store));
  // A note too big for any page's free space opens a fresh fill page.
  Note big = SizedDoc(6, t++, 380);
  ASSERT_OK(store->Put(&big));
  EXPECT_EQ(count("Store.Place.Appended"), 5u);
  EXPECT_EQ(store->used_pages(), 4u);
}

TEST(SpaceReuseTest, DefragmentingKeepsNeighboursIntact) {
  ScratchDir dir;
  const std::string db_dir = dir.Sub("db");
  std::map<NoteId, std::string> expected;
  {
    ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(db_dir,
                                                     TinyPagedOptions(),
                                                     PagedInfo()));
    Micros t = 1;
    // Three ~100-byte notes per page; grow and shrink the middle note of
    // every page so each rewrite slides its neighbours.
    std::vector<Note> notes;
    for (int i = 0; i < 30; ++i) {
      notes.push_back(SizedDoc(static_cast<uint64_t>(i + 1), t++, 40));
      ASSERT_OK(store->Put(&notes.back()));
    }
    ASSERT_OK(store->Checkpoint());
    const uint32_t used = store->used_pages();
    for (int round = 0; round < 6; ++round) {
      for (size_t i = 1; i < notes.size(); i += 3) {
        notes[i].BumpSequence(t++);
        ASSERT_NO_FATAL_FAILURE(RewriteBody(store.get(), &notes[i],
                                            round % 2 == 0 ? 120 : 10,
                                            static_cast<char>('k' + round)));
        for (const Note& note : notes) {
          ASSERT_OK_AND_ASSIGN(Note read, store->Get(note.id()));
          ASSERT_EQ(read.EncodeToString(), note.EncodeToString())
              << "round " << round << " note " << note.id();
        }
      }
      EXPECT_EQ(store->used_pages(), used) << "round " << round;
    }
    for (const Note& note : notes) expected[note.id()] = note.EncodeToString();
    ASSERT_NO_FATAL_FAILURE(ExpectDeadBytesRecount(*store));
    // "Crash": no checkpoint since the rewrites; replay rebuilds them.
  }
  ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(db_dir, TinyPagedOptions(),
                                                   PagedInfo()));
  EXPECT_GT(store->stats().recovered_records, 0u);
  EXPECT_EQ(EncodedNotes(*store), expected);
  ASSERT_NO_FATAL_FAILURE(ExpectDeadBytesRecount(*store));
}

TEST(SpaceReuseTest, CrashWithoutCheckpointReplaysTheSameNotes) {
  ScratchDir dir;
  const std::string db_dir = dir.Sub("db");
  std::map<NoteId, std::string> before;
  uint32_t used = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(db_dir,
                                                     TinyPagedOptions(),
                                                     PagedInfo()));
    Micros t = 1;
    before = Encode(DefragmentFirstPage(store.get(), &t));
    ASSERT_EQ(EncodedNotes(*store), before);
    used = store->used_pages();
  }
  ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(db_dir, TinyPagedOptions(),
                                                   PagedInfo()));
  EXPECT_GT(store->stats().recovered_records, 0u);
  EXPECT_EQ(EncodedNotes(*store), before);
  // Replay ran the same placements, so the layout matches too.
  EXPECT_EQ(store->used_pages(), used);
  ASSERT_NO_FATAL_FAILURE(ExpectDeadBytesRecount(*store));
}

TEST(SpaceReuseTest, ReadersSeeIntactNotesDuringRewrites) {
  ScratchDir dir;
  DatabaseOptions options;
  options.store.sync_mode = wal::SyncMode::kNone;
  options.store.checkpoint_threshold_bytes = 0;
  options.store.page_size = 512;
  options.store.cache_pages = 16;
  options.title = "reuse-online";
  SimClock clock(1'000'000);
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(dir.Sub("db"), options,
                                               &clock));
  // Stable notes share pages with churned ones, so every churn rewrite
  // slides a stable note's bytes while readers read it.
  std::vector<NoteId> stable;
  std::vector<NoteId> churned;
  for (int i = 0; i < 60; ++i) {
    Note note = MakeDoc("Memo", "doc" + std::to_string(i));
    note.SetText("Body", std::string(60, 's'));
    ASSERT_OK_AND_ASSIGN(NoteId id, db->CreateNote(std::move(note)));
    (i % 2 == 0 ? stable : churned).push_back(id);
    clock.Advance(1'000'000);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 11);
      while (!stop.load(std::memory_order_relaxed)) {
        auto note = db->ReadNote(stable[rng.Uniform(stable.size())]);
        if (!note.ok() || note->GetText("Body") != std::string(60, 's')) {
          failed = true;
          return;
        }
      }
    });
  }
  Rng rng(5);
  for (int i = 0; i < 600; ++i) {
    const NoteId id = churned[rng.Uniform(churned.size())];
    ASSERT_OK_AND_ASSIGN(Note note, db->ReadNote(id));
    note.SetText("Body", std::string(rng.Uniform(140), 'c'));
    ASSERT_OK(db->UpdateNote(std::move(note)));
    clock.Advance(1'000);
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed);
  ASSERT_NO_FATAL_FAILURE(ExpectDeadBytesRecount(*db->store()));
}

// ------------------------------------------------------ Crash-recovery matrix --

// Full sweep (every fault point × every tearable page, every WAL cut
// offset) when DOMINO_CRASH_MATRIX=1; a sampled stride otherwise so the
// default suite stays fast.
bool FullCrashMatrix() {
  const char* env = std::getenv("DOMINO_CRASH_MATRIX");
  return env != nullptr && env[0] == '1';
}

class CheckpointFaultMatrix
    : public ::testing::TestWithParam<const char*> {
 protected:
  /// Options whose checkpoint dies at the parameterized fault point once
  /// `armed_` is set.
  StoreOptions FaultingOptions() {
    StoreOptions options = TinyPagedOptions();
    options.checkpoint_fault = [this](std::string_view point) {
      if (armed_ && point == GetParam()) {
        return Status::IOError("injected crash at " + std::string(point));
      }
      return Status::Ok();
    };
    return options;
  }

  /// Arms the fault and attempts the checkpoint that it kills.
  void CrashCheckpoint(NoteStore* store) {
    armed_ = true;
    Status s = store->Checkpoint();
    EXPECT_FALSE(s.ok()) << "fault " << GetParam() << " did not fire";
  }

  /// Starting each time from the post-crash disk state, tears one page the
  /// crashed checkpoint rewrote (every page of the file that differs from
  /// `pages_before`, the page file before that checkpoint began), and
  /// proves recovery rebuilds `model` (encoded notes by id) exactly from
  /// the WAL's page-image snapshot record. Recovery with no page torn is
  /// checked first.
  void ExpectRecoveryFromEveryTornPage(
      const std::string& db_dir, const std::string& pages_before,
      const std::map<NoteId, std::string>& model) {
    const std::string fault_point = GetParam();
    auto snapshot_file = [&](const std::string& path) {
      auto contents = ReadFileToString(path);
      return contents.ok() ? *contents : std::string();
    };
    auto restore_file = [&](const std::string& path,
                            const std::string& contents) {
      if (contents.empty()) {
        RemoveFileIfExists(path).ok();
      } else {
        ASSERT_OK(WriteFileAtomic(path, contents));
      }
    };
    const std::string pages_path = db_dir + "/notes.pages";
    const std::string wal_path = testing_util::StoreLogSegment(db_dir);
    const std::string meta_path = db_dir + "/notes.meta";
    const std::string crashed_pages = snapshot_file(pages_path);
    const std::string crashed_wal = snapshot_file(wal_path);
    const std::string crashed_meta = snapshot_file(meta_path);

    const uint32_t page_size = TinyPagedOptions().page_size;
    std::vector<int64_t> tears = {-1};  // -1: no page torn
    for (uint32_t pg = 0; pg < crashed_pages.size() / page_size; ++pg) {
      const size_t off = size_t{pg} * page_size;
      if (off + page_size > pages_before.size() ||
          crashed_pages.compare(off, page_size, pages_before, off,
                                page_size) != 0) {
        tears.push_back(pg);
      }
    }
    const size_t stride =
        FullCrashMatrix() ? 1 : std::max<size_t>(1, (tears.size() - 1) / 6);
    for (size_t i = 0; i < tears.size(); i += (i == 0 ? 1 : stride)) {
      const int64_t pg = tears[i];
      restore_file(pages_path, crashed_pages);
      restore_file(wal_path, crashed_wal);
      restore_file(meta_path, crashed_meta);
      if (pg >= 0) {
        // Tear exactly page `pg`: its second half reads back as zeros,
        // the footprint of a power cut mid-way through that page's pwrite.
        ASSERT_OK_AND_ASSIGN(auto file,
                             RandomAccessFile::Open(pages_path));
        ASSERT_OK(file->Write(
            static_cast<uint64_t>(pg) * page_size + page_size / 2,
            std::string(page_size / 2, '\0')));
        ASSERT_OK(file->Sync());
      }
      ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(db_dir,
                                                       TinyPagedOptions(),
                                                       PagedInfo()));
      ASSERT_EQ(store->total_count(), model.size())
          << "fault " << fault_point << " torn page " << pg;
      for (const auto& [id, encoded] : model) {
        ASSERT_OK_AND_ASSIGN(Note note, store->Get(id));
        ASSERT_EQ(note.EncodeToString(), encoded)
            << "fault " << fault_point << " torn page " << pg;
      }
    }
  }

  bool armed_ = false;
};

// Populates a store, then attempts a checkpoint that dies at the
// parameterized fault point; every page of the file is one it was writing.
TEST_P(CheckpointFaultMatrix, TornPagesRecoverFromLoggedImages) {
  ScratchDir dir;
  std::string db_dir = dir.Sub("db");
  std::map<NoteId, std::string> model;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, FaultingOptions(),
                                         PagedInfo()));
    Micros t = 1;
    for (int i = 0; i < 60; ++i) {
      Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++,
                           i % 7 == 0 ? 800 : 100);
      ASSERT_OK(store->Put(&note));
      model[note.id()] = note.EncodeToString();
    }
    // Erase a few so the state isn't a pure insert log.
    for (NoteId id : {NoteId{3}, NoteId{9}, NoteId{27}}) {
      ASSERT_OK(store->Erase(id));
      model.erase(id);
    }
    CrashCheckpoint(store.get());
    // The store dies here with the checkpoint torn at the fault point.
  }
  ExpectRecoveryFromEveryTornPage(db_dir, "", model);
}

// A checkpoint that dies while writing out a relocating COMPACT: the file
// still holds the previous layout, and the crashed checkpoint was moving
// tail pages into its holes and shrinking it.
TEST_P(CheckpointFaultMatrix, RelocatingCompactRecoversFromLoggedImages) {
  ScratchDir dir;
  std::string db_dir = dir.Sub("db");
  std::map<NoteId, std::string> model;
  std::string pages_before;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, FaultingOptions(),
                                         PagedInfo()));
    ASSERT_NO_FATAL_FAILURE(ChurnToHoles(store.get()));
    ASSERT_OK(store->Checkpoint());
    model = EncodedNotes(*store);
    ASSERT_OK_AND_ASSIGN(pages_before,
                         ReadFileToString(db_dir + "/notes.pages"));
    ASSERT_NO_FATAL_FAILURE(CompactUntilDry(store.get()));
    EXPECT_GT(store->compact_stats().pages_relocated, 0u);
    CrashCheckpoint(store.get());
  }
  ExpectRecoveryFromEveryTornPage(db_dir, pages_before, model);
}

// A checkpoint that dies while writing out erases that freed two id-table
// pages: the file still holds those pages from the checkpoint before.
TEST_P(CheckpointFaultMatrix, FreedIdTablePageRecoversFromLoggedImages) {
  ScratchDir dir;
  std::string db_dir = dir.Sub("db");
  std::map<NoteId, std::string> model;
  std::string pages_before;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, FaultingOptions(),
                                         PagedInfo()));
    ASSERT_NO_FATAL_FAILURE(PutPageSizedNotes(store.get(), 60, &model));
    ASSERT_OK(store->Checkpoint());
    ASSERT_OK_AND_ASSIGN(pages_before,
                         ReadFileToString(db_dir + "/notes.pages"));
    const uint32_t used = store->used_pages();
    for (NoteId id = kIdsPerTablePage + 1; id <= 3 * kIdsPerTablePage;
         ++id) {
      ASSERT_OK(store->Erase(id));
      model.erase(id);
    }
    EXPECT_EQ(used - store->used_pages(), 2 * kIdsPerTablePage + 2);
    // Erases beside the freed pages and a new note leave pages for the
    // crashed checkpoint to write.
    for (NoteId id : {NoteId{3}, NoteId{50}}) {
      ASSERT_OK(store->Erase(id));
      model.erase(id);
    }
    Note fresh = SizedDoc(61, 61, 10);
    ASSERT_OK(store->Put(&fresh));
    model[fresh.id()] = fresh.EncodeToString();
    CrashCheckpoint(store.get());
  }
  ExpectRecoveryFromEveryTornPage(db_dir, pages_before, model);
}

// A checkpoint that dies while writing out a page that was defragmented
// in place and has a reused dead directory slot.
TEST_P(CheckpointFaultMatrix, DefragmentedPageRecoversFromLoggedImages) {
  ScratchDir dir;
  std::string db_dir = dir.Sub("db");
  std::map<NoteId, std::string> model;
  std::string pages_before;
  {
    ASSERT_OK_AND_ASSIGN(auto store,
                         NoteStore::Open(db_dir, FaultingOptions(),
                                         PagedInfo()));
    Micros t = 1;
    for (int i = 0; i < 4; ++i) {
      Note note = SizedDoc(static_cast<uint64_t>(100 + i), t++, 90);
      ASSERT_OK(store->Put(&note));
    }
    ASSERT_OK(store->Checkpoint());
    ASSERT_OK_AND_ASSIGN(pages_before,
                         ReadFileToString(db_dir + "/notes.pages"));
    // Erase the four notes above: their pages are freed, so the pages
    // below are written afresh over the checkpointed ones.
    for (NoteId id = 1; id <= 4; ++id) ASSERT_OK(store->Erase(id));
    model = Encode(DefragmentFirstPage(store.get(), &t));
    ASSERT_EQ(EncodedNotes(*store), model);
    CrashCheckpoint(store.get());
  }
  ExpectRecoveryFromEveryTornPage(db_dir, pages_before, model);
}

INSTANTIATE_TEST_SUITE_P(FaultPoints, CheckpointFaultMatrix,
                         ::testing::Values("pager:after_log",
                                           "pager:mid_pages",
                                           "pager:after_pages",
                                           "pager:after_meta"));

TEST(CrashMatrixTest, WalCutSweepRecoversCommittedPrefix) {
  ScratchDir dir;
  std::string db_dir = dir.Sub("db");
  std::vector<std::string> subjects;
  {
    ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(db_dir,
                                                     TinyPagedOptions(),
                                                     PagedInfo()));
    Micros t = 1;
    for (int i = 0; i < 25; ++i) {
      Note note = SizedDoc(static_cast<uint64_t>(i + 1), t++, 60);
      ASSERT_OK(store->Put(&note));
      subjects.push_back(note.GetText("Subject"));
    }
  }
  const std::string wal_path = testing_util::StoreLogSegment(db_dir);
  ASSERT_OK_AND_ASSIGN(std::string full_wal, ReadFileToString(wal_path));
  const uint64_t stride = FullCrashMatrix()
                              ? 1
                              : std::max<uint64_t>(1, full_wal.size() / 64);
  size_t prev_count = subjects.size() + 1;
  for (uint64_t cut = full_wal.size(); cut > 0;
       cut = cut > stride ? cut - stride : 0) {
    ASSERT_OK(WriteFileAtomic(wal_path, full_wal.substr(0, cut)));
    ASSERT_OK_AND_ASSIGN(auto store, NoteStore::Open(db_dir,
                                                     TinyPagedOptions(),
                                                     PagedInfo()));
    // A shorter log can never recover more, and every recovered note is
    // intact (the committed prefix property).
    size_t count = store->total_count();
    ASSERT_LE(count, prev_count) << "cut " << cut;
    prev_count = count;
    store->ForEach([&](const Note& note) {
      ASSERT_LE(note.id(), subjects.size());
      ASSERT_EQ(note.GetText("Subject"), subjects[note.id() - 1]);
    });
    if (cut == 0) break;
  }
}

}  // namespace
}  // namespace dominodb
