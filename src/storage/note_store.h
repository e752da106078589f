#ifndef DOMINODB_STORAGE_NOTE_STORE_H_
#define DOMINODB_STORAGE_NOTE_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/clock.h"
#include "base/result.h"
#include "base/shared_mutex.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "model/note.h"
#include "model/unid.h"
#include "pager/buffer_pool.h"
#include "pager/pager.h"
#include "stats/stats.h"
#include "wal/shared_log.h"

namespace dominodb {

/// Database-wide metadata persisted with the store. The replica id is the
/// key fact: two databases replicate iff their replica ids match (the NSF
/// "replica ID" of Notes).
struct DatabaseInfo {
  Unid replica_id;
  std::string title;
  /// Deletion stubs older than this are eligible for purge. Notes default
  /// is 90 days; experiments shrink it to provoke the resurrection anomaly.
  Micros purge_interval = 90ll * 24 * 3600 * 1'000'000;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(std::string_view* input, DatabaseInfo* out);
};

struct StoreOptions {
  /// Durability policy of the store's own log (see `shared_log`). Ignored
  /// when `shared_log` is set — the SharedLog's own sync mode governs
  /// then. The default acknowledges a commit only once it is synced.
  wal::SyncMode sync_mode = wal::SyncMode::kGroupCommit;
  /// MaybeCheckpoint() snapshots once the WAL obligation exceeds this
  /// size (0 disables). Checkpointing is never triggered from inside the
  /// commit path; the owning Database (or an idle hook) calls
  /// MaybeCheckpoint explicitly.
  uint64_t checkpoint_threshold_bytes = 16ull << 20;
  /// The transaction log this store commits to, recovers from and
  /// checkpoints against: the server-wide shared log, with commits tagged
  /// `shared_stream` (obtained from SharedLog::RegisterStream). The
  /// SharedLog must outlive the store. When null, the store opens its own
  /// one-stream SharedLog under `<dir>/txnlog`.
  wal::SharedLog* shared_log = nullptr;
  uint32_t shared_stream = 0;
  /// Registry receiving the `Database.*` stats of this store (and the
  /// `Server.WAL.*` stats of its own log); null → the process-wide
  /// StatRegistry::Global().
  stats::StatRegistry* stats = nullptr;

  // -- Paged storage ------------------------------------------------------
  /// Size of one page in `notes.pages` (power of two ≥ 64). Fixed at
  /// creation; an existing store's meta file is authoritative.
  uint32_t page_size = 4096;
  /// Buffer-pool capacity in pages. The working set this many pages can
  /// hold is the only part of the database that must fit in RAM.
  size_t cache_pages = 4096;
  /// MaybeCompact() runs an incremental COMPACT slice once the free
  /// bytes on mapped pages (see NoteStore::dead_bytes) exceed this volume
  /// (0 disables background compaction).
  uint64_t compact_threshold_bytes = 8ull << 20;
  /// Test-only crash injection: when set, invoked at named points inside
  /// Checkpoint() ("pager:after_log", "pager:mid_pages",
  /// "pager:after_pages", "pager:after_meta"); a non-OK return aborts the
  /// checkpoint there, leaving the partially-written on-disk state for
  /// recovery tests to chew on.
  std::function<Status(std::string_view)> checkpoint_fault;
};

struct StoreStats {
  uint64_t wal_records_written = 0;
  uint64_t wal_bytes_written = 0;
  uint64_t checkpoints = 0;
  uint64_t recovered_records = 0;
  bool recovered_torn_tail = false;
};

/// Space reclaimed by COMPACT (cumulative since open).
struct CompactStats {
  uint64_t runs = 0;
  uint64_t pages_reclaimed = 0;
  uint64_t bytes_reclaimed = 0;
  uint64_t notes_moved = 0;
  /// In-use pages moved from the file tail into lower free pages.
  uint64_t pages_relocated = 0;
};

/// The NSF-equivalent: the authoritative per-database note container.
///
/// Layout (PR 6): notes live in fixed-size pages in `notes.pages` —
/// slotted bucket pages for encoded notes (with overflow chains for
/// oversized ones) plus a paged note-ID table mapping note id →
/// {UNID, page, slot, flags, sequence time} — accessed through a
/// Pager + BufferPool, so databases larger than RAM serve from a bounded
/// working set. Note ids are never reused, so an id-table page whose ids
/// have all been erased is freed and leaves a hole in the table. Durable
/// geometry (page count, free list, id-table pages) lives in
/// `notes.meta`, written atomically at checkpoint.
///
/// Durability: logical ops commit as kData records to a wal::SharedLog
/// stream — the server's log, or the store's own one-stream log under
/// `txnlog/`; page mutations stay in the buffer pool until Checkpoint(),
/// which first logs one atomic kPagerSnapshot record containing every
/// dirty page image, then writes the pages in place — so a torn in-place
/// write is always repaired from the logged images. Crash recovery =
/// adopt meta + replay the stream's suffix after its last checkpoint
/// marker (images first if a snapshot record is present, then the
/// logical records).
///
/// Space reuse: one per-page free-space map records, for every bucket
/// page on which a slot has died, the bytes no live slot holds. An update
/// goes back onto its own page under its old slot number (sliding the
/// live slots together when the gap is too small), and a new note that
/// does not fit the fill page goes to the mapped page with the most free
/// bytes before the file grows.
///
/// Compaction: CompactStep() copies the live slots of mapped pages into
/// the fill page or fresh pages (never into another mapped page) and
/// frees the husks, then moves in-use pages off the file tail into the
/// freed holes so the next checkpoint can truncate the file. The owning
/// Database slices it under brief writer locks so readers interleave
/// (the online Domino COMPACT).
///
/// Threading: the store carries its own reader/writer lock. Public reads
/// take it shared; the apply step of every write, Checkpoint and
/// CompactStep take it exclusive — so MVCC readers can resolve notes
/// without any database-level lock while a writer commits. The WAL
/// append + fsync of a commit happens OUTSIDE the exclusive section
/// (writers are serialized by the owning Database, so commits cannot
/// race each other, and readers never touch the log). Checkpoint is the
/// one operation that holds the exclusive lock across disk syncs; it is
/// rare and threshold-driven.
class NoteStore {
 public:
  /// Opens (or creates) a store in directory `dir`. `default_info` seeds
  /// the metadata when creating; an existing store keeps its own.
  static Result<std::unique_ptr<NoteStore>> Open(
      const std::string& dir, const StoreOptions& options,
      const DatabaseInfo& default_info);

  ~NoteStore() = default;
  NoteStore(const NoteStore&) = delete;
  NoteStore& operator=(const NoteStore&) = delete;

  // -- Reads ------------------------------------------------------------
  /// Fetches by local note id (stubs included).
  Result<Note> Get(NoteId id) const;
  /// Fetches by UNID (stubs included).
  Result<Note> GetByUnid(const Unid& unid) const;
  bool Contains(NoteId id) const;
  bool ContainsUnid(const Unid& unid) const;

  /// Owning handle to the stored note (stubs included); null when absent
  /// or unreadable. The handle is a decoded copy, so it stays valid
  /// across evictions, compaction and later writes.
  NoteHandle Find(NoteId id) const;
  NoteHandle FindByUnid(const Unid& unid) const;

  /// Visits every note (including deletion stubs) in note-id order.
  /// The internal lock is held shared per id-table page, NOT across `fn`
  /// callbacks, so callbacks may freely re-enter store reads; notes
  /// committed concurrently with the scan may or may not be visited.
  void ForEach(const std::function<void(const Note&)>& fn) const;

  size_t note_count() const {
    return live_count_.load(std::memory_order_relaxed);
  }
  size_t stub_count() const {
    return stub_count_.load(std::memory_order_relaxed);
  }
  size_t total_count() const { return note_count() + stub_count(); }

  // -- Writes -----------------------------------------------------------
  /// Inserts or replaces `note` (keyed by note id; assigns the next id if
  /// the note has none). The caller is responsible for OID stamping.
  /// Updates the UNID index and stub accounting, and commits to the WAL.
  Status Put(Note* note);

  /// Atomically commits several notes in one WAL record.
  Status PutBatch(std::vector<Note>* notes);

  /// Physically removes a note or stub (stub purging and local queues —
  /// logical deletion goes through Note::MakeStub + Put).
  Status Erase(NoteId id);

  /// Removes deletion stubs whose sequence time is older than
  /// `now - purge_interval`. Returns the number purged.
  Result<size_t> PurgeStubs(Micros now);

  /// Allocates a fresh local note id without writing anything.
  NoteId AllocateId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // -- Metadata / maintenance -------------------------------------------
  DatabaseInfo info() const;
  Status UpdateInfo(const DatabaseInfo& info);

  /// Makes all in-memory page state durable and truncates this store's
  /// WAL obligation. Protocol: (1) append one atomic kPagerSnapshot
  /// record — meta + every dirty page image — to the log and sync it;
  /// (2) write the dirty pages in place and sync the page file; (3)
  /// atomically replace `notes.meta`; (4) commit a checkpoint marker and
  /// advance the stream's low-water mark (which empties a one-stream own
  /// log). A crash anywhere in between recovers: the logged images repair
  /// any torn in-place write.
  Status Checkpoint();

  /// Checkpoints iff the WAL obligation exceeds
  /// `checkpoint_threshold_bytes`. Called by the owner at a convenient
  /// moment (post-maintenance, indexer idle) — never from inside the
  /// commit path, so a single Put cannot stall on a full snapshot.
  Status MaybeCheckpoint();

  // -- COMPACT ----------------------------------------------------------
  /// One bounded compaction slice: rewrites up to `max_pages` of the
  /// mapped bucket pages, moving their live notes into the current fill
  /// page and freeing the husks. Once no such page is left,
  /// the slice instead relocates up to `max_pages` in-use pages from the
  /// file tail into the lowest free pages. Returns the number of pages
  /// reclaimed or relocated (0 = no dead page and no free page left, so
  /// the next checkpoint shrinks the file to its in-use pages). Requires
  /// the writer lock; crash-safe because nothing touches disk until the
  /// next checkpoint.
  Result<size_t> CompactStep(size_t max_pages);

  /// Runs one dead-page slice of CompactStep (never a relocation) when
  /// dead_bytes() exceeds `compact_threshold_bytes` (the background
  /// COMPACT task hook).
  Status MaybeCompact();

  /// Bytes COMPACT can reclaim: the free bytes of every page in the
  /// free-space map (the fill page's gap excluded).
  uint64_t dead_bytes() const;
  /// What dead_bytes() should read, recounted from the mapped pages
  /// themselves (a consistency check).
  Result<uint64_t> RecountDeadBytes() const;

  StoreStats stats() const;
  CompactStats compact_stats() const;
  /// Log payload bytes committed since the last checkpoint (this open).
  uint64_t wal_size_bytes() const;
  /// Size of the page file in bytes.
  uint64_t pages_size_bytes() const;
  /// Pages in use / free inside the page file's allocation watermark.
  uint32_t used_pages() const;
  size_t free_pages() const;
  uint32_t page_size() const { return pager_->page_size(); }

 private:
  NoteStore(std::string dir, StoreOptions options);

  struct IdEntry {
    Unid unid;
    uint32_t page = pager::kInvalidPage;
    uint16_t slot = 0;
    uint8_t flags = 0;
    Micros seq_time = 0;
  };

  std::string MetaPath() const { return dir_ + "/notes.meta"; }
  std::string PagesPath() const { return dir_ + "/notes.pages"; }

  Status Recover(const DatabaseInfo& default_info, std::string_view meta_blob,
                 bool have_meta) REQUIRES(mu_);
  /// Replays this store's log stream after its last checkpoint marker:
  /// adopt the last kPagerSnapshot (if any) first — its images repair
  /// torn pages — then apply the kData records that follow it.
  Status ReplayLog() REQUIRES(mu_);
  Status ApplyBatchPayload(std::string_view payload, bool from_recovery)
      REQUIRES(mu_);
  Status CommitPayload(const std::string& payload);

  // -- Meta / snapshot encoding -----------------------------------------
  std::string EncodeMetaBlob() const REQUIRES(mu_);
  Status DecodeMetaBlob(std::string_view input) REQUIRES(mu_);
  std::string EncodePagerSnapshot() REQUIRES(mu_);
  Status AdoptPagerSnapshot(std::string_view payload) REQUIRES(mu_);
  /// Rebuilds unid_index_, live/stub counts and next_id_ by scanning the
  /// id-table pages (never touches bucket pages, so opening a database
  /// far larger than the buffer pool stays cheap).
  Status RebuildIndexFromIdTable() REQUIRES(mu_);

  // -- Lock-free read cores (caller holds mu_ at least shared) ----------
  Result<Note> GetCore(NoteId id) const REQUIRES_SHARED(mu_);
  NoteHandle FindCore(NoteId id) const REQUIRES_SHARED(mu_);

  // -- Id-table access ---------------------------------------------------
  size_t EntriesPerPage() const;
  /// Pins the id-table page holding `id` (NotFound beyond the table or
  /// in a hole).
  Result<pager::PageRef> IdTablePageFor(NoteId id, size_t* slot_in_page) const
      REQUIRES_SHARED(mu_);
  /// Grows the id table until it covers `id`; a hole gets a fresh page.
  Status EnsureIdCapacity(NoteId id) REQUIRES(mu_);
  /// Absent ids decode as an all-zero entry (flags == 0, i.e. unused).
  Result<IdEntry> ReadEntry(NoteId id) const REQUIRES_SHARED(mu_);
  Status WriteEntry(NoteId id, const IdEntry& entry) REQUIRES(mu_);

  // -- Note placement ----------------------------------------------------
  /// Places `encoded` in a bucket slot (see PlaceSlot) or spills it to an
  /// overflow chain; fills in entry location.
  Status PlaceNote(std::string_view encoded, IdEntry* entry) REQUIRES(mu_);
  /// Places `encoded` in the fill page; else, when `reuse_free_space`, in
  /// the mapped page with the most free bytes; else in a fresh page that
  /// becomes the fill page. COMPACT passes false.
  Status PlaceSlot(std::string_view encoded, bool reuse_free_space,
                   uint32_t* page, uint16_t* slot) REQUIRES(mu_);
  /// Releases the bytes behind an entry's location (slot kill or
  /// overflow-chain free) and updates the free-space map; frees the page
  /// outright when its last live slot dies. A `replacement` that fits
  /// back into the page is written there under the same slot number, and
  /// the result is true.
  Result<bool> KillLocation(const IdEntry& entry,
                            const std::string* replacement) REQUIRES(mu_);
  /// Recounts page `pgno`'s free-space entry from its image `data`; a page
  /// outside the map joins it only when `add` is set (a slot on it died).
  void CountFreeBytes(uint32_t pgno, const char* data, bool add)
      REQUIRES(mu_);
  /// Sets page `pgno`'s free-space entry (0 removes it) and the totals.
  void SetFreeBytes(uint32_t pgno, uint64_t bytes) REQUIRES(mu_);
  Result<Note> ReadNoteAt(const IdEntry& entry) const REQUIRES_SHARED(mu_);
  /// Concatenates the chunks of the overflow chain starting at `head`;
  /// collects the chain's page numbers when `pages` is non-null.
  Status ReadOverflowChain(uint32_t head, std::string* encoded,
                           std::vector<uint32_t>* pages) const
      REQUIRES_SHARED(mu_);
  /// Installs one note version; returns {existed, was_live} for stats.
  Result<std::pair<bool, bool>> ApplyNote(Note&& note) REQUIRES(mu_);
  /// Removes an entry that is known to be in use, and frees its id-table
  /// page once every id on it is unused and below next_id_.
  Status ApplyErase(NoteId id, const IdEntry& entry) REQUIRES(mu_);

  // -- COMPACT passes ----------------------------------------------------
  /// Rewrites up to `max_pages` bucket pages carrying dead bytes; returns
  /// the number of husks freed.
  Result<size_t> CompactDeadPages(size_t max_pages) REQUIRES(mu_);
  /// Moves the last page of the file into the lowest free page until
  /// `max_pages` moves are done or no free page is left; returns the
  /// number of pages moved.
  Result<size_t> RelocateTailPages(size_t max_pages) REQUIRES(mu_);
  /// Moves in-use page `from` into a lower free page and repoints its one
  /// reference; returns the number of pages moved (a whole overflow chain
  /// moves together).
  Result<size_t> RelocatePage(uint32_t from) REQUIRES(mu_);
  /// The note whose overflow chain contains `pgno` (a chain page carries
  /// no back-pointer, so this walks the id table's overflow entries).
  Result<NoteId> OverflowOwner(uint32_t pgno) const REQUIRES_SHARED(mu_);

  /// Registry accounting for one committed Put.
  void CountPut(bool existed, bool was_live, bool now_deleted);
  Status Fault(std::string_view point);

  std::string dir_;
  StoreOptions options_;

  /// The store's reader/writer lock (see the class comment). Also
  /// serializes BufferPool::Discard against reader pins: readers only
  /// hold pins while holding mu_ shared, and every Discard runs under
  /// mu_ exclusive.
  mutable SharedMutex mu_;

  DatabaseInfo info_ GUARDED_BY(mu_);
  /// The store's own log when StoreOptions::shared_log was null (then
  /// options_.shared_log points at it). The log is NOT guarded by mu_:
  /// commits append outside the exclusive section, relying on the owning
  /// Database serializing all writers (readers never touch it).
  std::unique_ptr<wal::SharedLog> own_log_;
  /// Payload bytes committed since the last checkpoint (the store's WAL
  /// obligation, driving MaybeCheckpoint).
  std::atomic<uint64_t> bytes_since_checkpoint_{0};

  std::unique_ptr<pager::Pager> pager_;
  std::unique_ptr<pager::BufferPool> pool_;
  /// Id-table page numbers, in table order (entry index → page);
  /// kInvalidPage marks a hole, a freed page none of whose ids is in use.
  std::vector<uint32_t> id_table_pages_ GUARDED_BY(mu_);
  /// Bucket page currently accepting new slots.
  uint32_t fill_page_ GUARDED_BY(mu_) = pager::kInvalidPage;
  /// The free-space map: for each bucket page on which a slot has died,
  /// the bytes no live slot holds (dead slots, dead directory words and,
  /// except on the fill page, the gap). Placement's reuse list and
  /// COMPACT's work queue; ordered so compaction scans low pages first.
  std::map<uint32_t, uint64_t> free_bytes_ GUARDED_BY(mu_);
  /// The same entries ordered by free bytes: the most-free lookup.
  std::set<std::pair<uint64_t, uint32_t>> pages_by_free_ GUARDED_BY(mu_);
  uint64_t free_total_ GUARDED_BY(mu_) = 0;

  std::unordered_map<Unid, NoteId> unid_index_ GUARDED_BY(mu_);
  std::atomic<NoteId> next_id_{1};
  std::atomic<size_t> live_count_{0};
  std::atomic<size_t> stub_count_{0};
  /// Guards the StoreStats struct (plain fields read by stats() while a
  /// writer commits).
  mutable Mutex stats_mu_;
  StoreStats stats_ GUARDED_BY(stats_mu_);
  CompactStats compact_stats_ GUARDED_BY(mu_);

  // Server-wide stat hooks (see StoreOptions::stats).
  stats::StatRegistry* registry_;
  stats::Counter* ctr_docs_added_;
  stats::Counter* ctr_docs_updated_;
  stats::Counter* ctr_docs_deleted_;
  stats::Counter* ctr_docs_erased_;
  stats::Counter* ctr_stubs_purged_;
  stats::Counter* ctr_checkpoints_;
  stats::Counter* ctr_wal_records_;
  stats::Counter* ctr_wal_bytes_;
  stats::Counter* ctr_compact_runs_;
  stats::Counter* ctr_compact_pages_;
  stats::Counter* ctr_compact_bytes_;
  stats::Counter* ctr_compact_moved_;
  stats::Counter* ctr_compact_relocated_;
  stats::Counter* ctr_pages_freed_inline_;
  stats::Counter* ctr_place_in_place_;
  stats::Counter* ctr_place_reused_;
  stats::Counter* ctr_place_appended_;
  stats::Gauge* gauge_notes_;
  stats::Gauge* gauge_dead_bytes_;
  stats::Histogram* hist_commit_micros_;
};

}  // namespace dominodb

#endif  // DOMINODB_STORAGE_NOTE_STORE_H_
