#include "storage/note_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "base/coding.h"
#include "base/crc32c.h"
#include "base/env.h"

namespace dominodb {

namespace {

// Batch entry opcodes inside a kData WAL record.
constexpr uint8_t kOpPut = 1;
constexpr uint8_t kOpErase = 2;
constexpr uint8_t kOpInfo = 3;

constexpr char kMetaMagic[] = "DMET1";
constexpr uint8_t kMetaVersion = 1;
constexpr uint8_t kPagerSnapshotVersion = 1;

// Id-table entry: unid(16) + page(4) + slot(2) + flags(1) + pad(1) +
// sequence time(8).
constexpr size_t kIdEntrySize = 32;
constexpr uint8_t kEntryUsed = 1;
constexpr uint8_t kEntryDeleted = 2;
constexpr uint8_t kEntryOverflow = 4;

// A bucket slot costs its length prefix (2) plus its directory word (2)
// on top of the payload bytes.
constexpr size_t kSlotOverhead = 4;
constexpr uint16_t kDeadSlot = 0xFFFF;

using pager::kInvalidPage;
using pager::kPageHeaderSize;
using pager::LoadU16;
using pager::LoadU32;
using pager::LoadU64;
using pager::StoreU16;
using pager::StoreU32;
using pager::StoreU64;

uint16_t PageNSlots(const char* page) {
  return LoadU16(page + pager::kPageNSlotsOffset);
}
uint16_t PageFreeOff(const char* page) {
  return LoadU16(page + pager::kPageFreeOffOffset);
}
uint32_t PageNext(const char* page) {
  return LoadU32(page + pager::kPageNextOffset);
}
uint8_t PageTypeOf(const char* page) {
  return static_cast<uint8_t>(page[pager::kPageTypeOffset]);
}
// Directory word of slot `i` sits at the page tail, growing downward.
size_t DirOffset(uint32_t page_size, size_t i) {
  return page_size - 2 * (i + 1);
}
// The lowest byte held by a directory of `nslots` words.
size_t DirStart(uint32_t page_size, size_t nslots) {
  return page_size - 2 * nslots;
}

// Bytes of a bucket page that no live slot holds: dead payloads, dead
// directory words and the gap between the payloads and the directory.
uint64_t FreeBytes(const char* page, uint32_t page_size) {
  size_t live = 0;
  const uint16_t nslots = PageNSlots(page);
  for (uint16_t i = 0; i < nslots; ++i) {
    const uint16_t off = LoadU16(page + DirOffset(page_size, i));
    if (off != kDeadSlot) live += LoadU16(page + off) + kSlotOverhead;
  }
  return page_size - kPageHeaderSize - live;
}

// The gap: free bytes between the last payload and the directory.
uint64_t GapBytes(const char* page, uint32_t page_size) {
  return DirStart(page_size, PageNSlots(page)) - PageFreeOff(page);
}

// Slides the live payloads of a bucket page down against the header, in
// offset order, so every free payload byte joins the gap. Slot numbers
// stay; trailing dead directory words are dropped, but at least
// `min_slots` words are kept.
void SlidePage(char* page, uint32_t page_size, uint16_t min_slots) {
  std::vector<std::pair<uint16_t, uint16_t>> live;  // offset, slot
  uint16_t nslots = min_slots;
  for (uint16_t i = 0; i < PageNSlots(page); ++i) {
    const uint16_t off = LoadU16(page + DirOffset(page_size, i));
    if (off == kDeadSlot) continue;
    live.emplace_back(off, i);
    nslots = std::max<uint16_t>(nslots, i + 1);
  }
  std::sort(live.begin(), live.end());
  size_t dst = kPageHeaderSize;
  for (const auto& [off, slot] : live) {
    const size_t len = size_t{LoadU16(page + off)} + 2;
    std::memmove(page + dst, page + off, len);
    StoreU16(page + DirOffset(page_size, slot), static_cast<uint16_t>(dst));
    dst += len;
  }
  StoreU16(page + pager::kPageNSlotsOffset, nslots);
  StoreU16(page + pager::kPageFreeOffOffset, static_cast<uint16_t>(dst));
}

// Writes `encoded` into bucket page `page` as slot `slot`: a dead
// directory word, or kAnySlot for the first dead word (a new word when
// there is none). When the gap is too small and `slide` is set, the live
// payloads slide together first. Returns the slot written, or -1 when
// the page cannot hold it.
constexpr int kAnySlot = -1;
int InsertSlot(char* page, uint32_t page_size, std::string_view encoded,
               int slot, bool slide) {
  const uint16_t nslots = PageNSlots(page);
  size_t live = 0;         // payload bytes, length prefixes included
  uint16_t live_end = 0;   // one past the last live slot
  int first_dead = -1;
  for (uint16_t i = 0; i < nslots; ++i) {
    const uint16_t off = LoadU16(page + DirOffset(page_size, i));
    if (off == kDeadSlot) {
      if (first_dead < 0) first_dead = i;
      continue;
    }
    live += size_t{LoadU16(page + off)} + 2;
    live_end = i + 1;
  }
  if (slot == kAnySlot) slot = first_dead >= 0 ? first_dead : nslots;
  const size_t need = encoded.size() + 2;
  const size_t words = std::max<size_t>(nslots, slot + 1);
  if (PageFreeOff(page) + need > DirStart(page_size, words)) {
    const size_t slid_words = std::max<size_t>(live_end, slot + 1);
    if (!slide ||
        kPageHeaderSize + live + need > DirStart(page_size, slid_words)) {
      return -1;
    }
    SlidePage(page, page_size, static_cast<uint16_t>(slot + 1));
  }
  const uint16_t off = PageFreeOff(page);
  StoreU16(page + off, static_cast<uint16_t>(encoded.size()));
  std::memcpy(page + off + 2, encoded.data(), encoded.size());
  StoreU16(page + DirOffset(page_size, slot), off);
  if (slot >= PageNSlots(page)) {
    StoreU16(page + pager::kPageNSlotsOffset, static_cast<uint16_t>(slot + 1));
  }
  StoreU16(page + pager::kPageFreeOffOffset, static_cast<uint16_t>(off + need));
  return slot;
}

}  // namespace

void DatabaseInfo::EncodeTo(std::string* dst) const {
  PutFixed64(dst, replica_id.hi);
  PutFixed64(dst, replica_id.lo);
  PutLengthPrefixed(dst, title);
  PutVarSigned64(dst, purge_interval);
}

Status DatabaseInfo::DecodeFrom(std::string_view* input, DatabaseInfo* out) {
  DatabaseInfo info;
  std::string_view title;
  if (!GetFixed64(input, &info.replica_id.hi) ||
      !GetFixed64(input, &info.replica_id.lo) ||
      !GetLengthPrefixed(input, &title) ||
      !GetVarSigned64(input, &info.purge_interval)) {
    return Status::Corruption("database info: truncated");
  }
  info.title = std::string(title);
  *out = std::move(info);
  return Status::Ok();
}

NoteStore::NoteStore(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  registry_ = options_.stats != nullptr ? options_.stats
                                        : &stats::StatRegistry::Global();
  ctr_docs_added_ = &registry_->GetCounter("Database.Docs.Added");
  ctr_docs_updated_ = &registry_->GetCounter("Database.Docs.Updated");
  ctr_docs_deleted_ = &registry_->GetCounter("Database.Docs.Deleted");
  ctr_docs_erased_ = &registry_->GetCounter("Database.Docs.Erased");
  ctr_stubs_purged_ = &registry_->GetCounter("Database.Stubs.Purged");
  ctr_checkpoints_ = &registry_->GetCounter("Database.Checkpoints");
  ctr_wal_records_ = &registry_->GetCounter("Database.WAL.Records");
  ctr_wal_bytes_ = &registry_->GetCounter("Database.WAL.Bytes");
  ctr_compact_runs_ = &registry_->GetCounter("Store.Compact.Runs");
  ctr_compact_pages_ = &registry_->GetCounter("Store.Compact.PagesReclaimed");
  ctr_compact_bytes_ = &registry_->GetCounter("Store.Compact.BytesReclaimed");
  ctr_compact_moved_ = &registry_->GetCounter("Store.Compact.NotesMoved");
  ctr_compact_relocated_ =
      &registry_->GetCounter("Store.Compact.PagesRelocated");
  ctr_pages_freed_inline_ = &registry_->GetCounter("Store.Pages.FreedInline");
  ctr_place_in_place_ = &registry_->GetCounter("Store.Place.InPlace");
  ctr_place_reused_ = &registry_->GetCounter("Store.Place.Reused");
  ctr_place_appended_ = &registry_->GetCounter("Store.Place.Appended");
  gauge_notes_ = &registry_->GetGauge("Database.Docs.Current");
  gauge_dead_bytes_ = &registry_->GetGauge("Store.DeadBytes");
  hist_commit_micros_ =
      &registry_->GetHistogram("Database.WAL.CommitMicros");
}

Result<std::unique_ptr<NoteStore>> NoteStore::Open(
    const std::string& dir, const StoreOptions& options,
    const DatabaseInfo& default_info) {
  DOMINO_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::unique_ptr<NoteStore> store(new NoteStore(dir, options));
  if (store->options_.shared_log == nullptr) {
    // A store outside a server-wide log keeps its own one-stream log.
    wal::SharedLogOptions log_options;
    log_options.sync_mode = options.sync_mode;
    log_options.stats = store->registry_;
    DOMINO_ASSIGN_OR_RETURN(store->own_log_,
                            wal::SharedLog::Open(dir + "/txnlog",
                                                 log_options));
    DOMINO_ASSIGN_OR_RETURN(store->options_.shared_stream,
                            store->own_log_->RegisterStream("notes"));
    store->options_.shared_log = store->own_log_.get();
  }

  // An existing meta file is authoritative for the page size; the pager
  // must be opened with it before anything else touches pages.
  std::string meta_blob;
  bool have_meta = false;
  uint32_t page_size = options.page_size;
  auto meta_bytes = ReadFileToString(store->MetaPath());
  if (meta_bytes.ok()) {
    std::string_view raw = *meta_bytes;
    constexpr size_t kMagicLen = sizeof(kMetaMagic) - 1;
    if (raw.size() < kMagicLen + 4 + 5 ||
        raw.substr(0, kMagicLen) != kMetaMagic) {
      return Status::Corruption("notes.meta: bad magic");
    }
    std::string_view body = raw.substr(kMagicLen, raw.size() - kMagicLen - 4);
    std::string_view crc_bytes = raw.substr(raw.size() - 4);
    uint32_t stored = 0;
    GetFixed32(&crc_bytes, &stored);
    if (crc32c::Unmask(stored) != crc32c::Value(body)) {
      return Status::Corruption("notes.meta: CRC mismatch");
    }
    if (static_cast<uint8_t>(body[0]) != kMetaVersion) {
      return Status::Corruption("notes.meta: unknown version");
    }
    std::string_view peek = body.substr(1);
    if (!GetFixed32(&peek, &page_size)) {
      return Status::Corruption("notes.meta: truncated");
    }
    meta_blob = std::string(body);
    have_meta = true;
  } else if (!meta_bytes.status().IsNotFound()) {
    return meta_bytes.status();
  }
  if (page_size > 32768) {
    // Slot directories and chunk lengths are 16-bit offsets.
    return Status::InvalidArgument("page size must be <= 32768");
  }

  DOMINO_ASSIGN_OR_RETURN(store->pager_,
                          pager::Pager::Open(store->PagesPath(), page_size));
  store->pool_ = std::make_unique<pager::BufferPool>(
      store->pager_.get(), options.cache_pages, store->registry_);

  {
    // Recovery runs before the store is published, but the helpers it
    // calls are annotated against the store lock — hold it for real.
    WriterLock lock(&store->mu_);
    DOMINO_RETURN_IF_ERROR(store->Recover(default_info, meta_blob, have_meta));
  }
  // Fresh = no meta file and nothing replayed from the log; the seed
  // metadata is then persisted below so the replica id survives.
  const bool fresh = !have_meta && store->stats().recovered_records == 0;
  store->registry_->GetCounter("Database.Opens").Add();
  store->gauge_notes_->Add(static_cast<int64_t>(store->note_count()));
  if (fresh) {
    // Persist the seed metadata so the replica id survives reopen.
    DOMINO_RETURN_IF_ERROR(store->UpdateInfo(store->info()));
  }
  return store;
}

Status NoteStore::Recover(const DatabaseInfo& default_info,
                          std::string_view meta_blob, bool have_meta) {
  info_ = default_info;
  if (have_meta) {
    // Geometry only — no page reads yet. The index rebuild (which walks
    // id-table pages) waits until after WAL replay: a crash mid-checkpoint
    // can leave an id-table page torn, and the snapshot record in the log
    // must repair it before anything reads it.
    DOMINO_RETURN_IF_ERROR(DecodeMetaBlob(meta_blob));
  }
  DOMINO_RETURN_IF_ERROR(ReplayLog());
  // Authoritative index state from the (now repaired) id-table pages.
  // Replay above maintained counts incrementally; this scan replaces them
  // with ground truth and is idempotent after a snapshot adoption.
  DOMINO_RETURN_IF_ERROR(RebuildIndexFromIdTable());
  uint64_t recovered_records = 0;
  bool torn_tail = false;
  {
    MutexLock stats_lock(&stats_mu_);
    recovered_records = stats_.recovered_records;
    torn_tail = stats_.recovered_torn_tail;
  }
  if (recovered_records > 0 || torn_tail) {
    registry_->GetCounter("Database.WAL.Recovery.Runs").Add();
    registry_->GetCounter("Database.WAL.Recovery.Records")
        .Add(recovered_records);
    if (torn_tail) {
      registry_->GetCounter("Database.WAL.Recovery.TornTails").Add();
    }
    registry_->events().Log(
        torn_tail ? stats::Severity::kWarning : stats::Severity::kNormal,
        "Store",
        "WAL recovery ran: replayed " + std::to_string(recovered_records) +
            " record(s)" + (torn_tail ? ", torn tail discarded" : ""));
  }
  return Status::Ok();
}

Status NoteStore::ReplayLog() {
  // Keep only the suffix that the page state loaded above does not yet
  // capture: a checkpoint marker supersedes everything before it, and so
  // does a page-snapshot record (its images go down first, because they
  // are what repairs a page torn by a crashed in-place checkpoint write —
  // replaying logical ops through a torn page would fail its CRC check).
  std::vector<std::pair<wal::RecordType, std::string>> records;
  bool torn = false;
  DOMINO_RETURN_IF_ERROR(options_.shared_log->ReplayStream(
      options_.shared_stream,
      [&records](wal::RecordType type, std::string_view payload) {
        if (type != wal::RecordType::kData) records.clear();
        if (type != wal::RecordType::kCheckpoint) {
          records.emplace_back(type, std::string(payload));
        }
        return Status::Ok();
      },
      &torn));
  {
    MutexLock stats_lock(&stats_mu_);
    stats_.recovered_torn_tail = torn;
  }
  for (const auto& [type, payload] : records) {
    if (type == wal::RecordType::kPagerSnapshot) {
      DOMINO_RETURN_IF_ERROR(AdoptPagerSnapshot(payload));
      continue;
    }
    DOMINO_RETURN_IF_ERROR(ApplyBatchPayload(payload, true));
    MutexLock stats_lock(&stats_mu_);
    stats_.recovered_records++;
  }
  return Status::Ok();
}

// -- Meta / snapshot encoding ---------------------------------------------

std::string NoteStore::EncodeMetaBlob() const {
  std::string out;
  out.push_back(static_cast<char>(kMetaVersion));
  PutFixed32(&out, pager_->page_size());
  PutFixed32(&out, pager_->page_count());
  PutFixed32(&out, next_id_);
  PutFixed32(&out, fill_page_);
  std::string info;
  info_.EncodeTo(&info);
  PutLengthPrefixed(&out, info);
  std::vector<uint32_t> free_pages = pager_->FreePages();
  PutVarint64(&out, free_pages.size());
  for (uint32_t pg : free_pages) PutFixed32(&out, pg);
  PutVarint64(&out, id_table_pages_.size());
  for (uint32_t pg : id_table_pages_) PutFixed32(&out, pg);
  PutVarint64(&out, free_bytes_.size());
  for (const auto& [pg, bytes] : free_bytes_) {
    PutFixed32(&out, pg);
    PutVarint64(&out, bytes);
  }
  return out;
}

Status NoteStore::DecodeMetaBlob(std::string_view input) {
  if (input.empty() || static_cast<uint8_t>(input[0]) != kMetaVersion) {
    return Status::Corruption("pager meta: unknown version");
  }
  input.remove_prefix(1);
  uint32_t page_size = 0;
  uint32_t page_count = 0;
  uint32_t next_id = 0;
  uint32_t fill_page = 0;
  std::string_view info_bytes;
  if (!GetFixed32(&input, &page_size) || !GetFixed32(&input, &page_count) ||
      !GetFixed32(&input, &next_id) || !GetFixed32(&input, &fill_page) ||
      !GetLengthPrefixed(&input, &info_bytes)) {
    return Status::Corruption("pager meta: truncated header");
  }
  if (page_size != pager_->page_size()) {
    return Status::Corruption("pager meta: page size mismatch");
  }
  std::string_view info_cursor = info_bytes;
  DOMINO_RETURN_IF_ERROR(DatabaseInfo::DecodeFrom(&info_cursor, &info_));
  uint64_t n = 0;
  if (!GetVarint64(&input, &n)) return Status::Corruption("pager meta: free");
  std::vector<uint32_t> free_pages(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!GetFixed32(&input, &free_pages[i])) {
      return Status::Corruption("pager meta: free list truncated");
    }
  }
  if (!GetVarint64(&input, &n)) {
    return Status::Corruption("pager meta: id table");
  }
  std::vector<uint32_t> table(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!GetFixed32(&input, &table[i])) {
      return Status::Corruption("pager meta: id table truncated");
    }
  }
  if (!GetVarint64(&input, &n)) {
    return Status::Corruption("pager meta: dead bytes");
  }
  std::map<uint32_t, uint64_t> free_bytes;
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t pg = 0;
    uint64_t bytes = 0;
    if (!GetFixed32(&input, &pg) || !GetVarint64(&input, &bytes)) {
      return Status::Corruption("pager meta: dead bytes truncated");
    }
    free_bytes[pg] = bytes;
  }
  pager_->SetState(page_count, free_pages);
  next_id_ = next_id;
  fill_page_ = fill_page;
  id_table_pages_ = std::move(table);
  free_bytes_.clear();
  pages_by_free_.clear();
  free_total_ = 0;
  for (const auto& [pg, bytes] : free_bytes) SetFreeBytes(pg, bytes);
  gauge_dead_bytes_->Set(static_cast<int64_t>(free_total_));
  return Status::Ok();
}

std::string NoteStore::EncodePagerSnapshot() {
  std::string out;
  out.push_back(static_cast<char>(kPagerSnapshotVersion));
  PutLengthPrefixed(&out, EncodeMetaBlob());
  std::vector<std::pair<uint32_t, std::string>> images;
  pool_->ForEachDirty([&](uint32_t pgno, char* data) {
    images.emplace_back(pgno, std::string(data, pager_->page_size()));
    return Status::Ok();
  }).ok();
  PutVarint64(&out, images.size());
  for (auto& [pgno, image] : images) {
    PutFixed32(&out, pgno);
    PutLengthPrefixed(&out, image);
  }
  return out;
}

Status NoteStore::AdoptPagerSnapshot(std::string_view payload) {
  if (payload.empty() ||
      static_cast<uint8_t>(payload[0]) != kPagerSnapshotVersion) {
    return Status::Corruption("pager snapshot: unknown version");
  }
  payload.remove_prefix(1);
  std::string_view meta_blob;
  uint64_t image_count = 0;
  if (!GetLengthPrefixed(&payload, &meta_blob) ||
      !GetVarint64(&payload, &image_count)) {
    return Status::Corruption("pager snapshot: truncated");
  }
  // Everything buffered so far (including logical ops replayed before
  // this record) is superseded by the images + meta.
  pool_->DiscardAll();
  std::string scratch;
  for (uint64_t i = 0; i < image_count; ++i) {
    uint32_t pgno = 0;
    std::string_view image;
    if (!GetFixed32(&payload, &pgno) || !GetLengthPrefixed(&payload, &image) ||
        image.size() != pager_->page_size()) {
      return Status::Corruption("pager snapshot: truncated image");
    }
    scratch.assign(image);
    DOMINO_RETURN_IF_ERROR(pager_->WritePage(pgno, scratch.data()));
  }
  DOMINO_RETURN_IF_ERROR(pager_->Sync());
  DOMINO_RETURN_IF_ERROR(DecodeMetaBlob(meta_blob));
  return RebuildIndexFromIdTable();
}

Status NoteStore::RebuildIndexFromIdTable() {
  unid_index_.clear();
  live_count_ = 0;
  stub_count_ = 0;
  const size_t per_page = EntriesPerPage();
  for (size_t ti = 0; ti < id_table_pages_.size(); ++ti) {
    if (id_table_pages_[ti] == kInvalidPage) continue;  // freed: no entries
    DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref,
                            pool_->Pin(id_table_pages_[ti]));
    if (PageTypeOf(ref.data()) != pager::kPageIdTable) {
      return Status::Corruption("id-table page has wrong type");
    }
    for (size_t i = 0; i < per_page; ++i) {
      const char* p = ref.data() + kPageHeaderSize + i * kIdEntrySize;
      uint8_t flags = static_cast<uint8_t>(p[22]);
      if ((flags & kEntryUsed) == 0) continue;
      NoteId id = static_cast<NoteId>(ti * per_page + i + 1);
      Unid unid;
      unid.hi = LoadU64(p);
      unid.lo = LoadU64(p + 8);
      unid_index_[unid] = id;
      if (flags & kEntryDeleted) {
        ++stub_count_;
      } else {
        ++live_count_;
      }
      if (id >= next_id_) next_id_ = id + 1;
    }
  }
  return Status::Ok();
}

// -- Id-table access -------------------------------------------------------

size_t NoteStore::EntriesPerPage() const {
  return (pager_->page_size() - kPageHeaderSize) / kIdEntrySize;
}

Result<pager::PageRef> NoteStore::IdTablePageFor(NoteId id,
                                                 size_t* slot_in_page) const {
  const size_t per_page = EntriesPerPage();
  const size_t index = static_cast<size_t>(id - 1);
  const size_t ti = index / per_page;
  *slot_in_page = index % per_page;
  if (ti >= id_table_pages_.size() || id_table_pages_[ti] == kInvalidPage) {
    return Status::NotFound("note id beyond id table or on a freed page");
  }
  return pool_->Pin(id_table_pages_[ti]);
}

Status NoteStore::EnsureIdCapacity(NoteId id) {
  const size_t ti = static_cast<size_t>(id - 1) / EntriesPerPage();
  if (id_table_pages_.size() <= ti) {
    id_table_pages_.resize(ti + 1, kInvalidPage);
  }
  if (id_table_pages_[ti] == kInvalidPage) {
    uint32_t pgno = pager_->Allocate();
    pool_->PinNew(pgno, pager::kPageIdTable);
    id_table_pages_[ti] = pgno;
  }
  return Status::Ok();
}

Result<NoteStore::IdEntry> NoteStore::ReadEntry(NoteId id) const {
  if (id == kInvalidNoteId) return IdEntry{};
  size_t slot = 0;
  auto ref_or = IdTablePageFor(id, &slot);
  if (!ref_or.ok()) {
    if (ref_or.status().IsNotFound()) return IdEntry{};
    return ref_or.status();
  }
  const char* p = ref_or->data() + kPageHeaderSize + slot * kIdEntrySize;
  IdEntry entry;
  entry.unid.hi = LoadU64(p);
  entry.unid.lo = LoadU64(p + 8);
  entry.page = LoadU32(p + 16);
  entry.slot = LoadU16(p + 20);
  entry.flags = static_cast<uint8_t>(p[22]);
  entry.seq_time = static_cast<Micros>(LoadU64(p + 24));
  return entry;
}

Status NoteStore::WriteEntry(NoteId id, const IdEntry& entry) {
  DOMINO_RETURN_IF_ERROR(EnsureIdCapacity(id));
  size_t slot = 0;
  DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, IdTablePageFor(id, &slot));
  char* p = ref.data() + kPageHeaderSize + slot * kIdEntrySize;
  StoreU64(p, entry.unid.hi);
  StoreU64(p + 8, entry.unid.lo);
  StoreU32(p + 16, entry.page);
  StoreU16(p + 20, entry.slot);
  p[22] = static_cast<char>(entry.flags);
  p[23] = 0;
  StoreU64(p + 24, static_cast<uint64_t>(entry.seq_time));
  ref.MarkDirty();
  return Status::Ok();
}

// -- Note placement --------------------------------------------------------

void NoteStore::SetFreeBytes(uint32_t pgno, uint64_t bytes) {
  auto it = free_bytes_.find(pgno);
  if (it != free_bytes_.end()) {
    free_total_ -= it->second;
    pages_by_free_.erase({it->second, pgno});
    free_bytes_.erase(it);
  }
  if (bytes > 0) {
    free_bytes_.emplace(pgno, bytes);
    pages_by_free_.emplace(bytes, pgno);
    free_total_ += bytes;
  }
  gauge_dead_bytes_->Set(static_cast<int64_t>(free_total_));
}

void NoteStore::CountFreeBytes(uint32_t pgno, const char* data, bool add) {
  if (!add && free_bytes_.count(pgno) == 0) return;
  // The fill page's gap is its append room, which COMPACT cannot reclaim.
  const uint32_t page_size = pager_->page_size();
  uint64_t bytes = FreeBytes(data, page_size);
  if (pgno == fill_page_) bytes -= GapBytes(data, page_size);
  SetFreeBytes(pgno, bytes);
}

Status NoteStore::PlaceSlot(std::string_view encoded, bool reuse_free_space,
                            uint32_t* page, uint16_t* slot) {
  const uint32_t page_size = pager_->page_size();
  auto insert = [&](pager::PageRef& ref, bool slide,
                    stats::Counter* counter) {
    const int written =
        InsertSlot(ref.data(), page_size, encoded, kAnySlot, slide);
    if (written < 0) return false;
    ref.MarkDirty();
    CountFreeBytes(ref.pgno(), ref.data(), false);
    counter->Add();
    *page = ref.pgno();
    *slot = static_cast<uint16_t>(written);
    return true;
  };
  // The fill page takes a note in its gap only: sliding would move its
  // counted holes into the uncounted gap, and COMPACT, which fills this
  // page, would then reclaim less than dead_bytes() promised.
  pager::PageRef fill;
  if (fill_page_ != kInvalidPage) {
    DOMINO_ASSIGN_OR_RETURN(fill, pool_->Pin(fill_page_));
    if (insert(fill, false, ctr_place_appended_)) return Status::Ok();
  }
  if (reuse_free_space) {
    auto it = pages_by_free_.rbegin();
    if (it != pages_by_free_.rend() && it->second == fill_page_) ++it;
    if (it != pages_by_free_.rend() &&
        it->first >= encoded.size() + kSlotOverhead) {
      DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(it->second));
      if (insert(ref, true, ctr_place_reused_)) return Status::Ok();
    }
  }
  // A fresh page takes over as the fill page; the old one's gap now
  // counts as free space if it is mapped.
  const uint32_t pgno = pager_->Allocate();
  pager::PageRef ref = pool_->PinNew(pgno, pager::kPageBucket);
  StoreU16(ref.data() + pager::kPageFreeOffOffset,
           static_cast<uint16_t>(kPageHeaderSize));
  fill_page_ = pgno;
  if (fill) CountFreeBytes(fill.pgno(), fill.data(), false);
  if (!insert(ref, false, ctr_place_appended_)) {
    return Status::Corruption("note does not fit an empty bucket page");
  }
  return Status::Ok();
}

Status NoteStore::PlaceNote(std::string_view encoded, IdEntry* entry) {
  const uint32_t page_size = pager_->page_size();
  const size_t inline_max = page_size - kPageHeaderSize - kSlotOverhead;
  if (encoded.size() <= inline_max) {
    entry->flags &= static_cast<uint8_t>(~kEntryOverflow);
    return PlaceSlot(encoded, true, &entry->page, &entry->slot);
  }
  // Oversized note: spill into an overflow chain, one chunk per page.
  const size_t chunk_max = page_size - kPageHeaderSize;
  uint32_t first = kInvalidPage;
  pager::PageRef prev;
  size_t off = 0;
  while (off < encoded.size()) {
    const size_t chunk = std::min(chunk_max, encoded.size() - off);
    uint32_t pgno = pager_->Allocate();
    pager::PageRef ref = pool_->PinNew(pgno, pager::kPageOverflow);
    StoreU16(ref.data() + pager::kPageFreeOffOffset,
             static_cast<uint16_t>(chunk));
    std::memcpy(ref.data() + kPageHeaderSize, encoded.data() + off, chunk);
    ref.MarkDirty();
    if (first == kInvalidPage) {
      first = pgno;
    } else {
      StoreU32(prev.data() + pager::kPageNextOffset, pgno);
      prev.MarkDirty();
    }
    prev = std::move(ref);
    off += chunk;
  }
  entry->page = first;
  entry->slot = 0;
  entry->flags |= kEntryOverflow;
  ctr_place_appended_->Add();
  return Status::Ok();
}

Result<bool> NoteStore::KillLocation(const IdEntry& entry,
                                     const std::string* replacement) {
  if (entry.flags & kEntryOverflow) {
    uint32_t pgno = entry.page;
    while (pgno != kInvalidPage) {
      uint32_t next = kInvalidPage;
      {
        DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(pgno));
        if (PageTypeOf(ref.data()) != pager::kPageOverflow) {
          return Status::Corruption("overflow chain hits non-overflow page");
        }
        next = PageNext(ref.data());
      }
      pool_->Discard(pgno);
      pager_->Free(pgno);
      ctr_pages_freed_inline_->Add();
      pgno = next;
    }
    return false;
  }
  bool rewritten = false;
  bool whole_dead = true;
  {
    DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(entry.page));
    char* data = ref.data();
    const uint32_t page_size = pager_->page_size();
    const uint16_t nslots = PageNSlots(data);
    if (PageTypeOf(data) != pager::kPageBucket || entry.slot >= nslots) {
      return Status::Corruption("bad slot reference in id table");
    }
    const size_t dir = DirOffset(page_size, entry.slot);
    if (LoadU16(data + dir) == kDeadSlot) {
      return Status::Corruption("double kill of bucket slot");
    }
    StoreU16(data + dir, kDeadSlot);
    ref.MarkDirty();
    rewritten =
        replacement != nullptr &&
        InsertSlot(data, page_size, *replacement, entry.slot, true) >= 0;
    for (uint16_t i = 0; i < PageNSlots(data) && whole_dead; ++i) {
      if (LoadU16(data + DirOffset(page_size, i)) != kDeadSlot) {
        whole_dead = false;
      }
    }
    if (!whole_dead) CountFreeBytes(entry.page, data, true);
  }
  if (whole_dead) {
    // Last live slot died: reclaim the page without waiting for COMPACT.
    SetFreeBytes(entry.page, 0);
    pool_->Discard(entry.page);
    pager_->Free(entry.page);
    if (fill_page_ == entry.page) fill_page_ = kInvalidPage;
    ctr_pages_freed_inline_->Add();
  }
  if (rewritten) ctr_place_in_place_->Add();
  return rewritten;
}

Result<Note> NoteStore::ReadNoteAt(const IdEntry& entry) const {
  if (entry.flags & kEntryOverflow) {
    std::string encoded;
    DOMINO_RETURN_IF_ERROR(ReadOverflowChain(entry.page, &encoded, nullptr));
    Note note;
    DOMINO_RETURN_IF_ERROR(Note::DecodeFromString(encoded, &note));
    return note;
  }
  const uint32_t page_size = pager_->page_size();
  DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(entry.page));
  const char* data = ref.data();
  const uint16_t nslots = PageNSlots(data);
  if (PageTypeOf(data) != pager::kPageBucket || entry.slot >= nslots) {
    return Status::Corruption("bad slot reference in id table");
  }
  const uint16_t off = LoadU16(data + DirOffset(page_size, entry.slot));
  if (off == kDeadSlot || off < kPageHeaderSize || off + 2 > page_size) {
    return Status::Corruption("dead or out-of-bounds slot");
  }
  const uint16_t len = LoadU16(data + off);
  if (off + 2 + len > page_size) {
    return Status::Corruption("slot overruns page");
  }
  Note note;
  DOMINO_RETURN_IF_ERROR(
      Note::DecodeFromString(std::string_view(data + off + 2, len), &note));
  return note;
}

Status NoteStore::ReadOverflowChain(uint32_t head, std::string* encoded,
                                    std::vector<uint32_t>* pages) const {
  const uint32_t page_size = pager_->page_size();
  for (uint32_t pgno = head; pgno != kInvalidPage;) {
    DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(pgno));
    if (PageTypeOf(ref.data()) != pager::kPageOverflow) {
      return Status::Corruption("overflow chain hits non-overflow page");
    }
    const uint16_t chunk = PageFreeOff(ref.data());
    if (chunk > page_size - kPageHeaderSize ||
        encoded->size() + chunk > (1ull << 30)) {
      return Status::Corruption("overflow chunk out of bounds");
    }
    encoded->append(ref.data() + kPageHeaderSize, chunk);
    if (pages != nullptr) pages->push_back(pgno);
    pgno = PageNext(ref.data());
  }
  return Status::Ok();
}

// -- Reads -----------------------------------------------------------------

Result<Note> NoteStore::GetCore(NoteId id) const {
  DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
  if ((entry.flags & kEntryUsed) == 0) {
    return Status::NotFound("note id " + std::to_string(id));
  }
  return ReadNoteAt(entry);
}

NoteHandle NoteStore::FindCore(NoteId id) const {
  auto note = GetCore(id);
  if (!note.ok()) return nullptr;
  return std::make_shared<const Note>(std::move(*note));
}

Result<Note> NoteStore::Get(NoteId id) const {
  ReaderLock lock(&mu_);
  return GetCore(id);
}

Result<Note> NoteStore::GetByUnid(const Unid& unid) const {
  ReaderLock lock(&mu_);
  auto it = unid_index_.find(unid);
  if (it == unid_index_.end()) {
    return Status::NotFound("unid " + unid.ToString());
  }
  return GetCore(it->second);
}

bool NoteStore::Contains(NoteId id) const {
  ReaderLock lock(&mu_);
  auto entry = ReadEntry(id);
  return entry.ok() && (entry->flags & kEntryUsed) != 0;
}

bool NoteStore::ContainsUnid(const Unid& unid) const {
  ReaderLock lock(&mu_);
  return unid_index_.count(unid) != 0;
}

NoteHandle NoteStore::Find(NoteId id) const {
  ReaderLock lock(&mu_);
  return FindCore(id);
}

NoteHandle NoteStore::FindByUnid(const Unid& unid) const {
  ReaderLock lock(&mu_);
  auto it = unid_index_.find(unid);
  return it == unid_index_.end() ? nullptr : FindCore(it->second);
}

void NoteStore::ForEach(const std::function<void(const Note&)>& fn) const {
  const size_t per_page = EntriesPerPage();
  size_t table_pages = 0;
  {
    ReaderLock lock(&mu_);
    table_pages = id_table_pages_.size();
  }
  for (size_t ti = 0; ti < table_pages; ++ti) {
    // Entry decode AND note reads happen under one shared hold (an entry
    // read without its note would go stale if a writer moved the note in
    // between); `fn` then runs with no lock held, so callbacks may
    // re-enter store reads without self-deadlocking on the shared lock.
    std::vector<Note> batch;
    {
      ReaderLock lock(&mu_);
      if (ti >= id_table_pages_.size()) break;
      if (id_table_pages_[ti] == kInvalidPage) continue;
      std::vector<IdEntry> used;
      {
        auto ref_or = pool_->Pin(id_table_pages_[ti]);
        if (!ref_or.ok()) continue;
        for (size_t i = 0; i < per_page; ++i) {
          const char* p = ref_or->data() + kPageHeaderSize + i * kIdEntrySize;
          if ((static_cast<uint8_t>(p[22]) & kEntryUsed) == 0) continue;
          IdEntry entry;
          entry.unid.hi = LoadU64(p);
          entry.unid.lo = LoadU64(p + 8);
          entry.page = LoadU32(p + 16);
          entry.slot = LoadU16(p + 20);
          entry.flags = static_cast<uint8_t>(p[22]);
          entry.seq_time = static_cast<Micros>(LoadU64(p + 24));
          used.push_back(entry);
        }
      }
      batch.reserve(used.size());
      for (const IdEntry& entry : used) {
        auto note = ReadNoteAt(entry);
        if (note.ok()) batch.push_back(std::move(*note));
      }
    }
    for (const Note& note : batch) fn(note);
  }
}

// -- Apply (shared by live commits and recovery replay) --------------------

Result<std::pair<bool, bool>> NoteStore::ApplyNote(Note&& note) {
  const NoteId id = note.id();
  DOMINO_ASSIGN_OR_RETURN(IdEntry old_entry, ReadEntry(id));
  const bool existed = (old_entry.flags & kEntryUsed) != 0;
  const bool was_live = existed && (old_entry.flags & kEntryDeleted) == 0;
  std::string encoded = note.EncodeToString();
  bool in_place = false;
  if (existed) {
    // An update goes back onto its own page when it fits there.
    DOMINO_ASSIGN_OR_RETURN(in_place, KillLocation(old_entry, &encoded));
    if (!(old_entry.unid == note.unid())) {
      unid_index_.erase(old_entry.unid);
    }
    if (old_entry.flags & kEntryDeleted) {
      --stub_count_;
    } else {
      --live_count_;
    }
  }
  IdEntry entry;
  entry.unid = note.unid();
  entry.flags = kEntryUsed;
  if (note.deleted()) entry.flags |= kEntryDeleted;
  entry.seq_time = note.sequence_time();
  if (in_place) {
    entry.page = old_entry.page;
    entry.slot = old_entry.slot;
  } else {
    DOMINO_RETURN_IF_ERROR(PlaceNote(encoded, &entry));
  }
  DOMINO_RETURN_IF_ERROR(WriteEntry(id, entry));
  unid_index_[note.unid()] = id;
  if (note.deleted()) {
    ++stub_count_;
  } else {
    ++live_count_;
  }
  if (id >= next_id_) next_id_ = id + 1;
  return std::make_pair(existed, was_live);
}

Status NoteStore::ApplyErase(NoteId id, const IdEntry& entry) {
  DOMINO_RETURN_IF_ERROR(KillLocation(entry, nullptr).status());
  DOMINO_RETURN_IF_ERROR(WriteEntry(id, IdEntry{}));
  unid_index_.erase(entry.unid);
  if (entry.flags & kEntryDeleted) {
    --stub_count_;
  } else {
    --live_count_;
  }
  // Note ids are never reused, so an id-table page whose entries are all
  // unused and whose ids all lie below next_id_ stays empty for good:
  // free it and leave a hole. The tail page is kept, so appends never
  // churn it.
  const size_t per_page = EntriesPerPage();
  const size_t ti = static_cast<size_t>(id - 1) / per_page;
  if ((ti + 1) * per_page >= next_id_) return Status::Ok();
  const uint32_t pgno = id_table_pages_[ti];
  {
    DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(pgno));
    for (size_t i = 0; i < per_page; ++i) {
      const char* p = ref.data() + kPageHeaderSize + i * kIdEntrySize;
      if (static_cast<uint8_t>(p[22]) & kEntryUsed) return Status::Ok();
    }
  }
  pool_->Discard(pgno);
  pager_->Free(pgno);
  id_table_pages_[ti] = kInvalidPage;
  ctr_pages_freed_inline_->Add();
  return Status::Ok();
}

Status NoteStore::ApplyBatchPayload(std::string_view payload,
                                    bool from_recovery) {
  (void)from_recovery;
  std::string_view input = payload;
  uint64_t count = 0;
  if (!GetVarint64(&input, &count)) {
    return Status::Corruption("batch: bad count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (input.empty()) return Status::Corruption("batch: truncated op");
    uint8_t op = static_cast<uint8_t>(input.front());
    input.remove_prefix(1);
    switch (op) {
      case kOpPut: {
        std::string_view encoded;
        if (!GetLengthPrefixed(&input, &encoded)) {
          return Status::Corruption("batch: truncated put");
        }
        Note note;
        DOMINO_RETURN_IF_ERROR(Note::DecodeFromString(encoded, &note));
        DOMINO_RETURN_IF_ERROR(ApplyNote(std::move(note)).status());
        break;
      }
      case kOpErase: {
        uint32_t id = 0;
        if (!GetFixed32(&input, &id)) {
          return Status::Corruption("batch: truncated erase");
        }
        DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
        if (entry.flags & kEntryUsed) {
          DOMINO_RETURN_IF_ERROR(ApplyErase(id, entry));
        }
        break;
      }
      case kOpInfo: {
        std::string_view encoded;
        if (!GetLengthPrefixed(&input, &encoded)) {
          return Status::Corruption("batch: truncated info");
        }
        std::string_view cursor = encoded;
        DOMINO_RETURN_IF_ERROR(DatabaseInfo::DecodeFrom(&cursor, &info_));
        break;
      }
      default:
        return Status::Corruption("batch: unknown op");
    }
  }
  return Status::Ok();
}

Status NoteStore::CommitPayload(const std::string& payload) {
  // Deliberately NOT under mu_: the append (and its fsync, under strict
  // sync modes) must not block concurrent shared-lock readers. Writers
  // are serialized by the owning Database, so two commits never race.
  auto start = std::chrono::steady_clock::now();
  DOMINO_RETURN_IF_ERROR(options_.shared_log->Commit(
      options_.shared_stream, wal::RecordType::kData, payload));
  const uint64_t wal_bytes =
      bytes_since_checkpoint_.fetch_add(payload.size(),
                                        std::memory_order_relaxed) +
      payload.size();
  hist_commit_micros_->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  {
    MutexLock stats_lock(&stats_mu_);
    stats_.wal_bytes_written = wal_bytes;
    stats_.wal_records_written++;
  }
  ctr_wal_records_->Add();
  ctr_wal_bytes_->Add(payload.size());
  return Status::Ok();
}

Status NoteStore::MaybeCheckpoint() {
  if (options_.checkpoint_threshold_bytes == 0) return Status::Ok();
  if (wal_size_bytes() <= options_.checkpoint_threshold_bytes) {
    return Status::Ok();
  }
  return Checkpoint();
}

// -- Writes ----------------------------------------------------------------

Status NoteStore::Put(Note* note) {
  if (note->id() == kInvalidNoteId) note->set_id(AllocateId());
  if (note->unid().IsNull()) {
    return Status::InvalidArgument("note has null UNID; stamp it first");
  }
  std::string payload;
  PutVarint64(&payload, 1);
  payload.push_back(static_cast<char>(kOpPut));
  std::string encoded = note->EncodeToString();
  PutLengthPrefixed(&payload, encoded);
  DOMINO_RETURN_IF_ERROR(CommitPayload(payload));
  bool existed = false;
  bool was_live = false;
  {
    WriterLock lock(&mu_);
    DOMINO_ASSIGN_OR_RETURN(auto outcome, ApplyNote(Note(*note)));
    existed = outcome.first;
    was_live = outcome.second;
  }
  CountPut(existed, was_live, note->deleted());
  return Status::Ok();
}

void NoteStore::CountPut(bool existed, bool was_live, bool now_deleted) {
  if (now_deleted) {
    ctr_docs_deleted_->Add();
    if (was_live) gauge_notes_->Add(-1);
  } else if (!existed) {
    ctr_docs_added_->Add();
    gauge_notes_->Add(1);
  } else {
    ctr_docs_updated_->Add();
    // A live note replacing a stub (replication resurrect) re-enters the
    // live population.
    if (!was_live) gauge_notes_->Add(1);
  }
}

Status NoteStore::PutBatch(std::vector<Note>* batch) {
  if (batch->empty()) return Status::Ok();
  std::string payload;
  PutVarint64(&payload, batch->size());
  for (Note& note : *batch) {
    if (note.id() == kInvalidNoteId) note.set_id(AllocateId());
    if (note.unid().IsNull()) {
      return Status::InvalidArgument("note has null UNID; stamp it first");
    }
    payload.push_back(static_cast<char>(kOpPut));
    std::string encoded = note.EncodeToString();
    PutLengthPrefixed(&payload, encoded);
  }
  DOMINO_RETURN_IF_ERROR(CommitPayload(payload));
  WriterLock lock(&mu_);
  for (const Note& note : *batch) {
    DOMINO_ASSIGN_OR_RETURN(auto outcome, ApplyNote(Note(note)));
    CountPut(outcome.first, outcome.second, note.deleted());
  }
  return Status::Ok();
}

Status NoteStore::Erase(NoteId id) {
  {
    ReaderLock lock(&mu_);
    DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
    if ((entry.flags & kEntryUsed) == 0) {
      return Status::NotFound("note id " + std::to_string(id));
    }
  }
  std::string payload;
  PutVarint64(&payload, 1);
  payload.push_back(static_cast<char>(kOpErase));
  PutFixed32(&payload, id);
  DOMINO_RETURN_IF_ERROR(CommitPayload(payload));
  WriterLock lock(&mu_);
  // Re-read under the exclusive hold; writers are serialized externally,
  // so the entry cannot have changed between the check and here.
  DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
  if ((entry.flags & kEntryUsed) == 0) return Status::Ok();
  ctr_docs_erased_->Add();
  if ((entry.flags & kEntryDeleted) == 0) gauge_notes_->Add(-1);
  return ApplyErase(id, entry);
}

Result<size_t> NoteStore::PurgeStubs(Micros now) {
  // Stub eligibility lives entirely in the id table (deleted flag +
  // sequence time), so the purge scan never faults bucket pages in.
  std::vector<NoteId> victims;
  {
    ReaderLock lock(&mu_);
    const Micros cutoff = now - info_.purge_interval;
    const size_t per_page = EntriesPerPage();
    for (size_t ti = 0; ti < id_table_pages_.size(); ++ti) {
      if (id_table_pages_[ti] == kInvalidPage) continue;
      DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref,
                              pool_->Pin(id_table_pages_[ti]));
      for (size_t i = 0; i < per_page; ++i) {
        const char* p = ref.data() + kPageHeaderSize + i * kIdEntrySize;
        const uint8_t flags = static_cast<uint8_t>(p[22]);
        if ((flags & kEntryUsed) == 0 || (flags & kEntryDeleted) == 0) {
          continue;
        }
        if (static_cast<Micros>(LoadU64(p + 24)) < cutoff) {
          victims.push_back(static_cast<NoteId>(ti * per_page + i + 1));
        }
      }
    }
  }
  for (NoteId id : victims) {
    DOMINO_RETURN_IF_ERROR(Erase(id));
  }
  ctr_stubs_purged_->Add(victims.size());
  return victims.size();
}

Status NoteStore::UpdateInfo(const DatabaseInfo& info) {
  std::string payload;
  PutVarint64(&payload, 1);
  payload.push_back(static_cast<char>(kOpInfo));
  std::string encoded;
  info.EncodeTo(&encoded);
  PutLengthPrefixed(&payload, encoded);
  DOMINO_RETURN_IF_ERROR(CommitPayload(payload));
  WriterLock lock(&mu_);
  info_ = info;
  return Status::Ok();
}

DatabaseInfo NoteStore::info() const {
  ReaderLock lock(&mu_);
  return info_;
}

StoreStats NoteStore::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

CompactStats NoteStore::compact_stats() const {
  ReaderLock lock(&mu_);
  return compact_stats_;
}

// -- Checkpoint ------------------------------------------------------------

Status NoteStore::Fault(std::string_view point) {
  if (options_.checkpoint_fault) return options_.checkpoint_fault(point);
  return Status::Ok();
}

Status NoteStore::Checkpoint() {
  // Exclusive for the whole protocol, fsyncs included: the page images,
  // meta blob and WAL reset must describe one consistent state. Rare and
  // threshold-driven, so readers stalling behind it is acceptable.
  WriterLock lock(&mu_);
  // Drop free pages at the tail of the address space from the geometry
  // now (so the meta we log is already trimmed); the file itself is only
  // truncated after the checkpoint commits — those pages are free in the
  // new state and the old state is gone, so the truncation harms nothing.
  pager_->TrimFreeTail();
  std::string snapshot = EncodePagerSnapshot();

  // 1. One atomic record carrying meta + every dirty page image. Once it
  //    is durable, any torn in-place write below is repairable.
  DOMINO_RETURN_IF_ERROR(options_.shared_log->Commit(
      options_.shared_stream, wal::RecordType::kPagerSnapshot, snapshot));
  DOMINO_RETURN_IF_ERROR(options_.shared_log->SyncAll());
  DOMINO_RETURN_IF_ERROR(Fault("pager:after_log"));

  // 2. Write the dirty pages in place.
  const size_t total_dirty = pool_->dirty_count();
  size_t written = 0;
  DOMINO_RETURN_IF_ERROR(
      pool_->ForEachDirty([&](uint32_t pgno, char* data) -> Status {
        DOMINO_RETURN_IF_ERROR(pager_->WritePage(pgno, data));
        ++written;
        if (written == (total_dirty + 1) / 2) {
          DOMINO_RETURN_IF_ERROR(Fault("pager:mid_pages"));
        }
        return Status::Ok();
      }));
  DOMINO_RETURN_IF_ERROR(pager_->Sync());
  DOMINO_RETURN_IF_ERROR(Fault("pager:after_pages"));

  // 3. Atomically publish the new geometry. Layout: magic + blob +
  //    masked CRC over the blob.
  std::string blob = EncodeMetaBlob();
  std::string meta(kMetaMagic);
  meta.append(blob);
  PutFixed32(&meta, crc32c::Mask(crc32c::Value(blob)));
  DOMINO_RETURN_IF_ERROR(WriteFileAtomic(MetaPath(), meta));
  DOMINO_RETURN_IF_ERROR(Fault("pager:after_meta"));

  // 4. Truncate the WAL obligation. Marker first (recovery skips
  //    everything at or before it), then advance this stream's low-water
  //    mark so segments no stream needs any more are physically dropped.
  DOMINO_RETURN_IF_ERROR(options_.shared_log->Commit(
      options_.shared_stream, wal::RecordType::kCheckpoint, ""));
  DOMINO_RETURN_IF_ERROR(
      options_.shared_log->AdvanceCheckpoint(options_.shared_stream));
  bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
  pool_->MarkAllClean();
  DOMINO_RETURN_IF_ERROR(pager_->TruncateToWatermark());
  {
    MutexLock stats_lock(&stats_mu_);
    stats_.checkpoints++;
  }
  ctr_checkpoints_->Add();
  return Status::Ok();
}

// -- COMPACT ---------------------------------------------------------------

Result<size_t> NoteStore::CompactStep(size_t max_pages) {
  WriterLock lock(&mu_);
  DOMINO_ASSIGN_OR_RETURN(size_t reclaimed, CompactDeadPages(max_pages));
  if (reclaimed > 0) return reclaimed;
  return RelocateTailPages(max_pages);
}

Result<size_t> NoteStore::CompactDeadPages(size_t max_pages) {
  std::vector<uint32_t> candidates;
  for (const auto& [pg, bytes] : free_bytes_) {
    if (pg == fill_page_) continue;
    candidates.push_back(pg);
    if (candidates.size() >= max_pages) break;
  }
  size_t reclaimed = 0;
  uint64_t bytes_reclaimed = 0;
  uint64_t moved = 0;
  for (uint32_t pg : candidates) {
    const uint64_t dead = free_bytes_[pg];
    // Copy out the live slots, then free the husk before re-placing so
    // the allocator may immediately reuse the page. In-memory only —
    // durability comes from the next checkpoint, and a crash before it
    // simply replays the WAL onto the pre-compaction page state.
    std::vector<std::string> live;
    {
      DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(pg));
      const char* data = ref.data();
      if (PageTypeOf(data) != pager::kPageBucket) {
        return Status::Corruption("compact candidate is not a bucket page");
      }
      const uint32_t page_size = pager_->page_size();
      const uint16_t nslots = PageNSlots(data);
      for (uint16_t i = 0; i < nslots; ++i) {
        const uint16_t off = LoadU16(data + DirOffset(page_size, i));
        if (off == kDeadSlot) continue;
        const uint16_t len = LoadU16(data + off);
        live.emplace_back(data + off + 2, len);
      }
    }
    SetFreeBytes(pg, 0);
    pool_->Discard(pg);
    pager_->Free(pg);
    for (const std::string& encoded : live) {
      // An encoded note starts with its fixed32 id.
      const NoteId id = LoadU32(encoded.data());
      DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
      if ((entry.flags & kEntryUsed) == 0 || entry.page != pg) {
        return Status::Corruption("compact: id table disagrees with slot");
      }
      // Never into another mapped page: that page would stay mapped, and
      // a COMPACT run to dry would leave dead bytes behind.
      DOMINO_RETURN_IF_ERROR(
          PlaceSlot(encoded, false, &entry.page, &entry.slot));
      DOMINO_RETURN_IF_ERROR(WriteEntry(id, entry));
      ++moved;
    }
    ++reclaimed;
    bytes_reclaimed += dead;
  }
  if (reclaimed > 0) {
    compact_stats_.runs++;
    compact_stats_.pages_reclaimed += reclaimed;
    compact_stats_.bytes_reclaimed += bytes_reclaimed;
    compact_stats_.notes_moved += moved;
    ctr_compact_runs_->Add();
    ctr_compact_pages_->Add(reclaimed);
    ctr_compact_bytes_->Add(bytes_reclaimed);
    ctr_compact_moved_->Add(moved);
  }
  return reclaimed;
}

Result<size_t> NoteStore::RelocateTailPages(size_t max_pages) {
  // With the free tail trimmed, the last page is in use; while any page
  // is still free, that free page lies below it and the move shrinks
  // the file by at least one page. Like the dead-page pass this only
  // rearranges buffered pages and in-memory geometry.
  size_t relocated = 0;
  pager_->TrimFreeTail();
  for (size_t moves = 0; moves < max_pages && pager_->free_count() > 0;
       ++moves) {
    DOMINO_ASSIGN_OR_RETURN(size_t pages,
                            RelocatePage(pager_->page_count() - 1));
    relocated += pages;
    pager_->TrimFreeTail();
  }
  if (relocated > 0) {
    compact_stats_.pages_relocated += relocated;
    ctr_compact_relocated_->Add(relocated);
  }
  return relocated;
}

Result<size_t> NoteStore::RelocatePage(uint32_t from) {
  const uint32_t page_size = pager_->page_size();
  uint8_t type = pager::kPageFree;
  uint32_t to = kInvalidPage;
  std::vector<NoteId> slot_owners;
  {
    DOMINO_ASSIGN_OR_RETURN(pager::PageRef src, pool_->Pin(from));
    type = PageTypeOf(src.data());
    if (type == pager::kPageIdTable || type == pager::kPageBucket) {
      to = pager_->Allocate();
      pager::PageRef dst = pool_->PinNew(to, type);
      std::memcpy(dst.data(), src.data(), page_size);
      if (type == pager::kPageBucket) {
        // Slot numbers survive the copy; an encoded note starts with its
        // fixed32 id, which names the id-table entry to repoint.
        const char* data = src.data();
        const uint16_t nslots = PageNSlots(data);
        for (uint16_t i = 0; i < nslots; ++i) {
          const uint16_t off = LoadU16(data + DirOffset(page_size, i));
          if (off != kDeadSlot) slot_owners.push_back(LoadU32(data + off + 2));
        }
      }
    }
  }
  switch (type) {
    case pager::kPageIdTable: {
      auto it = std::find(id_table_pages_.begin(), id_table_pages_.end(),
                          from);
      if (it == id_table_pages_.end()) {
        return Status::Corruption("relocate: id-table page not in table");
      }
      *it = to;
      break;
    }
    case pager::kPageBucket: {
      for (NoteId id : slot_owners) {
        DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
        if ((entry.flags & kEntryUsed) == 0 ||
            (entry.flags & kEntryOverflow) != 0 || entry.page != from) {
          return Status::Corruption("relocate: id table disagrees with slot");
        }
        entry.page = to;
        DOMINO_RETURN_IF_ERROR(WriteEntry(id, entry));
      }
      auto free_bytes = free_bytes_.find(from);
      if (free_bytes != free_bytes_.end()) {
        const uint64_t bytes = free_bytes->second;
        SetFreeBytes(from, 0);
        SetFreeBytes(to, bytes);
      }
      if (fill_page_ == from) fill_page_ = to;
      break;
    }
    case pager::kPageOverflow: {
      // A chain page has no back-pointer, so re-place the owner's whole
      // chain: freeing it first lets the allocator hand its pages back
      // lowest-first, and the free page below `from` guarantees `from`
      // itself is not among them.
      DOMINO_ASSIGN_OR_RETURN(NoteId id, OverflowOwner(from));
      DOMINO_ASSIGN_OR_RETURN(IdEntry entry, ReadEntry(id));
      std::string encoded;
      std::vector<uint32_t> chain;
      DOMINO_RETURN_IF_ERROR(ReadOverflowChain(entry.page, &encoded, &chain));
      for (uint32_t pgno : chain) {
        pool_->Discard(pgno);
        pager_->Free(pgno);
      }
      DOMINO_RETURN_IF_ERROR(PlaceNote(encoded, &entry));
      DOMINO_RETURN_IF_ERROR(WriteEntry(id, entry));
      return chain.size();
    }
    default:
      return Status::Corruption("relocate: page " + std::to_string(from) +
                                " has unknown type");
  }
  pool_->Discard(from);
  pager_->Free(from);
  return 1;
}

Result<NoteId> NoteStore::OverflowOwner(uint32_t pgno) const {
  const size_t per_page = EntriesPerPage();
  for (size_t ti = 0; ti < id_table_pages_.size(); ++ti) {
    if (id_table_pages_[ti] == kInvalidPage) continue;
    std::vector<std::pair<NoteId, uint32_t>> heads;
    {
      DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref,
                              pool_->Pin(id_table_pages_[ti]));
      for (size_t i = 0; i < per_page; ++i) {
        const char* p = ref.data() + kPageHeaderSize + i * kIdEntrySize;
        const uint8_t flags = static_cast<uint8_t>(p[22]);
        if ((flags & kEntryUsed) != 0 && (flags & kEntryOverflow) != 0) {
          heads.emplace_back(static_cast<NoteId>(ti * per_page + i + 1),
                             LoadU32(p + 16));
        }
      }
    }
    for (const auto& [id, head] : heads) {
      for (uint32_t p = head; p != kInvalidPage;) {
        if (p == pgno) return id;
        DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(p));
        p = PageNext(ref.data());
      }
    }
  }
  return Status::Corruption("overflow page " + std::to_string(pgno) +
                            " has no owning note");
}

Status NoteStore::MaybeCompact() {
  if (options_.compact_threshold_bytes == 0) return Status::Ok();
  if (dead_bytes() <= options_.compact_threshold_bytes) return Status::Ok();
  WriterLock lock(&mu_);
  return CompactDeadPages(16).status();
}

uint64_t NoteStore::dead_bytes() const {
  ReaderLock lock(&mu_);
  return free_total_;
}

Result<uint64_t> NoteStore::RecountDeadBytes() const {
  ReaderLock lock(&mu_);
  const uint32_t page_size = pager_->page_size();
  uint64_t total = 0;
  for (const auto& [pg, bytes] : free_bytes_) {
    DOMINO_ASSIGN_OR_RETURN(pager::PageRef ref, pool_->Pin(pg));
    if (PageTypeOf(ref.data()) != pager::kPageBucket) {
      return Status::Corruption("free-space map names a non-bucket page");
    }
    total += FreeBytes(ref.data(), page_size);
    if (pg == fill_page_) total -= GapBytes(ref.data(), page_size);
  }
  return total;
}

uint64_t NoteStore::wal_size_bytes() const {
  return bytes_since_checkpoint_.load(std::memory_order_relaxed);
}

uint64_t NoteStore::pages_size_bytes() const {
  auto size = pager_->FileSize();
  return size.ok() ? *size : 0;
}

uint32_t NoteStore::used_pages() const {
  ReaderLock lock(&mu_);
  return pager_->used_count();
}

size_t NoteStore::free_pages() const {
  ReaderLock lock(&mu_);
  return pager_->free_count();
}

}  // namespace dominodb
