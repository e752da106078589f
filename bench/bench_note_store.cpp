// E1 — Note store CRUD throughput vs document size (google-benchmark).
// The substrate claim: the note store sustains groupware CRUD on
// semi-structured documents of widely varying size.
//
// E16 — Buffer-pool working-set sweep: read latency and cache hit rate
// as the hot set grows from half the pool to 4× the pool (the paged
// store's beyond-RAM claim, BM_WorkingSetSweep below).
//
// E16c — Update churn: the page file after K × N same-size rewrites of
// randomly chosen notes among N (BM_UpdateChurn).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/database.h"
#include "storage/note_store.h"

namespace dominodb {
namespace {

using bench::BenchDir;
using bench::ScaleN;
using bench::SyntheticDoc;

std::unique_ptr<Database> OpenBenchDb(const BenchDir& dir,
                                      const Clock* clock) {
  DatabaseOptions options;
  options.title = "bench";
  options.store.checkpoint_threshold_bytes = 256ull << 20;  // avoid mid-run
  auto db = Database::Open(dir.Sub("db"), options, clock);
  if (!db.ok()) std::abort();
  return std::move(*db);
}

void BM_CreateNote(benchmark::State& state) {
  BenchDir dir("create_" + std::to_string(state.range(0)));
  SimClock clock;
  auto db = OpenBenchDb(dir, &clock);
  Rng rng(1);
  size_t body = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto id = db->CreateNote(SyntheticDoc(&rng, body));
    if (!id.ok()) state.SkipWithError("create failed");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(body));
  state.counters["docs"] = static_cast<double>(db->note_count());
}
BENCHMARK(BM_CreateNote)->Arg(128)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_ReadNote(benchmark::State& state) {
  BenchDir dir("read");
  SimClock clock;
  auto db = OpenBenchDb(dir, &clock);
  Rng rng(2);
  std::vector<NoteId> ids;
  for (int i = 0; i < ScaleN(10000, 300); ++i) {
    ids.push_back(*db->CreateNote(SyntheticDoc(&rng, 512)));
  }
  for (auto _ : state) {
    auto note = db->ReadNote(ids[rng.Uniform(ids.size())]);
    benchmark::DoNotOptimize(note);
  }
}
BENCHMARK(BM_ReadNote);

void BM_UpdateNote(benchmark::State& state) {
  BenchDir dir("update");
  SimClock clock;
  auto db = OpenBenchDb(dir, &clock);
  Rng rng(3);
  std::vector<NoteId> ids;
  for (int i = 0; i < ScaleN(2000, 200); ++i) {
    ids.push_back(*db->CreateNote(SyntheticDoc(&rng, 512)));
  }
  for (auto _ : state) {
    auto note = db->ReadNote(ids[rng.Uniform(ids.size())]);
    note->SetText("Subject", rng.Word(4, 12));
    if (!db->UpdateNote(std::move(*note)).ok()) {
      state.SkipWithError("update failed");
    }
  }
}
BENCHMARK(BM_UpdateNote);

void BM_DeleteAndPurge(benchmark::State& state) {
  BenchDir dir("delete");
  SimClock clock;
  auto db = OpenBenchDb(dir, &clock);
  Rng rng(4);
  for (auto _ : state) {
    state.PauseTiming();
    NoteId id = *db->CreateNote(SyntheticDoc(&rng, 512));
    state.ResumeTiming();
    if (!db->DeleteNote(id).ok()) state.SkipWithError("delete failed");
  }
  state.counters["stubs"] = static_cast<double>(db->stub_count());
}
BENCHMARK(BM_DeleteAndPurge);

// E16: the argument is the working set as a percentage of the buffer
// pool (50 → the hot set fits twice over; 400 → it is 4× the pool and
// most reads must go to disk). The pool is deliberately tiny so the
// sweep exercises real eviction, not the OS page cache.
void BM_WorkingSetSweep(benchmark::State& state) {
  const int ratio_pct = static_cast<int>(state.range(0));
  BenchDir dir("ws_" + std::to_string(ratio_pct));
  stats::StatRegistry registry;
  StoreOptions options;
  options.sync_mode = wal::SyncMode::kNone;
  options.checkpoint_threshold_bytes = 0;  // manual
  options.page_size = 4096;
  options.cache_pages = bench::SmokeMode() ? 16 : 128;
  options.stats = &registry;
  DatabaseInfo info;
  info.replica_id = Unid{0xe16, 1};
  info.title = "e16";
  auto store = NoteStore::Open(dir.Sub("db"), options, info);
  if (!store.ok()) std::abort();
  Rng rng(16);
  // ~3 one-KB documents per 4 KiB page; size the document count so the
  // live data volume is ratio_pct% of the pool.
  const size_t docs =
      options.cache_pages * 3 * static_cast<size_t>(ratio_pct) / 100;
  std::vector<NoteId> ids;
  for (size_t i = 0; i < docs; ++i) {
    Note note = SyntheticDoc(&rng, 900);
    note.StampCreated(Unid{0xe16, i + 2}, static_cast<Micros>(i + 1));
    if (!(*store)->Put(&note).ok()) std::abort();
    ids.push_back(note.id());
  }
  if (!(*store)->Checkpoint().ok()) std::abort();
  const uint64_t hits0 = registry.GetCounter("Store.Cache.Hits").value();
  const uint64_t miss0 = registry.GetCounter("Store.Cache.Misses").value();
  for (auto _ : state) {
    auto note = (*store)->Get(ids[rng.Uniform(ids.size())]);
    if (!note.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(note);
  }
  const uint64_t hits = registry.GetCounter("Store.Cache.Hits").value() - hits0;
  const uint64_t misses =
      registry.GetCounter("Store.Cache.Misses").value() - miss0;
  state.counters["hit_rate"] =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  state.counters["docs"] = static_cast<double>(docs);
  state.counters["pool_pages"] = static_cast<double>(options.cache_pages);
  state.counters["file_mb"] =
      static_cast<double>((*store)->pages_size_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_WorkingSetSweep)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

// E16b: online COMPACT — reclaimed volume and full-sweep cost after a
// bulk purge leaves half the pages dead.
void BM_CompactAfterPurge(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BenchDir dir("compact");
    stats::StatRegistry registry;
    StoreOptions options;
    options.sync_mode = wal::SyncMode::kNone;
    options.checkpoint_threshold_bytes = 0;
    options.page_size = 4096;
    options.cache_pages = bench::SmokeMode() ? 16 : 128;
    options.stats = &registry;
    DatabaseInfo info;
    info.replica_id = Unid{0xe16, 0xb};
    info.title = "e16b";
    auto store = NoteStore::Open(dir.Sub("db"), options, info);
    if (!store.ok()) std::abort();
    Rng rng(17);
    const int docs = ScaleN(2000, 120);
    std::vector<NoteId> ids;
    for (int i = 0; i < docs; ++i) {
      Note note = SyntheticDoc(&rng, 900);
      note.StampCreated(Unid{0xe16, static_cast<uint64_t>(i) + 2},
                        static_cast<Micros>(i + 1));
      if (!(*store)->Put(&note).ok()) std::abort();
      ids.push_back(note.id());
    }
    if (!(*store)->Checkpoint().ok()) std::abort();
    const uint64_t file_before = (*store)->pages_size_bytes();
    for (size_t i = 0; i < ids.size(); i += 2) {
      if (!(*store)->Erase(ids[i]).ok()) std::abort();
    }
    const uint64_t dead = (*store)->dead_bytes();
    state.ResumeTiming();
    for (;;) {
      auto reclaimed = (*store)->CompactStep(16);
      if (!reclaimed.ok()) state.SkipWithError("compact failed");
      if (!reclaimed.ok() || *reclaimed == 0) break;
    }
    state.PauseTiming();
    // The checkpoint is where the file shrinks to its in-use pages.
    if (!(*store)->Checkpoint().ok()) std::abort();
    const CompactStats compact = (*store)->compact_stats();
    constexpr double kMiB = 1024.0 * 1024.0;
    state.counters["dead_mb"] = static_cast<double>(dead) / kMiB;
    state.counters["reclaimed_mb"] =
        static_cast<double>(compact.bytes_reclaimed) / kMiB;
    state.counters["pages_freed"] =
        static_cast<double>(compact.pages_reclaimed);
    state.counters["pages_relocated"] =
        static_cast<double>(compact.pages_relocated);
    state.counters["file_mb_before"] =
        static_cast<double>(file_before) / kMiB;
    state.counters["file_mb_after"] =
        static_cast<double>((*store)->pages_size_bytes()) / kMiB;
    state.ResumeTiming();
  }
}
BENCHMARK(BM_CompactAfterPurge)->Unit(benchmark::kMillisecond);

// E16c: update churn — the page file after K passes of N same-size
// rewrites of randomly chosen notes among N, with no COMPACT. An update
// that goes back onto its own page keeps the file at its loaded size; one
// appended to the fill page leaves a dead slot on a page whose other notes
// keep it alive, so the file grows with every pass.
void BM_UpdateChurn(benchmark::State& state) {
  const int passes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    BenchDir dir("churn_" + std::to_string(passes));
    stats::StatRegistry registry;
    StoreOptions options;
    options.sync_mode = wal::SyncMode::kNone;
    options.checkpoint_threshold_bytes = 0;
    options.compact_threshold_bytes = 0;
    options.page_size = 4096;
    options.stats = &registry;
    DatabaseInfo info;
    info.replica_id = Unid{0xe16, 0xc};
    info.title = "e16c";
    auto store = NoteStore::Open(dir.Sub("db"), options, info);
    if (!store.ok()) std::abort();
    Rng rng(18);
    std::vector<Note> notes;
    for (int i = 0; i < ScaleN(2000, 120); ++i) {
      notes.push_back(SyntheticDoc(&rng, 900));
      notes.back().StampCreated(Unid{0xe16c, static_cast<uint64_t>(i) + 1},
                                static_cast<Micros>(i + 1));
      if (!(*store)->Put(&notes.back()).ok()) std::abort();
    }
    if (!(*store)->Checkpoint().ok()) std::abort();
    const uint64_t file_before = (*store)->pages_size_bytes();
    state.ResumeTiming();
    for (int pass = 0; pass < passes; ++pass) {
      for (size_t i = 0; i < notes.size(); ++i) {
        Note& note = notes[rng.Uniform(notes.size())];
        // Same length, new bytes.
        std::string subject = note.GetText("Subject");
        subject[0] = static_cast<char>('a' + pass % 26);
        note.SetText("Subject", subject);
        if (!(*store)->Put(&note).ok()) state.SkipWithError("put failed");
      }
    }
    state.PauseTiming();
    if (!(*store)->Checkpoint().ok()) std::abort();
    constexpr double kMiB = 1024.0 * 1024.0;
    state.counters["notes"] = static_cast<double>(notes.size());
    state.counters["file_mb_before"] =
        static_cast<double>(file_before) / kMiB;
    state.counters["file_mb_after"] =
        static_cast<double>((*store)->pages_size_bytes()) / kMiB;
    state.counters["dead_mb"] =
        static_cast<double>((*store)->dead_bytes()) / kMiB;
    state.counters["in_place"] = static_cast<double>(
        registry.GetCounter("Store.Place.InPlace").value());
    state.ResumeTiming();
  }
}
BENCHMARK(BM_UpdateChurn)->Arg(1)->Arg(5)->Arg(20)->Unit(
    benchmark::kMillisecond);

void BM_UnidLookup(benchmark::State& state) {
  BenchDir dir("unid");
  SimClock clock;
  auto db = OpenBenchDb(dir, &clock);
  Rng rng(5);
  std::vector<Unid> unids;
  for (int i = 0; i < ScaleN(10000, 300); ++i) {
    NoteId id = *db->CreateNote(SyntheticDoc(&rng, 256));
    unids.push_back(db->ReadNote(id)->unid());
  }
  for (auto _ : state) {
    auto note = db->ReadNoteByUnid(unids[rng.Uniform(unids.size())]);
    benchmark::DoNotOptimize(note);
  }
}
BENCHMARK(BM_UnidLookup);

}  // namespace
}  // namespace dominodb

int main(int argc, char** argv) {
  printf("E1 — note store CRUD throughput (claim: the NSF-style note store "
         "sustains groupware CRUD across document sizes)\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  dominodb::bench::EmitStatsSnapshot("bench_note_store");
  return 0;
}
