// E12 — The background indexer (UPDATE/UPDALL reproduction).
// Claims: (1) full view rebuilds parallelize across a worker pool (UPDALL
// sharding; the full-text build is one serial pass); (2) deferring index
// maintenance to the background UPDATE task takes view + full-text work
// off the writer's critical path, so write latency drops to store cost
// while indexes catch up asynchronously (and deterministically via
// FlushIndexes).
//
// NOTE on speedups: this container may expose a single CPU. The parallel
// path is real (see the TSan-covered tests), but wall-clock speedup
// requires physical cores — on one core the 2/4/8-worker rows show
// coordination overhead instead of speedup. EXPERIMENTS.md records the
// numbers with that caveat.

#include <thread>

#include "bench/bench_util.h"
#include "core/database.h"
#include "indexer/thread_pool.h"
#include "view/view_design.h"

using namespace dominodb;
using namespace dominodb::bench;

namespace {

ViewDesign BenchView() {
  std::vector<ViewColumn> columns;
  ViewColumn category;
  category.title = "Category";
  category.formula_source = "Category";
  category.categorized = true;
  columns.push_back(std::move(category));
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "@UpperCase(Subject)";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  return *ViewDesign::Create("bench", "SELECT Amount > 1000",
                             std::move(columns));
}

}  // namespace

int main() {
  PrintHeader("E12 — background indexer: parallel rebuilds & deferred "
              "maintenance",
              "UPDALL-style view rebuilds shard across a worker pool; the "
              "UPDATE task takes index maintenance off the writer's critical "
              "path");

  const int kDocs = ScaleN(20000, 300);
  BenchDir dir("indexer");
  SimClock clock;
  DatabaseOptions options;
  options.store.checkpoint_threshold_bytes = 1ull << 30;
  auto db = *Database::Open(dir.Sub("db"), options, &clock);
  Rng rng(7);

  Stopwatch load;
  for (int i = 0; i < kDocs; ++i) {
    db->CreateNote(SyntheticDoc(&rng, 300)).ok();
  }
  printf("loaded %d docs in %.0f ms (hw threads: %u)\n\n", kDocs,
         load.ElapsedMillis(), std::thread::hardware_concurrency());

  db->CreateView(BenchView()).ok();
  ViewIndex* view = db->FindView("bench");
  db->EnsureFullTextIndex().ok();

  auto rebuild_view = [&](indexer::ThreadPool* pool) {
    Stopwatch w;
    view->Rebuild(
            [&](const std::function<void(const Note&)>& fn) {
              db->ForEachNote(fn);
            },
            db.get(), pool)
        .ok();
    return w.ElapsedMillis();
  };
  auto rebuild_ft = [&] {
    Stopwatch w;
    const_cast<FullTextIndex*>(db->fulltext())
        ->BuildFrom([&](const std::function<void(const Note&)>& fn) {
          db->ForEachNote(fn);
        });
    return w.ElapsedMillis();
  };

  // -- Full rebuilds: views at 1/2/4/8 workers, full text serial ---------
  printf("full-text build (serial): %.1f ms\n\n", rebuild_ft());
  double view_serial = rebuild_view(nullptr);
  printf("%-10s %-18s %-10s\n", "workers", "view rebuild(ms)", "speedup");
  printf("%-10s %-18.1f %-10s\n", "serial", view_serial, "1.0x");
  for (size_t workers : {1, 2, 4, 8}) {
    indexer::ThreadPool pool(workers);
    double view_ms = rebuild_view(&pool);
    printf("%-10zu %-18.1f %-9.2fx\n", workers, view_ms,
           view_ms > 0 ? view_serial / view_ms : 0);
  }

  // -- Write latency: inline maintenance vs background deferral ----------
  constexpr int kWrites = 2000;
  auto time_writes = [&](const char* label) {
    Stopwatch w;
    for (int i = 0; i < kWrites; ++i) {
      db->CreateNote(SyntheticDoc(&rng, 300)).ok();
    }
    double per_write_us = w.ElapsedMicros() / kWrites;
    printf("%-34s %8.1f us/write\n", label, per_write_us);
    return per_write_us;
  };

  printf("\nwrite latency with a view + full-text index attached "
         "(%d creates):\n", kWrites);
  double inline_us = time_writes("inline (no indexer)");

  indexer::ThreadPool pool(2);
  db->AttachIndexer(&pool);
  double deferred_us = time_writes("deferred (background UPDATE)");
  Stopwatch drain;
  db->FlushIndexes().ok();
  printf("%-34s %8.1f ms (FlushIndexes barrier)\n", "catch-up drain",
         drain.ElapsedMillis());
  printf("writer-visible speedup: %.2fx\n",
         deferred_us > 0 ? inline_us / deferred_us : 0);

  // The queue-depth gauge arms an `Indexer.Threads.QueueDepth >= capacity`
  // warning threshold; report whether this run ever saturated.
  size_t fired = stats::StatRegistry::Global().CheckThresholds(clock.Now());
  printf("threshold events fired (queue saturation watch): %zu\n", fired);

  db->AttachIndexer(nullptr);
  // STATS after the barrier so Indexer.* reflects a fully drained queue.
  dominodb::bench::EmitStatsSnapshot("bench_indexer");
  return 0;
}
