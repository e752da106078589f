#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "base/env.h"

namespace perfbench {

// -- Samples ---------------------------------------------------------------

Samples::Samples() : values_(kCapacity, 0.0f) {}

void Samples::Add(double value) {
  ++count_;
  ++added_;
  if (kept_ < values_.size()) {
    values_[kept_++] = static_cast<float>(value);
    return;
  }
  // Algorithm R: the new sample replaces a kept one with probability
  // kept / added (xorshift64; the same stream every run).
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  uint64_t slot = rng_ % added_;
  if (slot < kept_) values_[slot] = static_cast<float>(value);
}

void Samples::Merge(const Samples& other) {
  double weight = other.kept_ > 0 ? static_cast<double>(other.added_) /
                                        static_cast<double>(other.kept_)
                                  : 0;
  for (size_t i = 0; i < other.kept_; ++i) {
    merged_.emplace_back(other.values_[i], weight);
  }
  merged_.insert(merged_.end(), other.merged_.begin(), other.merged_.end());
  count_ += other.count_;
}

double Samples::Percentile(double p) const {
  std::vector<std::pair<float, double>> sorted = merged_;
  double weight = kept_ > 0 ? static_cast<double>(added_) /
                                  static_cast<double>(kept_)
                            : 0;
  for (size_t i = 0; i < kept_; ++i) sorted.emplace_back(values_[i], weight);
  if (sorted.empty()) return 0;
  std::sort(sorted.begin(), sorted.end());
  bool uniform = std::all_of(sorted.begin(), sorted.end(), [](const auto& s) {
    return s.second == 1.0;
  });
  if (uniform) {
    double rank = p * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo].first + (sorted[hi].first - sorted[lo].first) * frac;
  }
  double total = 0;
  for (const auto& s : sorted) total += s.second;
  double seen = 0;
  for (const auto& s : sorted) {
    seen += s.second;
    if (seen >= p * total) return s.first;
  }
  return sorted.back().first;
}

namespace {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

Status RepeatSetup(int repeats, const std::string& data_dir,
                   const std::function<void()>& teardown,
                   const std::function<Status(const std::string& dir)>& build,
                   RunResult* result) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    teardown();
    dominodb::RemoveDirRecursively(data_dir + "/setup" + std::to_string(i - 1))
        .ok();
    FlushToDisk(data_dir);
    double start = NowMicros();
    Status status = build(data_dir + "/setup" + std::to_string(i));
    seconds.push_back((NowMicros() - start) / 1e6);
    if (!status.ok()) return status;
  }
  result->metrics["setup_s"] = Median(seconds);
  FlushToDisk(data_dir);
  return Status::Ok();
}

// -- Tracing ---------------------------------------------------------------

namespace {

struct SpanRecord {
  const char* name;
  double start_us;
  double end_us;
  int32_t parent;  // index in the same thread's buffer, -1 for a root
  uint64_t op;
};

struct ThreadSpans {
  uint32_t thread = 0;
  uint64_t op = 0;
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;  // stack of unfinished span indexes
};

bool g_tracing = false;
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadSpans>> g_buffers;  // guarded by mu
uint64_t g_next_op = 0;                                // guarded by mu

ThreadSpans* LocalSpans() {
  thread_local std::shared_ptr<ThreadSpans> local;
  if (local == nullptr) {
    local = std::make_shared<ThreadSpans>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    local->thread = static_cast<uint32_t>(g_buffers.size());
    g_buffers.push_back(local);
  }
  return local.get();
}

}  // namespace

void SetTracing(bool on) { g_tracing = on; }

void BeginOperation() {
  if (!g_tracing) return;
  ThreadSpans* local = LocalSpans();
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  local->op = ++g_next_op;
}

Span::Span(const char* name) {
  if (!g_tracing) return;
  ThreadSpans* local = LocalSpans();
  index_ = static_cast<int32_t>(local->spans.size());
  int32_t parent = local->open.empty() ? -1 : local->open.back();
  local->spans.push_back(SpanRecord{name, NowMicros(), 0, parent, local->op});
  local->open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadSpans* local = LocalSpans();
  local->spans[static_cast<size_t>(index_)].end_us = NowMicros();
  local->open.pop_back();
}

namespace {

struct SpanSummary {
  uint64_t calls = 0;
  double self_ms = 0;
  double p50_us = 0;
  double p99_us = 0;
};

std::map<std::string, SpanSummary> SummarizeSpans() {
  std::map<std::string, Samples> durations;
  std::map<std::string, SpanSummary> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    const std::vector<SpanRecord>& spans = buffer->spans;
    std::vector<double> child_us(spans.size(), 0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) {
        child_us[static_cast<size_t>(span.parent)] +=
            span.end_us - span.start_us;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& span = spans[i];
      double duration = span.end_us - span.start_us;
      SpanSummary& summary = out[span.name];
      summary.calls += 1;
      summary.self_ms += (duration - child_us[i]) / 1000.0;
      durations[span.name].Add(duration);
    }
  }
  for (auto& [name, summary] : out) {
    summary.p50_us = durations[name].Percentile(0.50);
    summary.p99_us = durations[name].Percentile(0.99);
  }
  return out;
}

}  // namespace

Status WriteSpans(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IOError("cannot write " + path);
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::fprintf(file, "thread\top\tspan\tparent\tname\tstart_us\tend_us\n");
  for (const auto& buffer : g_buffers) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& span = buffer->spans[i];
      std::fprintf(file, "%u\t%llu\t%zu\t%d\t%s\t%.3f\t%.3f\n",
                   buffer->thread, static_cast<unsigned long long>(span.op),
                   i, span.parent, span.name,
                   span.start_us, span.end_us);
    }
  }
  return std::fclose(file) == 0 ? Status::Ok()
                                : Status::IOError("cannot close " + path);
}

void FillSpanMetrics(RunResult* result) {
  std::map<std::string, SpanSummary> summaries = SummarizeSpans();
  // The module layers every traced run reports, 0 calls included: a
  // workload that never enters one says so instead of leaving it out.
  for (const char* layer : {"core.pin", "core.read", "view.lookup",
                            "fulltext.search", "core.commit", "indexer.flush",
                            "mail.route", "repl.session", "agent.run"}) {
    summaries.try_emplace(layer);
  }
  for (const auto& [name, summary] : summaries) {
    result->metrics[name + ".calls"] = static_cast<double>(summary.calls);
    result->metrics[name + ".self_ms"] = summary.self_ms;
    result->metrics[name + ".p50_us"] = summary.p50_us;
    result->metrics[name + ".p99_us"] = summary.p99_us;
  }
}

// -- Stats -----------------------------------------------------------------

namespace {

enum class Kind { kCounter, kGauge, kHistogramSum };

struct StatEntry {
  Stat stat;
  const char* name;
  Kind kind;
};

// The one table of registry names the benchmark depends on.
constexpr StatEntry kStatTable[] = {
    {Stat::kCacheHits, "Store.Cache.Hits", Kind::kCounter},
    {Stat::kCacheMisses, "Store.Cache.Misses", Kind::kCounter},
    {Stat::kCacheEvictions, "Store.Cache.Evictions", Kind::kCounter},
    {Stat::kWalCommits, "Server.WAL.Commits", Kind::kCounter},
    {Stat::kWalSyncs, "Server.WAL.Syncs", Kind::kCounter},
    {Stat::kWalCommittedBytes, "Server.WAL.CommittedBytes", Kind::kCounter},
    {Stat::kIndexerQueueDepth, "Indexer.Queue.Depth", Kind::kGauge},
    {Stat::kIndexerTaskMicros, "Indexer.Threads.TaskMicros",
     Kind::kHistogramSum},
    {Stat::kMvccLiveVersions, "Db.Mvcc.LiveVersions", Kind::kGauge},
    {Stat::kViewSelectionEvals, "Database.View.SelectionEvals",
     Kind::kCounter},
    {Stat::kViewColumnEvals, "Database.View.ColumnEvals", Kind::kCounter},
    {Stat::kFormulaEvals, "Formula.Evals", Kind::kCounter},
    {Stat::kFormulaCacheHits, "Formula.CacheHits", Kind::kCounter},
    {Stat::kFormulaCacheMisses, "Formula.CacheMisses", Kind::kCounter},
    {Stat::kMailDelivered, "Mail.Delivered", Kind::kCounter},
    {Stat::kMailDead, "Mail.Dead", Kind::kCounter},
    {Stat::kNetBytes, "Net.Bytes", Kind::kCounter},
    {Stat::kReplicaReceived, "Replica.Docs.Received", Kind::kCounter},
    {Stat::kReplicaSummarized, "Replica.Docs.Summarized", Kind::kCounter},
    {Stat::kReplicaBytes, "Replica.Bytes.Transferred", Kind::kCounter},
    {Stat::kReplicaConflicts, "Replica.Docs.Conflicts", Kind::kCounter},
    {Stat::kFtBytesPerDoc, "Ft.Index.BytesPerDoc", Kind::kGauge},
    {Stat::kCompactBytesReclaimed, "Store.Compact.BytesReclaimed",
     Kind::kCounter},
};

const StatEntry& EntryFor(Stat stat) {
  for (const StatEntry& entry : kStatTable) {
    if (entry.stat == stat) return entry;
  }
  std::fprintf(stderr, "perfbench: stat %d missing from the name table\n",
               static_cast<int>(stat));
  std::abort();
}

std::mutex g_stat_error_mu;
std::string g_stat_error;  // guarded by g_stat_error_mu

void RecordStatError(const std::string& detail) {
  std::lock_guard<std::mutex> lock(g_stat_error_mu);
  if (g_stat_error.empty()) g_stat_error = detail;
}

const char* StatName(Stat stat) { return EntryFor(stat).name; }

}  // namespace

std::string StatError() {
  std::lock_guard<std::mutex> lock(g_stat_error_mu);
  return g_stat_error;
}

StatView::StatView()
    : snapshot_(dominodb::stats::StatRegistry::Global().Snapshot()) {}

double StatView::Get(Stat stat) const {
  const StatEntry& entry = EntryFor(stat);
  switch (entry.kind) {
    case Kind::kCounter: {
      auto it = snapshot_.counters.find(entry.name);
      if (it != snapshot_.counters.end()) {
        return static_cast<double>(it->second);
      }
      break;
    }
    case Kind::kGauge: {
      auto it = snapshot_.gauges.find(entry.name);
      if (it != snapshot_.gauges.end()) {
        return static_cast<double>(it->second);
      }
      break;
    }
    case Kind::kHistogramSum: {
      auto it = snapshot_.histograms.find(entry.name);
      if (it != snapshot_.histograms.end()) {
        return static_cast<double>(it->second.sum);
      }
      break;
    }
  }
  RecordStatError(std::string("stat not registered: ") + entry.name);
  return 0;
}

namespace {

// Live gauge for sampling during a phase. When the registry lacks it,
// records an error and returns a gauge that stays 0.
const dominodb::stats::Gauge* LiveGauge(Stat stat) {
  const dominodb::stats::Gauge* gauge =
      dominodb::stats::StatRegistry::Global().FindGauge(StatName(stat));
  if (gauge == nullptr) {
    RecordStatError(std::string("gauge not registered: ") + StatName(stat));
    static const dominodb::stats::Gauge kMissing;
    return &kMissing;
  }
  return gauge;
}

}  // namespace

double StatView::Delta(const StatView& before, Stat stat) const {
  return Get(stat) - before.Get(stat);
}

// -- Results ---------------------------------------------------------------

void RunResult::Violate(const std::string& detail) {
  if (correct) violation = detail;
  correct = false;
}

void Violations::Record(const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!any_) first_ = detail;
  any_ = true;
}

bool Violations::any() const {
  std::lock_guard<std::mutex> lock(mu_);
  return any_;
}

std::string Violations::first() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

void ClientTally::Merge(const ClientTally& other) {
  read.Merge(other.read);
  view.Merge(other.view);
  search.Merge(other.search);
  write.Merge(other.write);
  visible.Merge(other.visible);
  ops += other.ops;
  failed += other.failed;
  conflict_retries += other.conflict_retries;
  user_bytes += other.user_bytes;
  view_rows += other.view_rows;
  search_hits += other.search_hits;
}

namespace {

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

}  // namespace

void FinishRun(const Slice& phase, const StatView& before,
               const StatView& after, const GaugePeaks& peaks,
               uint64_t live_bytes, const std::string& data_dir,
               RunResult* result) {
  const ClientTally& tally = phase.tally;
  auto& m = result->metrics;
  result->attempted = tally.ops;
  result->failed = tally.failed;

  m["ops_per_s"] = Ratio(static_cast<double>(tally.ops), phase.seconds);
  m["read_p50_us"] = tally.read.Percentile(0.50);
  m["read_p99_us"] = tally.read.Percentile(0.99);
  m["view_p50_us"] = tally.view.Percentile(0.50);
  m["view_p99_us"] = tally.view.Percentile(0.99);
  m["search_p50_us"] = tally.search.Percentile(0.50);
  m["search_p99_us"] = tally.search.Percentile(0.99);
  m["write_p50_us"] = tally.write.Percentile(0.50);
  m["write_p99_us"] = tally.write.Percentile(0.99);
  m["op_fail_frac"] =
      Ratio(static_cast<double>(tally.failed), static_cast<double>(tally.ops));
  m["disk_bytes_per_user_byte"] = Ratio(
      static_cast<double>(DatabaseFileBytes(data_dir)),
      static_cast<double>(live_bytes));
  m["peak_rss_mb"] = phase.peak_rss_mb;

  double hits = after.Delta(before, Stat::kCacheHits);
  double misses = after.Delta(before, Stat::kCacheMisses);
  double ops = static_cast<double>(tally.ops);
  m["pager.hit_rate"] = Ratio(hits, hits + misses);
  m["pager.evictions_per_op"] =
      Ratio(after.Delta(before, Stat::kCacheEvictions), ops);
  m["wal.commits_per_sync"] = Ratio(after.Delta(before, Stat::kWalCommits),
                                    after.Delta(before, Stat::kWalSyncs));
  m["wal.bytes_per_user_byte"] =
      Ratio(after.Delta(before, Stat::kWalCommittedBytes),
            static_cast<double>(tally.user_bytes));
  m["storage.compact_reclaimed_bytes"] =
      after.Delta(before, Stat::kCompactBytesReclaimed);
  m["indexer.task_ms"] = after.Delta(before, Stat::kIndexerTaskMicros) / 1e3;
  m["formula.evals_per_op"] =
      Ratio(after.Delta(before, Stat::kFormulaEvals), ops);
  double cache_hits = after.Delta(before, Stat::kFormulaCacheHits);
  m["formula.cache_hit_rate"] = Ratio(
      cache_hits, cache_hits + after.Delta(before, Stat::kFormulaCacheMisses));
  m["view.evals_per_write"] =
      Ratio(after.Delta(before, Stat::kViewSelectionEvals) +
                after.Delta(before, Stat::kViewColumnEvals),
            static_cast<double>(tally.write.count()));
  m["view.rows_per_lookup"] = Ratio(static_cast<double>(tally.view_rows),
                                    static_cast<double>(tally.view.count()));
  m["fulltext.hits_per_query"] =
      Ratio(static_cast<double>(tally.search_hits),
            static_cast<double>(tally.search.count()));
  m["core.conflict_retries"] = static_cast<double>(tally.conflict_retries);
  peaks.Fill(result);
  for (const char* name :
       {"fulltext.bytes_per_doc", "mail_delivery_p50_ms",
        "mail_delivery_p99_ms", "mail.copies_per_pass",
        "mail.mailbox_depth_max", "net.bytes_per_copy", "converge_p50_ms",
        "converge_p90_ms", "repl.received_per_changed",
        "repl.summarized_per_received", "repl.bytes_per_changed_note",
        "repl.conflict_docs", "agent.scanned_per_selected"}) {
    m.try_emplace(name, 0.0);
  }
}

Slice RunTimedPhase(const Options& options,
                    const std::function<Slice(double seconds)>& slice,
                    RunResult* result) {
  if (!options.trace) {
    SetTracing(false);
    return slice(options.seconds);
  }
  // Untraced, traced, traced, untraced: a workload that slows as its
  // database grows weighs on both sides alike.
  Slice total;
  Slice plain, traced;
  for (int i = 0; i < 4; ++i) {
    bool tracing = i == 1 || i == 2;
    SetTracing(tracing);
    Slice part = slice(options.seconds / 4);
    Slice& side = tracing ? traced : plain;
    side.seconds += part.seconds;
    side.tally.ops += part.tally.ops;
    total.seconds += part.seconds;
    total.peak_rss_mb = std::max(total.peak_rss_mb, part.peak_rss_mb);
    total.tally.Merge(part.tally);
  }
  SetTracing(false);
  double plain_rate = Ratio(static_cast<double>(plain.tally.ops), plain.seconds);
  double traced_rate =
      Ratio(static_cast<double>(traced.tally.ops), traced.seconds);
  result->metrics["trace.overhead_frac"] =
      plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0;
  FillSpanMetrics(result);
  return total;
}

// -- Configuration helpers ---------------------------------------------------

dominodb::wal::SharedLogOptions GroupCommitLog() {
  dominodb::wal::SharedLogOptions options;
  options.sync_mode = dominodb::wal::SyncMode::kGroupCommit;
  options.max_wait_micros = 0;
  return options;
}

dominodb::wal::SharedLogOptions BulkLoadLog() {
  dominodb::wal::SharedLogOptions options;
  options.sync_mode = dominodb::wal::SyncMode::kNone;
  options.max_wait_micros = 0;
  return options;
}

dominodb::StoreOptions ExplicitStore(size_t cache_pages) {
  dominodb::StoreOptions store;
  // Governs only a private log; every server here logs through its
  // group-commit shared log, whose mode GroupCommitLog() fixes.
  store.sync_mode = dominodb::wal::SyncMode::kGroupCommit;
  store.page_size = 4096;
  store.cache_pages = cache_pages;
  store.checkpoint_threshold_bytes = 16ull << 20;
  store.compact_threshold_bytes = 8ull << 20;
  return store;
}

dominodb::ViewDesign CategoryView(const std::string& name,
                                  const std::string& selection) {
  std::vector<dominodb::ViewColumn> columns(2);
  columns[0].title = "Category";
  columns[0].formula_source = "Category";
  columns[0].sort = dominodb::ColumnSort::kAscending;
  columns[0].categorized = true;
  columns[1].title = "Subject";
  columns[1].formula_source = "Subject";
  columns[1].sort = dominodb::ColumnSort::kAscending;
  return *dominodb::ViewDesign::Create(name, selection, std::move(columns));
}

Zipf::Zipf(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t rank = 1; rank <= n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(dominodb::Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<std::string> MakeVocabulary(dominodb::Rng* rng, size_t n) {
  std::set<std::string> seen;
  std::vector<std::string> words;
  while (words.size() < n) {
    std::string word = rng->Word(4, 9);
    if (seen.insert(word).second) words.push_back(std::move(word));
  }
  return words;
}

uint64_t DatabaseFileBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_directory(ec) && it->path().filename() == "txnlog") {
      it.disable_recursion_pending();
    } else if (it->is_regular_file(ec)) {
      total += it->file_size(ec);
    }
  }
  return total;
}

void FlushToDisk(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

GaugePeaks::GaugePeaks()
    : live_versions_(LiveGauge(Stat::kMvccLiveVersions)),
      queue_depth_(LiveGauge(Stat::kIndexerQueueDepth)) {}

void GaugePeaks::Sample() {
  live_versions_max_ = std::max(live_versions_max_, live_versions_->value());
  queue_depth_max_ = std::max(queue_depth_max_, queue_depth_->value());
}

void GaugePeaks::SampleUntil(double deadline_us) {
  while (NowMicros() < deadline_us) {
    Sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void GaugePeaks::Fill(RunResult* result) const {
  result->metrics["mvcc.live_versions_max"] =
      static_cast<double>(live_versions_max_);
  result->metrics["indexer.queue_depth_max"] =
      static_cast<double>(queue_depth_max_);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
