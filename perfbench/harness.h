// Shared machinery of the repository benchmark: exact latency samples,
// in-memory span tracing, the table of stat names the benchmark reads,
// fleet helpers and the result record each workload fills.

#ifndef DOMINODB_PERFBENCH_HARNESS_H_
#define DOMINODB_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "core/database.h"
#include "stats/stats.h"
#include "view/view_design.h"
#include "wal/shared_log.h"

namespace perfbench {

using dominodb::Status;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for database files (created and removed here).
  std::string data_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_file;
};

/// Monotonic time in microseconds, with sub-microsecond resolution.
inline double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact samples of one latency (no buckets), so percentiles resolve
/// differences far finer than an octave. They live in a buffer allocated
/// and written when the sampler is made, so the benchmark's own memory
/// does not grow with the operations a run completes and peak_rss_mb
/// follows the program alone. Past its capacity a sampler keeps a uniform
/// random subset (reservoir sampling), each kept sample standing for
/// count() / kept ones.
class Samples {
 public:
  static constexpr size_t kCapacity = size_t{1} << 16;

  Samples();
  void Add(double value);
  /// Appends `other`'s samples with their weights. Allocates, so a
  /// workload merges only after reading the clients' peak memory.
  void Merge(const Samples& other);
  /// Samples added here and in every merged sampler.
  uint64_t count() const { return count_; }
  /// Linear interpolation between closest ranks while every sample weighs
  /// the same; weighted nearest rank otherwise. 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<float> values_;  // the reservoir; [0, kept_) is used
  size_t kept_ = 0;
  uint64_t added_ = 0;  // samples offered to the reservoir
  uint64_t count_ = 0;
  uint64_t rng_ = 0x9e3779b97f4a7c15ull;
  std::vector<std::pair<float, double>> merged_;  // value, weight
};

// -- Tracing ----------------------------------------------------------------

/// Turns span recording on or off. Only called while no client thread
/// runs (between phases), so the flag needs no synchronisation beyond
/// thread start and join.
void SetTracing(bool on);

/// Starts a new operation on the calling thread: later spans carry its id.
void BeginOperation();

/// RAII span around one call into a module: name, start, end, the
/// enclosing span on this thread and the operation id. A no-op when
/// tracing is off. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_ = -1;
};

/// Writes every recorded span as one tab-separated line:
/// thread, op id, span index, parent index, name, start_us, end_us.
Status WriteSpans(const std::string& path);

// -- Stats ---------------------------------------------------------------

/// The registry stats the benchmark reads. Names appear only in the table
/// in harness.cc; reading a stat the registry does not hold is an error,
/// so a renamed stat cannot silently read as zero.
enum class Stat {
  kCacheHits,
  kCacheMisses,
  kCacheEvictions,
  kWalCommits,
  kWalSyncs,
  kWalCommittedBytes,
  kIndexerQueueDepth,
  kIndexerTaskMicros,
  kMvccLiveVersions,
  kViewSelectionEvals,
  kViewColumnEvals,
  kFormulaEvals,
  kFormulaCacheHits,
  kFormulaCacheMisses,
  kMailDelivered,
  kMailDead,
  kNetBytes,
  kReplicaReceived,
  kReplicaSummarized,
  kReplicaBytes,
  kReplicaConflicts,
  kFtBytesPerDoc,
  kCompactBytesReclaimed,
};

/// A snapshot of the process registry with checked, name-table lookups.
class StatView {
 public:
  StatView();  // snapshot of the global registry now
  /// Counter value, gauge value or histogram sum, as the stat's kind
  /// dictates. Records an error when the registry lacks the stat.
  double Get(Stat stat) const;
  /// `this - before` for counters and histogram sums.
  double Delta(const StatView& before, Stat stat) const;

 private:
  dominodb::stats::StatSnapshot snapshot_;
};

/// First stat-lookup error (empty when none).
std::string StatError();

// -- Workload plumbing -----------------------------------------------------

/// What one workload run measured.
struct RunResult {
  bool correct = true;
  std::string violation;  // first correctness violation
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Violate(const std::string& detail);
};

/// Thread-safe first-violation recorder shared by client threads.
class Violations {
 public:
  void Record(const std::string& detail);
  bool any() const;
  std::string first() const;

 private:
  mutable std::mutex mu_;
  std::string first_;
  bool any_ = false;
};

/// Per-client tallies, merged after the clients join. `visible` is the
/// time until a change shows where it is going: deposit to delivery on
/// mail, end of a batch to convergence on replication (ms).
struct ClientTally {
  Samples read, view, search, write, visible;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t conflict_retries = 0;
  uint64_t user_bytes = 0;  // note bytes the client wrote
  uint64_t view_rows = 0;
  uint64_t search_hits = 0;

  void Merge(const ClientTally& other);
};

/// Shared-log options every server uses: durable group commit, stated
/// explicitly so a change of the library default cannot change what the
/// benchmark measures.
dominodb::wal::SharedLogOptions GroupCommitLog();
/// Shared-log options of the set-up's bulk load: no sync per commit. The
/// discussion and mail workloads load their seed data through servers with
/// this log, make it durable with one checkpoint per database and restart
/// the servers with GroupCommitLog(), so set-up time follows the program's
/// work rather than the device's flush latency.
dominodb::wal::SharedLogOptions BulkLoadLog();
/// Store options with the sync mode, page and cache sizes, and checkpoint
/// and background-compaction thresholds stated explicitly.
dominodb::StoreOptions ExplicitStore(size_t cache_pages);

/// A view categorized by the Category item, then sorted by Subject.
dominodb::ViewDesign CategoryView(const std::string& name,
                                  const std::string& selection);

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(dominodb::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Seeded vocabulary of distinct lowercase words.
std::vector<std::string> MakeVocabulary(dominodb::Rng* rng, size_t n);

/// Bytes of the database files under `dir`, recursively: note pages and
/// metadata. Servers' shared transaction logs (`txnlog`) are left out;
/// their size follows segment rollover, not the data kept.
uint64_t DatabaseFileBytes(const std::string& dir);
/// Writes out the dirty data of the filesystem holding `dir` (syncfs(2)),
/// so one phase's write-back does not land in the next phase's timings.
void FlushToDisk(const std::string& dir);
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// Fills, per span name, `<name>.calls`, `.self_ms` (duration minus the
/// time covered by child spans), `.p50_us` and `.p99_us` over every span
/// recorded so far.
void FillSpanMetrics(RunResult* result);

/// The timed phase as the workload's slices: `slice(seconds)` runs the
/// clients for that long and returns their merged tallies and the
/// seconds they ran. Untraced, one slice covers the whole phase. Traced,
/// four slices run untraced, traced, traced, untraced, and the ratio of
/// their throughputs gives trace.overhead_frac.
struct Slice {
  ClientTally tally;
  double seconds = 0;
  /// PeakRssMb() when the clients stopped, read before their tallies are
  /// merged so the merge's allocations stay out of it.
  double peak_rss_mb = 0;
};
Slice RunTimedPhase(const Options& options,
                    const std::function<Slice(double seconds)>& slice,
                    RunResult* result);

/// Running maxima of the layer gauges that are levels, not counts.
class GaugePeaks {
 public:
  GaugePeaks();
  void Sample();
  /// Samples every millisecond until `deadline_us`.
  void SampleUntil(double deadline_us);
  /// Current Db.Mvcc.LiveVersions.
  int64_t live_versions() const { return live_versions_->value(); }
  /// Fills mvcc.live_versions_max and indexer.queue_depth_max.
  void Fill(RunResult* result) const;

 private:
  const dominodb::stats::Gauge* live_versions_;
  const dominodb::stats::Gauge* queue_depth_;
  int64_t live_versions_max_ = 0;
  int64_t queue_depth_max_ = 0;
};

/// Fills what every workload reports once its outputs are checked and its
/// databases checkpointed: attempted/failed, client throughput and latency
/// percentiles, disk bytes per live note byte, peak RSS and the shared
/// per-layer ratios (pager, WAL, formula, view maintenance, compaction,
/// indexer) from stat deltas over the timed phase. The layers only some
/// workloads exercise (full text, mail, net, repl, agent) start at 0; the
/// workload that exercises one overwrites it.
void FinishRun(const Slice& phase, const StatView& before,
               const StatView& after, const GaugePeaks& peaks,
               uint64_t live_bytes, const std::string& data_dir,
               RunResult* result);

/// Builds the workload's fleet `repeats` times, each time in a fresh
/// directory under `data_dir`, and records the median build time as
/// setup_s. `teardown` drops the previous fleet (untimed); `build(dir)`
/// makes the next one (timed). The last fleet stays for the timed phase.
Status RepeatSetup(int repeats, const std::string& data_dir,
                   const std::function<void()>& teardown,
                   const std::function<Status(const std::string& dir)>& build,
                   RunResult* result);

/// The workloads.
RunResult RunDiscussion(const Options& options);
RunResult RunMail(const Options& options);
/// `shared_deletes`: clients delete documents of any replica, so two
/// replicas can delete the same one in a round; otherwise each deletes
/// only documents its own replica owns.
RunResult RunReplication(const Options& options, bool shared_deletes);

}  // namespace perfbench

#endif  // DOMINODB_PERFBENCH_HARNESS_H_
