#ifndef DOMINODB_CORE_REPLICATION_HISTORY_H_
#define DOMINODB_CORE_REPLICATION_HISTORY_H_

#include <map>
#include <optional>
#include <string>

#include "base/clock.h"
#include "base/shared_mutex.h"

namespace dominodb {

/// Per-database replication history: for each peer, the cutoff timestamp
/// of the last successful replication. The incremental-replication claim
/// of the paper hangs on this: only notes modified after the cutoff are
/// summarized and shipped.
///
/// The history also protects deletions. PurgeStubs consults MinCutoff()
/// before physically removing a stub: a stub some recorded peer has not
/// yet seen must survive, or that peer's live copy replicates back and
/// silently undoes the delete (the classic resurrection anomaly).
///
/// Thread-safe: the replicator records cutoffs while the purge task (or a
/// concurrent session with another peer) reads them.
class ReplicationHistory {
 public:
  /// 0 when the pair never replicated (full scan).
  Micros CutoffFor(const std::string& peer) const;
  /// Keeps the maximum per peer, so a stale report never rewinds progress.
  void Record(const std::string& peer, Micros cutoff);

  /// The least-caught-up recorded peer's cutoff: every recorded peer has
  /// seen all changes stamped at or below this value. Empty history (the
  /// database never replicated) returns nullopt — no clamp applies.
  std::optional<Micros> MinCutoff() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, Micros> cutoffs_ GUARDED_BY(mu_);
};

}  // namespace dominodb

#endif  // DOMINODB_CORE_REPLICATION_HISTORY_H_
