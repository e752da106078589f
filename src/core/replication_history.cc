#include "core/replication_history.h"

#include <algorithm>

namespace dominodb {

Micros ReplicationHistory::CutoffFor(const std::string& peer) const {
  MutexLock lock(&mu_);
  auto it = cutoffs_.find(peer);
  return it == cutoffs_.end() ? 0 : it->second;
}

void ReplicationHistory::Record(const std::string& peer, Micros cutoff) {
  MutexLock lock(&mu_);
  Micros& slot = cutoffs_[peer];
  slot = std::max(slot, cutoff);
}

std::optional<Micros> ReplicationHistory::MinCutoff() const {
  MutexLock lock(&mu_);
  if (cutoffs_.empty()) return std::nullopt;
  Micros min = cutoffs_.begin()->second;
  for (const auto& [peer, cutoff] : cutoffs_) min = std::min(min, cutoff);
  return min;
}

}  // namespace dominodb
