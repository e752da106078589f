#include "server/replication_scheduler.h"

#include <map>
#include <utility>

#include "base/hash.h"

namespace dominodb {

std::vector<TopologyLink> HubSpokeTopology(
    const std::vector<std::string>& names) {
  std::vector<TopologyLink> links;
  for (size_t i = 1; i < names.size(); ++i) {
    links.push_back(TopologyLink{names[0], names[i]});
  }
  return links;
}

std::vector<TopologyLink> RingTopology(
    const std::vector<std::string>& names) {
  std::vector<TopologyLink> links;
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    links.push_back(TopologyLink{names[i], names[i + 1]});
  }
  if (names.size() > 2) {
    links.push_back(TopologyLink{names.back(), names.front()});
  }
  return links;
}

std::vector<TopologyLink> MeshTopology(
    const std::vector<std::string>& names) {
  std::vector<TopologyLink> links;
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      links.push_back(TopologyLink{names[i], names[j]});
    }
  }
  return links;
}

namespace {

/// Fingerprint of a note's replicated state.
uint64_t NoteFingerprint(const Note& note) {
  // Exclude per-file bookkeeping (local note id, modified-in-file stamp):
  // only replicated state counts toward convergence.
  Note copy = note;
  copy.set_id(0);
  copy.set_modified_in_file(0);
  std::string encoded = copy.EncodeToString();
  return Fnv1a64(encoded);
}

}  // namespace

bool DatabasesConverged(const std::vector<Database*>& replicas) {
  if (replicas.size() < 2) return true;
  std::map<Unid, uint64_t> reference;
  replicas[0]->ForEachNote([&](const Note& note) {
    reference[note.unid()] = NoteFingerprint(note);
  });
  for (size_t i = 1; i < replicas.size(); ++i) {
    std::map<Unid, uint64_t> other;
    replicas[i]->ForEachNote([&](const Note& note) {
      other[note.unid()] = NoteFingerprint(note);
    });
    if (other != reference) return false;
  }
  return true;
}

Server* ReplicationScheduler::FindServer(const std::string& name) const {
  for (Server* server : servers_) {
    if (server->name() == name) return server;
  }
  return nullptr;
}

Status ReplicationScheduler::SetTopology(
    const std::vector<TopologyLink>& links) {
  std::vector<std::pair<Server*, Server*>> pairs;
  for (const TopologyLink& link : links) {
    Server* a = FindServer(link.a);
    Server* b = FindServer(link.b);
    if (a == nullptr || b == nullptr) {
      return Status::NotFound("unknown server in topology: " + link.a +
                              " / " + link.b);
    }
    pairs.emplace_back(a, b);
  }
  for (auto [a, b] : pairs) {
    DOMINO_RETURN_IF_ERROR(a->AddConnection(*b, file_).status());
  }
  return Status::Ok();
}

repl::SchedulerRunReport ReplicationScheduler::RunAllDue() {
  repl::SchedulerRunReport merged;
  for (Server* server : servers_) {
    Result<repl::SchedulerRunReport> report = server->RunReplicatorDue();
    if (!report.ok()) continue;  // no replicator task on this server
    merged.attempted += report->attempted;
    merged.succeeded += report->succeeded;
    merged.transient_failures += report->transient_failures;
    merged.permanent_failures += report->permanent_failures;
    merged.skipped_waiting += report->skipped_waiting;
    merged.skipped_open += report->skipped_open;
    merged.skipped_dead += report->skipped_dead;
    merged.merged.MergeFrom(report->merged);
  }
  return merged;
}

Result<int> ReplicationScheduler::RunUntilConverged(int max_rounds) {
  for (int round = 1; round <= max_rounds; ++round) {
    RunAllDue();
    if (Converged()) return round;
  }
  std::string message =
      "not converged after " + std::to_string(max_rounds) + " rounds";
  for (Server* server : servers_) {
    const repl::ReplicationScheduler* task = server->replicator();
    for (size_t i = 0; task != nullptr && i < task->connection_count(); ++i) {
      const repl::ConnectionState& state = task->state(i);
      const char* condition =
          state.dead                                      ? "dead"
          : state.circuit != repl::CircuitState::kClosed ? "circuit open"
          : state.consecutive_failures > 0                ? "backing off"
                                                          : nullptr;
      if (condition == nullptr || state.doc.file != file_) continue;
      message += "; " + state.doc.local + " -> " + state.doc.remote + " " +
                 condition + ": " + state.last_error.ToString();
    }
  }
  return Status::FailedPrecondition(message);
}

bool ReplicationScheduler::Converged() const { return DatabasesConverged(Replicas()); }

std::vector<Database*> ReplicationScheduler::Replicas() const {
  std::vector<Database*> replicas;
  for (Server* server : servers_) {
    Database* db = server->FindDatabase(file_);
    if (db != nullptr) replicas.push_back(db);
  }
  return replicas;
}

}  // namespace dominodb
