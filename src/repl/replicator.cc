#include "repl/replicator.h"

#include "base/hash.h"
#include "base/string_util.h"

namespace dominodb {

namespace {

/// Approximate wire size of one OID in the change summary.
constexpr uint64_t kSummaryEntryBytes = 28;
constexpr uint64_t kHandshakeBytes = 64;

/// Deterministic conflict-document UNID derived from the losing version,
/// so every replica that detects the same conflict materializes the same
/// conflict note and the system still converges.
Unid ConflictUnidFor(const Note& loser) {
  std::string seed = loser.unid().ToString();
  seed += ':';
  seed += std::to_string(loser.sequence());
  seed += ':';
  seed += std::to_string(loser.sequence_time());
  return Unid{Fnv1a64(seed, 0xC0FFEE), Fnv1a64(seed, 0xBEEF)};
}

/// Builds the conflict document: the losing version's items demoted to a
/// response of the winner, flagged with $Conflict (the Notes
/// "Replication or Save Conflict" document).
Note MakeConflictNote(const Note& loser, const Unid& winner_unid,
                      Micros stamp) {
  Note conflict(NoteClass::kDocument);
  for (const Item& item : loser.items()) {
    conflict.SetItem(item.name, item.value, item.flags);
  }
  conflict.SetText("$Conflict", "Replication or Save Conflict");
  conflict.set_parent_unid(winner_unid);
  conflict.SetReplicationState(Oid{ConflictUnidFor(loser), 1, stamp}, {},
                               loser.created(), false);
  return conflict;
}

/// Winner of a true conflict: higher sequence number; ties break toward
/// the later sequence time (Notes' rule).
bool RemoteWins(const Note& local, const Note& remote) {
  if (remote.sequence() != local.sequence()) {
    return remote.sequence() > local.sequence();
  }
  return remote.sequence_time() > local.sequence_time();
}

}  // namespace

void ReplicationReport::MergeFrom(const ReplicationReport& other) {
  summarized += other.summarized;
  pulled += other.pulled;
  pushed += other.pushed;
  deletions_applied += other.deletions_applied;
  conflicts += other.conflicts;
  merges += other.merges;
  skipped_unchanged += other.skipped_unchanged;
  skipped_by_formula += other.skipped_by_formula;
  apply_failures += other.apply_failures;
  bytes_transferred += other.bytes_transferred;
  messages += other.messages;
}

std::optional<Note> TryMergeNotes(const Note& local, const Note& remote,
                                  Micros stamp) {
  Micros ancestor = Note::LatestCommonRevision(local, remote);
  if (ancestor == 0) return std::nullopt;  // no common version in history
  const Note& winner = RemoteWins(local, remote) ? remote : local;
  const Note& loser = RemoteWins(local, remote) ? local : remote;

  // Overlap check: an item both sides changed since the common ancestor,
  // to different values, cannot be merged.
  for (const Item& item : loser.items()) {
    if (item.modified <= ancestor) continue;
    const Item* w = winner.FindItem(item.name);
    if (w != nullptr && w->modified > ancestor && !(*w == item)) {
      return std::nullopt;
    }
  }

  Note merged = winner;
  merged.set_id(kInvalidNoteId);
  for (const Item& item : loser.items()) {
    if (item.modified <= ancestor) continue;
    const Item* w = merged.FindItem(item.name);
    if (w == nullptr || w->modified <= ancestor) {
      // Take the loser's edit, preserving its per-item stamp so future
      // merges still know who changed what.
      merged.SetItem(item.name, item.value, item.flags);
      for (Item& slot : merged.mutable_items()) {
        if (EqualsIgnoreCase(slot.name, item.name)) {
          slot.modified = item.modified;
          break;
        }
      }
    }
  }

  // The merged version descends from *both* inputs: union the revision
  // histories (including both current sequence times) so either side
  // accepts it as a clean successor.
  std::vector<Micros> revisions = local.revisions();
  revisions.push_back(local.sequence_time());
  for (Micros t : remote.revisions()) revisions.push_back(t);
  revisions.push_back(remote.sequence_time());
  std::sort(revisions.begin(), revisions.end());
  revisions.erase(std::unique(revisions.begin(), revisions.end()),
                  revisions.end());
  if (revisions.size() > Note::kMaxRevisions) {
    revisions.erase(revisions.begin(),
                    revisions.begin() +
                        (revisions.size() - Note::kMaxRevisions));
  }
  uint32_t seq = std::max(local.sequence(), remote.sequence()) + 1;
  if (stamp <= revisions.back()) stamp = revisions.back() + 1;
  merged.SetReplicationState(Oid{winner.unid(), seq, stamp},
                             std::move(revisions), winner.created(), false);
  return merged;
}

Result<bool> ApplyRemoteChange(Database* db, const Note& remote,
                               ReplicationReport* report,
                               bool merge_fields) {
  auto local_result = db->GetAnyByUnid(remote.unid());
  if (!local_result.ok()) {
    if (!local_result.status().IsNotFound()) return local_result.status();
    // Never seen: install verbatim. Stubs are installed too, so a replica
    // that never held the note still remembers the deletion.
    DOMINO_RETURN_IF_ERROR(db->InstallRemoteNote(remote));
    report->pulled += 1;
    return true;
  }
  const Note local = std::move(*local_result);

  OidRelation rel = CompareOids(local.oid(), remote.oid());
  // Refine dominance with the $Revisions ancestry check: a higher
  // sequence number only wins cleanly if that lineage includes the other
  // side's current version.
  if (rel == OidRelation::kRemoteNewer &&
      !remote.HasRevision(local.sequence_time())) {
    rel = OidRelation::kConflict;
  }
  if (rel == OidRelation::kLocalNewer &&
      !local.HasRevision(remote.sequence_time())) {
    rel = OidRelation::kConflict;
  }

  // Split-brain repair: identical OIDs should mean identical notes.
  // Replica-distinct stamps make collisions (two replicas stamping the
  // same version id for different edits) essentially impossible, but if
  // one ever occurs, repair it deterministically instead of diverging
  // silently: both sides keep the byte-wise greater content as the winner
  // and preserve the other as a conflict document.
  if (rel == OidRelation::kEqual && !local.EqualsContent(remote)) {
    Note lc = local;
    lc.set_id(0);
    lc.set_modified_in_file(0);
    Note rc = remote;
    rc.set_id(0);
    rc.set_modified_in_file(0);
    bool remote_wins = rc.EncodeToString() > lc.EncodeToString();
    const Note& loser = remote_wins ? local : remote;
    Micros stamp = db->clock() != nullptr ? db->clock()->Now() : 0;
    Note conflict = MakeConflictNote(loser, local.unid(), stamp);
    bool changed = false;
    if (!db->GetAnyByUnid(conflict.unid()).ok()) {
      DOMINO_RETURN_IF_ERROR(db->InstallRemoteNote(conflict));
      report->conflicts += 1;
      changed = true;
    }
    if (remote_wins) {
      DOMINO_RETURN_IF_ERROR(db->InstallRemoteNote(remote));
      report->pulled += 1;
      changed = true;
    }
    return changed;
  }

  switch (rel) {
    case OidRelation::kEqual:
      report->skipped_unchanged += 1;
      return false;
    case OidRelation::kLocalNewer:
      report->skipped_unchanged += 1;
      return false;
    case OidRelation::kRemoteNewer:
      if (remote.deleted() && !local.deleted()) {
        report->deletions_applied += 1;
      }
      DOMINO_RETURN_IF_ERROR(db->InstallRemoteNote(remote));
      report->pulled += 1;
      return true;
    case OidRelation::kConflict:
      break;
  }

  // Identical independent writes (e.g. both replicas generated the same
  // conflict document) converge without a new conflict: adopt the version
  // with the smaller sequence time deterministically.
  if (local.sequence() == remote.sequence() && local.EqualsContent(remote)) {
    if (remote.sequence_time() < local.sequence_time()) {
      DOMINO_RETURN_IF_ERROR(db->InstallRemoteNote(remote));
      report->pulled += 1;
      return true;
    }
    report->skipped_unchanged += 1;
    return false;
  }

  // Deletion wins over concurrent edits (no conflict document is made
  // from or for a deletion stub). Two independent deletions keep the
  // stub the conflict rule picks, so both replicas end on the same one.
  if (local.deleted() || remote.deleted()) {
    if (remote.deleted() && (!local.deleted() || RemoteWins(local, remote))) {
      DOMINO_RETURN_IF_ERROR(db->InstallRemoteNote(remote));
      if (!local.deleted()) report->deletions_applied += 1;
      report->pulled += 1;
      return true;
    }
    report->skipped_unchanged += 1;
    return false;
  }

  // Field-level merge, when enabled: disjoint concurrent edits combine
  // into one version and no conflict document is needed.
  if (merge_fields) {
    Micros merge_stamp = db->clock() != nullptr ? db->clock()->Now() : 0;
    std::optional<Note> merged = TryMergeNotes(local, remote, merge_stamp);
    if (merged.has_value()) {
      DOMINO_RETURN_IF_ERROR(db->InstallRemoteNote(std::move(*merged)));
      report->merges += 1;
      report->pulled += 1;
      return true;
    }
  }

  // True conflict: winner keeps the UNID, loser becomes a $Conflict
  // response of the winner.
  const Note& winner = RemoteWins(local, remote) ? remote : local;
  const Note& loser = RemoteWins(local, remote) ? local : remote;
  Micros stamp = db->clock() != nullptr ? db->clock()->Now() : 0;
  Note conflict = MakeConflictNote(loser, winner.unid(), stamp);
  bool changed = false;
  if (!db->GetAnyByUnid(conflict.unid()).ok()) {
    DOMINO_RETURN_IF_ERROR(db->InstallRemoteNote(conflict));
    report->conflicts += 1;
    changed = true;
  }
  if (&winner == &remote) {
    DOMINO_RETURN_IF_ERROR(db->InstallRemoteNote(remote));
    report->pulled += 1;
    changed = true;
  }
  return changed;
}

Replicator::Replicator(SimNet* net, stats::StatRegistry* stats)
    : net_(net),
      registry_(stats != nullptr ? stats : &stats::StatRegistry::Global()) {
  stats::StatRegistry& reg = *registry_;
  ctr_sessions_completed_ = &reg.GetCounter("Replica.Sessions.Completed");
  ctr_sessions_failed_ = &reg.GetCounter("Replica.Sessions.Failed");
  ctr_docs_summarized_ = &reg.GetCounter("Replica.Docs.Summarized");
  ctr_docs_received_ = &reg.GetCounter("Replica.Docs.Received");
  ctr_docs_sent_ = &reg.GetCounter("Replica.Docs.Sent");
  ctr_docs_deleted_ = &reg.GetCounter("Replica.Docs.Deleted");
  ctr_docs_conflicts_ = &reg.GetCounter("Replica.Docs.Conflicts");
  ctr_docs_merged_ = &reg.GetCounter("Replica.Docs.Merged");
  ctr_docs_skipped_ = &reg.GetCounter("Replica.Docs.Skipped");
  ctr_docs_filtered_ = &reg.GetCounter("Replica.Docs.Filtered");
  ctr_bytes_ = &reg.GetCounter("Replica.Bytes.Transferred");
  ctr_messages_ = &reg.GetCounter("Replica.Messages");
}

void Replicator::RecordSession(const ReplicationReport& report) {
  ctr_docs_summarized_->Add(report.summarized);
  ctr_docs_received_->Add(report.pulled);
  ctr_docs_sent_->Add(report.pushed);
  ctr_docs_deleted_->Add(report.deletions_applied);
  ctr_docs_conflicts_->Add(report.conflicts);
  ctr_docs_merged_->Add(report.merges);
  ctr_docs_skipped_->Add(report.skipped_unchanged);
  ctr_docs_filtered_->Add(report.skipped_by_formula);
  ctr_bytes_->Add(report.bytes_transferred);
  ctr_messages_->Add(report.messages);
}

Status Replicator::Charge(const std::string& from, const std::string& to,
                          uint64_t bytes, ReplicationReport* report) {
  report->messages += 1;
  report->bytes_transferred += bytes;
  if (net_ != nullptr) {
    return net_->Transfer(from, to, bytes);
  }
  return Status::Ok();
}

Status Replicator::Pull(const ReplicaEndpoint& dst,
                        const ReplicaEndpoint& src,
                        const ReplicationOptions& options,
                        bool count_as_pull, ReplicationReport* report) {
  formula::Formula selective;
  if (!options.selective_formula.empty()) {
    DOMINO_ASSIGN_OR_RETURN(selective,
                            formula::Formula::Compile(
                                options.selective_formula));
  }
  const bool track_progress = options.use_history && dst.history != nullptr;
  Micros cutoff = track_progress ? dst.history->CutoffFor(src.name) : 0;

  // 1. Request + receive the change summary (OIDs newer than the cutoff),
  //    ordered by the source's modified-in-file stamps so any processed
  //    prefix is a valid resumption point.
  std::vector<Database::Change> summary = src.db->ChangeSummarySince(cutoff);
  ReplicationReport local;
  DOMINO_RETURN_IF_ERROR(Charge(dst.name, src.name, 32, &local));
  DOMINO_RETURN_IF_ERROR(Charge(src.name, dst.name,
                                kSummaryEntryBytes * summary.size() + 16,
                                &local));
  local.summarized += summary.size();

  // 2. Decide per note; fetch bodies only for versions we may need. After
  //    every complete batch the low-water cutoff advances into the
  //    history, so a mid-session link failure keeps the progress made and
  //    a retry ships only the remainder.
  const size_t batch_size =
      options.batch_size == 0 ? summary.size() + 1 : options.batch_size;
  size_t in_batch = 0;
  Micros low_water = 0;
  auto commit_progress = [&]() {
    if (track_progress && low_water > 0) {
      dst.history->Record(src.name, low_water);
    }
  };
  for (const Database::Change& change : summary) {
    const Oid& oid = change.oid;
    bool skipped = false;
    auto mine = dst.db->GetAnyByUnid(oid.unid);
    if (mine.ok()) {
      OidRelation rel = CompareOids(mine->oid(), oid);
      if (rel == OidRelation::kEqual || rel == OidRelation::kLocalNewer) {
        // Cheap dominance check on the summary alone; ancestry-uncertain
        // kLocalNewer cases still need the body, so only skip when our
        // lineage provably includes the remote version.
        if (rel == OidRelation::kEqual ||
            mine->HasRevision(oid.sequence_time)) {
          local.skipped_unchanged += 1;
          skipped = true;
        }
      }
    }
    if (!skipped) {
      auto remote_note = src.db->GetAnyByUnid(oid.unid);
      if (!remote_note.ok()) {
        // Purged mid-session; nothing to move.
      } else {
        bool wanted = true;
        if (selective.valid() && !remote_note->deleted()) {
          formula::EvalContext ctx;
          ctx.note = &*remote_note;
          ctx.clock = dst.db->clock();
          auto matched = selective.Matches(ctx);
          if (!matched.ok() || !*matched) {
            local.skipped_by_formula += 1;
            wanted = false;
          }
        }
        if (wanted) {
          std::string encoded = remote_note->EncodeToString();
          Status charged =
              Charge(src.name, dst.name, encoded.size() + 8, &local);
          if (!charged.ok()) {
            // The link died mid-session: keep the progress made so far.
            commit_progress();
            return charged;
          }
          auto applied = ApplyRemoteChange(dst.db, *remote_note, &local,
                                           options.merge_conflicts);
          if (!applied.ok()) {
            commit_progress();
            return applied.status();
          }
        }
      }
    }
    low_water = change.stamp;
    if (++in_batch >= batch_size) {
      commit_progress();
      in_batch = 0;
    }
  }
  commit_progress();

  if (!count_as_pull) {
    local.pushed = local.pulled;
    local.pulled = 0;
  }
  report->MergeFrom(local);
  return Status::Ok();
}

Result<ReplicationReport> Replicator::Replicate(
    const ReplicaEndpoint& local, const ReplicaEndpoint& remote,
    const ReplicationOptions& options) {
  Result<ReplicationReport> result = RunSession(local, remote, options);
  if (result.ok()) {
    ctr_sessions_completed_->Add();
    RecordSession(*result);
  } else {
    ctr_sessions_failed_->Add();
    Micros now =
        local.db != nullptr && local.db->clock() != nullptr
            ? local.db->clock()->Now()
            : 0;
    registry_->events().Log(stats::Severity::kFailure, "Replica",
                            "replication " + local.name + " <-> " +
                                remote.name + " failed: " +
                                result.status().message(),
                            now);
  }
  return result;
}

Result<ReplicationReport> Replicator::RunSession(
    const ReplicaEndpoint& local, const ReplicaEndpoint& remote,
    const ReplicationOptions& options) {
  if (local.db == nullptr || remote.db == nullptr) {
    return Status::InvalidArgument("replication endpoint has no database");
  }
  if (local.db->replica_id() != remote.db->replica_id()) {
    return Status::InvalidArgument(
        "databases are not replicas (replica ids differ): " +
        local.db->replica_id().ToString() + " vs " +
        remote.db->replica_id().ToString());
  }
  ReplicationReport report;
  DOMINO_RETURN_IF_ERROR(
      Charge(local.name, remote.name, kHandshakeBytes, &report));

  if (options.pull) {
    DOMINO_RETURN_IF_ERROR(
        Pull(local, remote, options, /*count_as_pull=*/true, &report));
  }
  if (options.push) {
    DOMINO_RETURN_IF_ERROR(
        Pull(remote, local, options, /*count_as_pull=*/false, &report));
  }
  // Record post-session cutoffs: each side has now seen everything the
  // other wrote up to its final stamp (including notes installed during
  // this very session, which avoids re-summarizing them next time).
  if (local.history != nullptr) {
    local.history->Record(remote.name, remote.db->last_write_stamp());
  }
  if (remote.history != nullptr) {
    remote.history->Record(local.name, local.db->last_write_stamp());
  }
  return report;
}

void ClusterReplicator::OnNoteChanged(const Note& note) {
  if (applying_) return;
  applying_ = true;
  for (Database* peer : peers_) {
    if (peer->replica_id() != source_->replica_id()) {
      // A misconfigured cluster member (not a replica of the source) must
      // not be contaminated with foreign notes; degrade loudly instead.
      report_.apply_failures += 1;
      ctr_cluster_failures_->Add();
      RecordClusterFailure(
          peer, Status::InvalidArgument("peer is not a replica of source"));
      continue;
    }
    auto existing = peer->GetAnyByUnid(note.unid());
    if (existing.ok() && existing->oid() == note.oid()) continue;
    auto applied = ApplyRemoteChange(peer, note, &report_);
    if (!applied.ok()) {
      // A partitioned or failing peer drops out of the event-driven push;
      // the scheduled replicator catches it up once it heals. Record the
      // failure so the degradation is loud, not silent.
      report_.apply_failures += 1;
      ctr_cluster_failures_->Add();
      RecordClusterFailure(peer, applied.status());
      continue;
    }
    if (*applied) ctr_cluster_pushes_->Add();
  }
  applying_ = false;
}

void ClusterReplicator::RecordClusterFailure(Database* peer,
                                             const Status& status) {
  Micros now =
      source_->clock() != nullptr ? source_->clock()->Now() : 0;
  registry_->events().Log(stats::Severity::kWarning, "Replica",
                          "cluster push to replica of '" + peer->title() +
                              "' failed: " + status.message(),
                          now);
}

}  // namespace dominodb
