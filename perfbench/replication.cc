// `replication`: three mesh replicas of a discussion database that fits
// the buffer pool, each with one "new & changed" agent. Each round three
// clients (one per replica) commit a fixed batch of creates, edits and
// deletes, some edits landing on the same documents on several replicas;
// then one thread replicates pairwise until the replicas converge,
// flushes the indexers and runs the agents. Each replica owns a share of
// the documents and its client deletes only those, as an author deletes
// only their own topics. `replication_delete_race` lets every client
// delete any document, so two replicas can delete the same one in a round.

#include <map>
#include <optional>
#include <set>
#include <thread>

#include "agent/agent.h"
#include "base/clock.h"
#include "harness.h"
#include "net/sim_net.h"
#include "server/replication_scheduler.h"
#include "server/server.h"

namespace perfbench {
namespace {

using namespace dominodb;

constexpr size_t kReplicas = 3;
constexpr size_t kCachePages = 4096;  // 16 MiB per replica; data fits
constexpr size_t kSeedTopics = 600;
constexpr size_t kHotTopics = 12;     // edited from every replica
constexpr size_t kCategories = 50;
constexpr size_t kVocabulary = 2000;
constexpr size_t kCreatesPerBatch = 3;
constexpr size_t kEditsPerBatch = 8;
constexpr size_t kDeletesPerBatch = 3;
constexpr int kMaxPasses = 10;
constexpr int kMaxEditAttempts = 50;
constexpr int kSetupRepeats = 5;
constexpr const char* kFile = "disc.nsf";
constexpr const char* kView = "ByCategory";
constexpr const char* kHot = "hot";

std::string Category(size_t c) { return "cat" + std::to_string(c); }

class Words {
 public:
  explicit Words(uint64_t seed) : rng_(seed) {
    vocab_ = MakeVocabulary(&rng_, kVocabulary);
  }
  std::string Pick(Rng* rng, size_t n) const {
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) out.push_back(' ');
      out += vocab_[rng->Uniform(vocab_.size())];
    }
    return out;
  }

 private:
  Rng rng_;
  std::vector<std::string> vocab_;
};

Note Topic(const Words& words, Rng* rng, const std::string& category,
           const std::string& origin) {
  Note doc(NoteClass::kDocument);
  doc.SetText("Form", "Topic");
  doc.SetText("Subject", words.Pick(rng, 4));
  doc.SetText("Category", category);
  doc.SetText("Origin", origin);
  doc.SetItem("Body", Value::RichText({RichTextRun{words.Pick(rng, 60), 0, ""}}));
  return doc;
}

struct Fleet {
  SystemClock clock;
  SimClock net_clock;  // SimNet's transfer accounting; coordinator only
  std::unique_ptr<SimNet> net;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<Database*> replicas;
  std::vector<std::unique_ptr<AgentRunner>> agents;
  // Per replica, the live documents it owns: seeded topics by index modulo
  // the replica count, then what its client creates. Hot topics belong to
  // no replica.
  std::vector<std::vector<Unid>> owned;
};

struct RoundStats {
  size_t agent_scanned = 0;
  size_t agent_selected = 0;
  size_t agent_modified = 0;
};

// Replicates pairwise over the mesh until the replicas converge.
Status Converge(Fleet* fleet) {
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    for (size_t a = 0; a < kReplicas; ++a) {
      for (size_t b = a + 1; b < kReplicas; ++b) {
        Span span("repl.session");
        DOMINO_RETURN_IF_ERROR(
            fleet->servers[a]->ReplicateWith(*fleet->servers[b], kFile)
                .status());
      }
    }
    if (DatabasesConverged(fleet->replicas)) return Status::Ok();
  }
  return Status::Corruption("replicas did not converge");
}

// Flushes the indexers and runs every replica's agent.
Status RunAgents(Fleet* fleet, RoundStats* stats) {
  for (size_t r = 0; r < kReplicas; ++r) {
    {
      Span span("indexer.flush");
      DOMINO_RETURN_IF_ERROR(fleet->replicas[r]->FlushIndexes());
    }
    Span span("agent.run");
    DOMINO_ASSIGN_OR_RETURN(auto reports,
                            fleet->agents[r]->RunDue(fleet->clock.Now()));
    for (const AgentRunReport& report : reports) {
      if (report.errors != 0) return Status::Corruption("agent errors");
      stats->agent_scanned += report.docs_scanned;
      stats->agent_selected += report.docs_selected;
      stats->agent_modified += report.docs_modified;
    }
  }
  return Status::Ok();
}

// Seeds under the group-commit log, without the bulk load and restart the
// other workloads use: a reopened Database starts last_write_stamp() at 0
// while the loaded notes carry stamps ahead of the clock, so changes made
// soon after a restart fall below the peers' recorded cutoffs and do not
// replicate.
Status Build(const Words& words, uint64_t seed, const std::string& dir,
             Fleet* fleet) {
  fleet->net = std::make_unique<SimNet>(&fleet->net_clock);
  fleet->net->SetDefaultLink(/*latency=*/1'000,
                             /*bytes_per_second=*/100'000'000);
  for (size_t r = 0; r < kReplicas; ++r) {
    std::string name = "srv" + std::to_string(r);
    fleet->servers.push_back(std::make_unique<Server>(
        name, dir + "/" + name, &fleet->clock, fleet->net.get(), nullptr));
    DOMINO_RETURN_IF_ERROR(fleet->servers.back()->EnableSharedLog(
        GroupCommitLog()));
    DOMINO_RETURN_IF_ERROR(fleet->servers.back()->StartIndexer(1));
  }
  DatabaseOptions options;
  options.title = "Replicated discussion";
  options.store = ExplicitStore(kCachePages);
  DOMINO_ASSIGN_OR_RETURN(Database * first,
                          fleet->servers[0]->OpenDatabase(kFile, options));
  // Conflict documents stay out of the category listing.
  DOMINO_RETURN_IF_ERROR(
      first
          ->CreateView(CategoryView(
              kView, "SELECT Form = \"Topic\" & !@IsAvailable($Conflict)"))
          .status());
  Rng rng(seed);
  fleet->owned.resize(kReplicas);
  for (size_t t = 0; t < kSeedTopics; ++t) {
    std::string category =
        t < kHotTopics ? kHot : Category(rng.Uniform(kCategories));
    DOMINO_ASSIGN_OR_RETURN(
        NoteId id, first->CreateNote(Topic(words, &rng, category, "seed")));
    if (t >= kHotTopics) {
      DOMINO_ASSIGN_OR_RETURN(Note stored, first->ReadNote(id));
      fleet->owned[t % kReplicas].push_back(stored.unid());
    }
  }
  fleet->replicas.push_back(first);
  options.replica_id = first->replica_id();
  for (size_t r = 1; r < kReplicas; ++r) {
    DOMINO_ASSIGN_OR_RETURN(Database * replica,
                            fleet->servers[r]->OpenDatabase(kFile, options));
    fleet->replicas.push_back(replica);
  }
  DOMINO_RETURN_IF_ERROR(Converge(fleet));
  for (size_t r = 0; r < kReplicas; ++r) {
    std::string origin = "srv" + std::to_string(r);
    fleet->agents.push_back(
        std::make_unique<AgentRunner>(fleet->replicas[r]));
    DOMINO_ASSIGN_OR_RETURN(
        AgentDesign design,
        AgentDesign::Create("Review " + origin, AgentTrigger::kOnNewAndChanged,
                            0,
                            "SELECT Form = \"Topic\" & Origin = \"" + origin +
                                "\" & Reviewed != \"1\"",
                            "FIELD Reviewed := \"1\""));
    DOMINO_RETURN_IF_ERROR(fleet->agents.back()->AddAgent(design));
  }
  // First agent pass sees every seeded document; later ones only deltas.
  RoundStats seeded;
  DOMINO_RETURN_IF_ERROR(RunAgents(fleet, &seeded));
  return Converge(fleet);
}

// One closed-loop client committing its batch on its own replica. Only
// calls Database.
class Client {
 public:
  Client(const Words& words, Fleet* fleet, size_t index, bool shared_deletes,
         Violations* violations, uint64_t seed)
      : words_(words),
        db_(fleet->replicas[index]),
        view_(db_->FindView(kView)),
        origin_("srv" + std::to_string(index)),
        owned_(&fleet->owned[index]),
        shared_deletes_(shared_deletes),
        violations_(violations),
        rng_(seed) {}

  void RunBatch() {
    for (size_t i = 0; i < kCreatesPerBatch; ++i) Create();
    for (size_t i = 0; i < kEditsPerBatch; ++i) Edit();
    for (size_t i = 0; i < kDeletesPerBatch; ++i) Delete();
  }

  ClientTally& tally() { return tally_; }
  uint64_t changed() const { return changed_; }

 private:
  void Create() {
    BeginOperation();
    Span op("op.create");
    Note doc = Topic(words_, &rng_, Category(rng_.Uniform(kCategories)),
                     origin_);
    uint64_t bytes = doc.ByteSize();
    double start = NowMicros();
    Result<NoteId> id = [&] {
      Span span("core.commit");
      return db_->CreateNote(std::move(doc));
    }();
    ++tally_.ops;
    if (!id.ok()) {
      ++tally_.failed;
      return;
    }
    tally_.write.Add(NowMicros() - start);
    tally_.user_bytes += bytes;
    ++changed_;
    Result<Note> stored = db_->ReadNote(*id);
    if (!stored.ok()) {
      violations_->Record("created topic not readable");
      return;
    }
    owned_->push_back(stored->unid());
  }

  // Opens a category and picks one of its documents; false when empty.
  bool Pick(const std::string& category, Unid* unid, NoteId* id) {
    BeginOperation();
    Span op("op.view");
    double start = NowMicros();
    std::optional<Database::ReadTxn> txn;
    {
      Span span("core.pin");
      txn.emplace(db_);
    }
    std::vector<const ViewEntry*> rows;
    {
      Span span("view.lookup");
      rows = view_->FindByKeyAt(Value::Text(category), txn->epoch());
    }
    tally_.view.Add(NowMicros() - start);
    tally_.view_rows += rows.size();
    ++tally_.ops;
    if (rows.empty()) return false;
    const ViewEntry* row = rows[rng_.Uniform(rows.size())];
    *unid = row->unid;
    *id = row->note_id;
    return true;
  }

  void Edit() {
    std::string category =
        rng_.Uniform(4) == 0 ? kHot : Category(rng_.Uniform(kCategories));
    Unid unid;
    NoteId id;
    if (!Pick(category, &unid, &id)) return;
    BeginOperation();
    Span op("op.edit");
    std::string subject = words_.Pick(&rng_, 4);
    std::string body = words_.Pick(&rng_, 60);
    double write_start = 0;
    for (int attempt = 0; attempt < kMaxEditAttempts; ++attempt) {
      double read_start = NowMicros();
      Result<Note> note = [&] {
        Span span("core.read");
        return db_->ReadNoteByUnid(unid);
      }();
      if (attempt == 0) {
        tally_.read.Add(NowMicros() - read_start);
        ++tally_.ops;
      }
      if (!note.ok()) break;
      if (note->unid() != unid) {
        violations_->Record("read returned a different UNID");
      }
      note->SetText("Subject", subject);
      note->SetItem("Body", Value::RichText({RichTextRun{body, 0, ""}}));
      uint64_t bytes = note->ByteSize();
      if (write_start == 0) write_start = NowMicros();
      Status status = [&] {
        Span span("core.commit");
        return db_->UpdateNote(*std::move(note));
      }();
      if (status.ok()) {
        tally_.write.Add(NowMicros() - write_start);
        tally_.user_bytes += bytes;
        ++tally_.ops;
        ++changed_;
        return;
      }
      if (!status.IsConflict()) break;
      ++tally_.conflict_retries;
    }
    ++tally_.ops;
    ++tally_.failed;
  }

  void Delete() {
    Unid unid;
    NoteId id;
    if (shared_deletes_) {
      if (!Pick(Category(rng_.Uniform(kCategories)), &unid, &id)) return;
    } else {
      if (owned_->empty()) return;
      size_t pick = rng_.Uniform(owned_->size());
      unid = (*owned_)[pick];
      (*owned_)[pick] = owned_->back();
      owned_->pop_back();
      BeginOperation();
      Span op("op.read");
      double read_start = NowMicros();
      Result<Note> note = [&] {
        Span span("core.read");
        return db_->ReadNoteByUnid(unid);
      }();
      tally_.read.Add(NowMicros() - read_start);
      ++tally_.ops;
      if (!note.ok()) {
        ++tally_.failed;
        return;
      }
      if (note->unid() != unid) {
        violations_->Record("read returned a different UNID");
      }
      id = note->id();
    }
    BeginOperation();
    Span op("op.delete");
    double start = NowMicros();
    Status status = [&] {
      Span span("core.commit");
      return db_->DeleteNote(id);
    }();
    ++tally_.ops;
    if (!status.ok()) {
      ++tally_.failed;
      return;
    }
    tally_.write.Add(NowMicros() - start);
    ++changed_;
  }

  const Words& words_;
  Database* db_;
  const ViewIndex* view_;
  std::string origin_;
  std::vector<Unid>* owned_;  // this replica's; only this client touches it
  bool shared_deletes_;
  Violations* violations_;
  Rng rng_;
  uint64_t changed_ = 0;
  ClientTally tally_;
};

// The view of every replica matches the categories of its live topics.
bool ViewMatchesModel(Database* db) {
  std::map<std::string, std::set<Unid>> model;
  db->ForEachLiveNote([&](const Note& note) {
    if (note.FormName() == "Topic" && !note.HasItem("$Conflict")) {
      model[note.GetText("Category")].insert(note.unid());
    }
  });
  size_t rows = 0;
  for (const auto& [category, members] : model) {
    std::set<Unid> seen;
    for (const ViewEntry* row :
         db->FindView(kView)->FindByKey(Value::Text(category))) {
      seen.insert(row->unid);
    }
    if (seen != members) return false;
    rows += seen.size();
  }
  return rows == db->FindView(kView)->size();
}

}  // namespace

RunResult RunReplication(const Options& options, bool shared_deletes) {
  RunResult result;
  Words words(options.seed);
  std::unique_ptr<Fleet> fleet;
  Status setup = RepeatSetup(
      kSetupRepeats, options.data_dir, [&] { fleet.reset(); },
      [&](const std::string& dir) {
        fleet = std::make_unique<Fleet>();
        return Build(words, options.seed, dir, fleet.get());
      },
      &result);
  if (!setup.ok()) {
    result.Violate("setup failed: " + setup.ToString());
    return result;
  }

  Violations violations;
  GaugePeaks peaks;
  RoundStats rounds_total;
  uint64_t changed = 0, rounds = 0, slices = 0;
  StatView before;
  Slice phase = RunTimedPhase(
      options,
      [&](double seconds) {
        Slice slice;
        std::vector<std::unique_ptr<Client>> clients;
        for (size_t r = 0; r < kReplicas; ++r) {
          clients.push_back(std::make_unique<Client>(
              words, fleet.get(), r, shared_deletes, &violations,
              options.seed * 1000 + slices * kReplicas + r + 1));
        }
        ++slices;
        double start = NowMicros();
        double deadline = start + seconds * 1e6;
        while (NowMicros() < deadline && !violations.any()) {
          ++rounds;
          std::vector<std::thread> threads;
          for (auto& client : clients) {
            threads.emplace_back([&client] { client->RunBatch(); });
          }
          for (std::thread& thread : threads) thread.join();
          peaks.Sample();
          double batch_end = NowMicros();
          Status status = Converge(fleet.get());
          slice.tally.visible.Add((NowMicros() - batch_end) / 1e3);
          if (status.ok()) status = RunAgents(fleet.get(), &rounds_total);
          if (!status.ok()) violations.Record(status.ToString());
        }
        slice.seconds = (NowMicros() - start) / 1e6;
        slice.peak_rss_mb = PeakRssMb();
        for (auto& client : clients) {
          slice.tally.Merge(client->tally());
          changed += client->changed();
        }
        return slice;
      },
      &result);
  StatView after;

  // The last round's agent edits still have to spread; then check.
  Status converged = Converge(fleet.get());
  if (!converged.ok() || !DatabasesConverged(fleet->replicas)) {
    result.Violate("replicas did not pass DatabasesConverged");
  }
  if (violations.any()) result.Violate(violations.first());
  uint64_t live_bytes = 0, dead_bytes = 0;
  for (Database* db : fleet->replicas) {
    Status flushed = db->FlushIndexes();
    if (!flushed.ok()) result.Violate("flush: " + flushed.ToString());
    if (db->mvcc().live_versions() != 0) {
      result.Violate("Db.Mvcc.LiveVersions did not return to 0");
    }
    if (!ViewMatchesModel(db)) {
      result.Violate("view rows differ from the live documents");
    }
    Status checkpointed = db->Checkpoint();
    if (!checkpointed.ok()) {
      result.Violate("checkpoint: " + checkpointed.ToString());
    }
    db->ForEachLiveNote([&](const Note& note) { live_bytes += note.ByteSize(); });
    dead_bytes += db->store()->dead_bytes();
  }
  if (peaks.live_versions() != 0) {
    result.Violate("Db.Mvcc.LiveVersions gauge did not return to 0");
  }

  FinishRun(phase, before, after, peaks, live_bytes, options.data_dir, &result);
  result.metrics["storage.dead_bytes_end"] = static_cast<double>(dead_bytes);
  double changed_notes =
      static_cast<double>(changed + rounds_total.agent_modified);
  double received = after.Delta(before, Stat::kReplicaReceived);
  result.metrics["repl.received_per_changed"] =
      changed_notes > 0 ? received / changed_notes : 0;
  result.metrics["repl.summarized_per_received"] =
      received > 0 ? after.Delta(before, Stat::kReplicaSummarized) / received
                   : 0;
  result.metrics["repl.bytes_per_changed_note"] =
      changed_notes > 0 ? after.Delta(before, Stat::kReplicaBytes) / changed_notes
                        : 0;
  result.metrics["converge_p50_ms"] = phase.tally.visible.Percentile(0.50);
  result.metrics["converge_p90_ms"] = phase.tally.visible.Percentile(0.90);
  result.metrics["repl.conflict_docs"] =
      after.Delta(before, Stat::kReplicaConflicts);
  result.metrics["agent.scanned_per_selected"] =
      rounds_total.agent_selected > 0
          ? static_cast<double>(rounds_total.agent_scanned) /
                static_cast<double>(rounds_total.agent_selected)
          : 0;
  fleet.reset();
  return result;
}

}  // namespace perfbench
