// `mail`: three servers, each with a mail.box and four users' mail files,
// all fitting their buffer pools. Three closed-loop clients (one per
// server) with think time deposit memos with Database::CreateNote, open
// the newest message through a by-date inbox view and delete what they
// read; a fourth thread runs the routers. A slice ends when every
// deposited copy has been delivered. The set-up bulk-loads the archived
// mail, then restarts the servers with the group-commit log.

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "base/clock.h"
#include "base/string_util.h"
#include "harness.h"
#include "mail/router.h"
#include "net/sim_net.h"
#include "server/server.h"
#include "view/view_design.h"

namespace perfbench {
namespace {

using namespace dominodb;

constexpr size_t kServers = 3;
constexpr size_t kUsersPerServer = 4;
constexpr size_t kCachePages = 1024;  // 4 MiB per database
constexpr size_t kVocabulary = 2000;
constexpr size_t kMaxReadsPerVisit = 3;
constexpr size_t kOldMailPerUser = 100;  // already-read mail kept in inboxes
// Closed loop over the whole mail path: a client deposits only while fewer
// than this many copies are still on their way, so the offered load
// follows what the routers deliver instead of growing a backlog.
constexpr uint64_t kMaxCopiesInFlight = 64;
// A client starts a visit (deposit one memo, read the new mail) every
// interval, like a NotesBench user with think time; a visit that overruns
// starts the next at once. 3 x 60 memos/s keeps the routers, whose
// deliveries are serial durable commits, well short of saturation, so
// delivery latency measures the mail path rather than a backlog.
constexpr double kVisitIntervalMicros = 1e6 / 60;
constexpr int kSetupRepeats = 9;  // set-up is short; more repeats
constexpr double kWarmupSeconds = 5;
constexpr double kDrainTimeoutMicros = 60e6;
constexpr double kRouterIdleMicros = 1000;  // poll interval with no mail
constexpr const char* kInbox = "InboxByDate";

ViewDesign InboxView() {
  std::vector<ViewColumn> columns(2);
  columns[0].title = "Delivered";
  columns[0].formula_source = "DeliveredDate";
  columns[0].sort = ColumnSort::kDescending;
  columns[1].title = "Subject";
  columns[1].formula_source = "Subject";
  return *ViewDesign::Create(kInbox, "SELECT Form = \"Memo\"",
                             std::move(columns));
}

std::string UserName(size_t server, size_t k) {
  return "u" + std::to_string(server) + "_" + std::to_string(k);
}

std::string MailFile(const std::string& user) {
  return "mail/" + ToLower(user) + ".nsf";
}

DatabaseOptions MailFileOptions(const std::string& user) {
  DatabaseOptions file;
  file.title = user + "'s mail";
  file.store = ExplicitStore(kCachePages);
  return file;
}

struct Fleet {
  SystemClock clock;
  SimClock net_clock;  // SimNet's transfer accounting; router thread only
  std::unique_ptr<SimNet> net;
  MailDirectory directory;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<Server*> fleet;
  std::map<std::string, Router*> peers;
  std::vector<std::string> users;                 // all users
  std::vector<std::vector<Database*>> mail_files;  // [server][k]
};

// Loads every user's archived mail through servers whose log does not
// sync, one checkpoint per mail file.
Status LoadArchives(uint64_t seed, const std::string& dir, Fleet* fleet) {
  Rng rng(seed);
  std::vector<std::string> vocab = MakeVocabulary(&rng, kVocabulary);
  for (size_t s = 0; s < kServers; ++s) {
    std::string name = "srv" + std::to_string(s);
    Server loader(name, dir + "/" + name, &fleet->clock, nullptr, nullptr);
    DOMINO_RETURN_IF_ERROR(loader.EnableSharedLog(BulkLoadLog()));
    for (size_t k = 0; k < kUsersPerServer; ++k) {
      std::string user = UserName(s, k);
      DOMINO_ASSIGN_OR_RETURN(
          Database * db,
          loader.OpenDatabase(MailFile(user), MailFileOptions(user)));
      DOMINO_RETURN_IF_ERROR(db->CreateView(InboxView()).status());
      for (size_t m = 0; m < kOldMailPerUser; ++m) {
        Note memo = MakeMailMessage("archive", {user},
                                    vocab[rng.Uniform(kVocabulary)],
                                    vocab[rng.Uniform(kVocabulary)]);
        Micros posted = fleet->clock.Now() - 86'400'000'000 +
                        static_cast<Micros>(m) * 1'000'000;
        memo.SetTime("PostedDate", posted);
        memo.SetTime("DeliveredDate", posted + 1'000);
        memo.SetText("Archived", "1");
        DOMINO_RETURN_IF_ERROR(db->CreateNote(std::move(memo)).status());
      }
      DOMINO_RETURN_IF_ERROR(db->Checkpoint());
    }
  }
  return Status::Ok();
}

Status Build(uint64_t seed, const std::string& dir, Fleet* fleet) {
  DOMINO_RETURN_IF_ERROR(LoadArchives(seed, dir, fleet));
  fleet->net = std::make_unique<SimNet>(&fleet->net_clock);
  fleet->net->SetDefaultLink(/*latency=*/1'000,
                             /*bytes_per_second=*/100'000'000);
  for (size_t s = 0; s < kServers; ++s) {
    std::string name = "srv" + std::to_string(s);
    fleet->servers.push_back(std::make_unique<Server>(
        name, dir + "/" + name, &fleet->clock, fleet->net.get(),
        &fleet->directory));
    Server* server = fleet->servers.back().get();
    fleet->fleet.push_back(server);
    DOMINO_RETURN_IF_ERROR(server->EnableSharedLog(GroupCommitLog()));
    DOMINO_RETURN_IF_ERROR(server->StartIndexer(1));
    // Opened here so the store options are explicit; the mail
    // infrastructure then finds these databases already open.
    DatabaseOptions box;
    box.title = name + " mail.box";
    box.store = ExplicitStore(kCachePages);
    DOMINO_RETURN_IF_ERROR(server->OpenDatabase("mail.box", box).status());
    DOMINO_RETURN_IF_ERROR(server->EnsureMailInfrastructure());
    fleet->mail_files.emplace_back();
    for (size_t k = 0; k < kUsersPerServer; ++k) {
      std::string user = UserName(s, k);
      // Reopening rebuilds the inbox view from its design note.
      DOMINO_RETURN_IF_ERROR(
          server->OpenDatabase(MailFile(user), MailFileOptions(user))
              .status());
      DOMINO_ASSIGN_OR_RETURN(Database * db, server->CreateMailFile(user));
      if (db->FindView(kInbox) == nullptr) {
        return Status::Corruption("inbox view missing after restart");
      }
      fleet->mail_files.back().push_back(db);
      fleet->users.push_back(user);
    }
  }
  DOMINO_ASSIGN_OR_RETURN(fleet->peers, Server::RouterPeers(fleet->fleet));
  return Status::Ok();
}

std::chrono::steady_clock::time_point SteadyAt(double micros) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::micro>(micros)));
}

// Copies in flight between the clients and the router thread of one slice.
class SliceState {
 public:
  // Client side: waits until the window has room; false at the deadline.
  bool AwaitWindow(double deadline_us) {
    std::unique_lock<std::mutex> lock(mu_);
    return window_cv_.wait_until(lock, SteadyAt(deadline_us), [&] {
      return deposited_ - settled_ < kMaxCopiesInFlight;
    });
  }
  void Deposited(uint64_t copies) {
    std::lock_guard<std::mutex> lock(mu_);
    deposited_ += copies;
    work_cv_.notify_one();
  }
  void ClientsDone() {
    std::lock_guard<std::mutex> lock(mu_);
    clients_done_ = true;
    work_cv_.notify_one();
  }

  // Router side.
  void Settled(uint64_t copies) {
    std::lock_guard<std::mutex> lock(mu_);
    settled_ = copies;
    window_cv_.notify_all();
  }
  // Waits up to `max_us` for a deposit after `seen` or the clients' end.
  void AwaitWork(uint64_t seen, double max_us) {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait_until(lock, SteadyAt(NowMicros() + max_us),
                        [&] { return deposited_ != seen || clients_done_; });
  }
  uint64_t deposited() const {
    std::lock_guard<std::mutex> lock(mu_);
    return deposited_;
  }
  bool clients_done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return clients_done_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable window_cv_;  // settled_ moved
  std::condition_variable work_cv_;    // deposited_ moved or clients done
  uint64_t deposited_ = 0;
  uint64_t settled_ = 0;  // delivered or dead-lettered
  bool clients_done_ = false;
};

// One closed-loop mail user agent homed on one server. Only calls
// Database.
class Client {
 public:
  Client(const Fleet& fleet, size_t server, Violations* violations,
         SliceState* state, uint64_t seed)
      : fleet_(fleet),
        server_(server),
        mailbox_(fleet.fleet[server]->FindDatabase("mail.box")),
        violations_(violations),
        state_(state),
        rng_(seed) {
    Rng words_rng(seed ^ 0x5eed);
    vocab_ = MakeVocabulary(&words_rng, kVocabulary);
  }

  void Run(double deadline_us) {
    double next_visit = NowMicros();
    while (state_->AwaitWindow(deadline_us)) {
      size_t k = next_user_++ % kUsersPerServer;
      Deposit(UserName(server_, k));
      Database* inbox = fleet_.mail_files[server_][k];
      for (size_t r = 0; r < kMaxReadsPerVisit; ++r) {
        if (!ReadNewest(inbox, UserName(server_, k))) break;
      }
      next_visit = std::max(next_visit + kVisitIntervalMicros, NowMicros());
      if (next_visit >= deadline_us) break;
      std::this_thread::sleep_until(SteadyAt(next_visit));
    }
  }

  ClientTally& tally() { return tally_; }

 private:
  std::string Words(size_t n) {
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) out.push_back(' ');
      out += vocab_[rng_.Uniform(vocab_.size())];
    }
    return out;
  }

  void Deposit(const std::string& from) {
    BeginOperation();
    Span op("op.deposit");
    std::vector<std::string> to;
    size_t fanout = 1 + rng_.Uniform(3);
    while (to.size() < fanout) {
      const std::string& user = fleet_.users[rng_.Uniform(fleet_.users.size())];
      if (std::find(to.begin(), to.end(), user) == to.end()) to.push_back(user);
    }
    Note memo = MakeMailMessage(from, to, Words(6), Words(40 + rng_.Uniform(40)));
    double start = NowMicros();
    memo.SetTime("PostedDate", fleet_.clock.Now());
    uint64_t bytes = memo.ByteSize();
    Status status = [&] {
      Span span("core.commit");
      return mailbox_->CreateNote(std::move(memo)).status();
    }();
    ++tally_.ops;
    if (!status.ok()) {
      ++tally_.failed;
      return;
    }
    tally_.write.Add(NowMicros() - start);
    tally_.user_bytes += bytes;
    state_->Deposited(to.size());
  }

  // Opens the newest message of `inbox`, checks it, deletes it. False when
  // no new mail is left (the newest message is one read long ago).
  bool ReadNewest(Database* inbox, const std::string& user) {
    BeginOperation();
    Span op("op.read_mail");
    const ViewIndex* view = inbox->FindView(kInbox);
    Unid unid;
    double start = NowMicros();
    {
      std::optional<Database::ReadTxn> txn;
      {
        Span span("core.pin");
        txn.emplace(inbox);
      }
      std::vector<const ViewEntry*> rows;
      {
        Span span("view.lookup");
        rows = view->EntriesAt(txn->epoch());
      }
      double looked = NowMicros();
      tally_.view.Add(looked - start);
      tally_.view_rows += rows.size();
      ++tally_.ops;
      if (rows.empty()) return false;
      unid = rows.front()->unid;
    }
    double read_start = NowMicros();
    Result<Note> note = [&] {
      Span span("core.read");
      return inbox->ReadNoteByUnid(unid);
    }();
    tally_.read.Add(NowMicros() - read_start);
    ++tally_.ops;
    if (!note.ok()) {
      ++tally_.failed;
      return false;
    }
    if (note->unid() != unid) violations_->Record("read returned another UNID");
    if (note->HasItem("Archived")) return false;
    bool addressed = false;
    if (const Value* send_to = note->FindValue("SendTo")) {
      for (const std::string& name : send_to->texts()) {
        addressed = addressed || EqualsIgnoreCase(name, user);
      }
    }
    if (!addressed) violations_->Record("memo in the wrong mail file: " + user);
    tally_.visible.Add(static_cast<double>(note->GetTime("DeliveredDate") -
                                           note->GetTime("PostedDate")) /
                       1e3);
    double delete_start = NowMicros();
    Status deleted = [&] {
      Span span("core.commit");
      return inbox->DeleteNote(note->id());
    }();
    ++tally_.ops;
    if (!deleted.ok()) {
      ++tally_.failed;
      return false;
    }
    tally_.write.Add(NowMicros() - delete_start);
    return true;
  }

  const Fleet& fleet_;
  size_t server_;
  Database* mailbox_;
  Violations* violations_;
  SliceState* state_;
  Rng rng_;
  std::vector<std::string> vocab_;
  size_t next_user_ = 0;
  ClientTally tally_;
};

// The router task: the only thread that calls Router and SimNet.
struct RouterLoop {
  uint64_t passes = 0;
  int64_t mailbox_depth_max = 0;
  bool timed_out = false;
  std::string error;

  void Run(Fleet* fleet, SliceState* state, uint64_t settled_before) {
    double drain_deadline = 0;
    while (true) {
      // Read before the pass: every copy deposited by now is routed by it
      // or by a later pass.
      bool clients_done = state->clients_done();
      uint64_t deposited = state->deposited();
      size_t processed = 0;
      for (Server* server : fleet->fleet) {
        mailbox_depth_max = std::max(
            mailbox_depth_max,
            static_cast<int64_t>(server->router()->mailbox()->note_count()));
        Result<size_t> n = [&] {
          Span span("mail.route");
          return server->RunRouterOnce(fleet->peers);
        }();
        ++passes;
        if (!n.ok()) {
          error = n.status().ToString();
          return;
        }
        processed += *n;
      }
      uint64_t settled = 0;
      for (Server* server : fleet->fleet) {
        settled += server->router()->stats().delivered +
                   server->router()->stats().dead_lettered;
      }
      state->Settled(settled - settled_before);
      if (clients_done) {
        if (settled - settled_before >= deposited) return;
        if (drain_deadline == 0) drain_deadline = NowMicros() + kDrainTimeoutMicros;
        if (NowMicros() > drain_deadline) {
          timed_out = true;
          return;
        }
      }
      if (processed == 0) state->AwaitWork(deposited, kRouterIdleMicros);
    }
  }
};

}  // namespace

RunResult RunMail(const Options& options) {
  RunResult result;
  std::unique_ptr<Fleet> fleet;
  Status setup = RepeatSetup(
      kSetupRepeats, options.data_dir, [&] { fleet.reset(); },
      [&](const std::string& dir) {
        fleet = std::make_unique<Fleet>();
        return Build(options.seed, dir, fleet.get());
      },
      &result);
  if (!setup.ok()) {
    result.Violate("setup failed: " + setup.ToString());
    return result;
  }

  Violations violations;
  GaugePeaks peaks;
  uint64_t passes = 0, deposited = 0;
  int64_t depth_max = 0;
  uint64_t slices = 0;
  auto run_clients = [&](double seconds) {
    SliceState state;
    uint64_t settled_before = 0;
    for (Server* server : fleet->fleet) {
      settled_before += server->router()->stats().delivered +
                        server->router()->stats().dead_lettered;
    }
    std::vector<std::unique_ptr<Client>> clients;
    for (size_t s = 0; s < kServers; ++s) {
      clients.push_back(std::make_unique<Client>(
          *fleet, s, &violations, &state,
          options.seed * 1000 + slices * kServers + s + 1));
    }
    ++slices;
    double start = NowMicros();
    double deadline = start + seconds * 1e6;
    RouterLoop router;
    std::thread router_thread(
        [&] { router.Run(fleet.get(), &state, settled_before); });
    std::vector<std::thread> threads;
    for (auto& client : clients) {
      threads.emplace_back([&client, deadline] { client->Run(deadline); });
    }
    peaks.SampleUntil(deadline);
    for (std::thread& thread : threads) thread.join();
    Slice slice;
    slice.seconds = (NowMicros() - start) / 1e6;
    state.ClientsDone();
    router_thread.join();
    if (!router.error.empty()) violations.Record("router: " + router.error);
    if (router.timed_out) violations.Record("mail not delivered in time");
    passes += router.passes;
    depth_max = std::max(depth_max, router.mailbox_depth_max);
    deposited += state.deposited();
    slice.peak_rss_mb = PeakRssMb();
    for (auto& client : clients) slice.tally.Merge(client->tally());
    return slice;
  };
  // An untimed warm-up brings the inboxes and routers to their steady
  // state first; its deliveries still count in the end-of-run accounting.
  size_t warmup_deliveries = run_clients(kWarmupSeconds).tally.visible.count();
  passes = 0;
  StatView before;
  Slice phase = RunTimedPhase(options, run_clients, &result);
  StatView after;

  // Quiesce the indexers, then check the outputs.
  SetTracing(options.trace);
  uint64_t delivered = 0, dead = 0;
  for (Server* server : fleet->fleet) {
    delivered += server->router()->stats().delivered;
    dead += server->router()->stats().dead_lettered;
    if (server->router()->mailbox()->note_count() != 0) {
      result.Violate("mail.box not drained on " + server->name());
    }
  }
  if (delivered + dead != deposited) {
    result.Violate("delivered " + std::to_string(delivered) + " + dead " +
                   std::to_string(dead) + " != deposited copies " +
                   std::to_string(deposited));
  }
  uint64_t live_bytes = 0;
  uint64_t dead_bytes = 0;
  Samples& delivery = phase.tally.visible;
  for (Server* server : fleet->fleet) {
    for (const std::string& file : server->DatabaseFiles()) {
      Database* db = server->FindDatabase(file);
      {
        Span span("indexer.flush");
        Status flushed = db->FlushIndexes();
        if (!flushed.ok()) result.Violate("flush: " + flushed.ToString());
      }
      if (db->mvcc().live_versions() != 0) {
        result.Violate("Db.Mvcc.LiveVersions did not return to 0 in " + file);
      }
      // The run ends with the nightly COMPACT of every database, untimed;
      // the files are sized after it.
      dead_bytes += db->store()->dead_bytes();
      Status compacted = db->RunCompact();
      if (compacted.ok()) compacted = db->Checkpoint();
      if (!compacted.ok()) result.Violate("compact: " + compacted.ToString());
      db->ForEachLiveNote([&](const Note& note) {
        live_bytes += note.ByteSize();
        // Copies still unread: their delivery latency counts too.
        if (note.FormName() == "Memo" && file != "mail.box" &&
            !note.HasItem("Archived")) {
          delivery.Add(static_cast<double>(note.GetTime("DeliveredDate") -
                                                note.GetTime("PostedDate")) /
                            1e3);
        }
      });
    }
  }
  SetTracing(false);
  if (options.trace) FillSpanMetrics(&result);
  if (delivery.count() + warmup_deliveries != delivered) {
    result.Violate("delivery samples " +
                   std::to_string(delivery.count() + warmup_deliveries) +
                   " != delivered copies " + std::to_string(delivered));
  }
  if (peaks.live_versions() != 0) {
    result.Violate("Db.Mvcc.LiveVersions gauge did not return to 0");
  }
  if (violations.any()) result.Violate(violations.first());

  FinishRun(phase, before, after, peaks, live_bytes, options.data_dir, &result);
  result.metrics["storage.compact_reclaimed_bytes"] =
      StatView().Delta(before, Stat::kCompactBytesReclaimed);
  result.metrics["storage.dead_bytes_end"] = static_cast<double>(dead_bytes);
  double delivered_delta = after.Delta(before, Stat::kMailDelivered);
  result.metrics["mail.copies_per_pass"] =
      passes > 0 ? delivered_delta / static_cast<double>(passes) : 0;
  result.metrics["mail.mailbox_depth_max"] = static_cast<double>(depth_max);
  result.metrics["mail_delivery_p50_ms"] = delivery.Percentile(0.50);
  result.metrics["mail_delivery_p99_ms"] = delivery.Percentile(0.99);
  result.metrics["net.bytes_per_copy"] =
      delivered_delta > 0 ? after.Delta(before, Stat::kNetBytes) / delivered_delta
                          : 0;
  if (after.Delta(before, Stat::kMailDead) != 0) {
    result.Violate("dead mail in a fleet where every recipient exists");
  }
  fleet.reset();
  return result;
}

}  // namespace perfbench
