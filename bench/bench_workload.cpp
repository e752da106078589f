// E17 — NotesBench-style macro workload: N simulated users run the classic
// groupware mix (open a view, read notes, send mail, edit a discussion
// document, full-text search) against a multi-server topology — mail
// routed between home servers, the discussion database replicated on a
// schedule — sweeping N to find how many users the build sustains under a
// per-operation latency SLO.

#include <algorithm>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "security/acl.h"
#include "server/replication_scheduler.h"
#include "server/server.h"
#include "view/view_design.h"

using namespace dominodb;
using namespace dominodb::bench;

namespace {

constexpr const char* kDiscussionFile = "disc.nsf";

// Search terms seeded into document subjects so full-text queries hit.
const char* kKeywords[] = {"lotus",   "domino", "replica", "router",
                           "formula", "notes",  "view",    "index"};
constexpr size_t kNumKeywords = sizeof(kKeywords) / sizeof(kKeywords[0]);

const char* kOpNames[] = {"OpenView", "Read", "Send", "Edit", "Search"};
constexpr size_t kNumOps = sizeof(kOpNames) / sizeof(kOpNames[0]);

void Die(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "bench_workload: %s: %s\n", what,
            status.ToString().c_str());
    exit(1);
  }
}

void Violation(const std::string& detail) {
  fprintf(stderr, "INVARIANT VIOLATION: %s\n", detail.c_str());
  exit(1);
}

ViewDesign DiscussionView() {
  std::vector<ViewColumn> columns;
  ViewColumn category;
  category.title = "Category";
  category.formula_source = "Category";
  category.sort = ColumnSort::kAscending;
  category.categorized = true;
  columns.push_back(std::move(category));
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  columns.push_back(std::move(subject));
  return *ViewDesign::Create("Topics", "SELECT @All", std::move(columns));
}

struct SweepResult {
  int users = 0;
  uint64_t combined_p50 = 0;
  uint64_t combined_p95 = 0;
  uint64_t combined_p99 = 0;
  uint64_t edit_conflicts = 0;
};

/// One sweep point: a fresh topology, directory and stat registry, `users`
/// simulated users each running `ops_per_user` operations closed-loop on
/// the sim clock. Exits non-zero on any invariant violation.
SweepResult RunPoint(int users, int num_servers, int ops_per_user) {
  BenchDir dir("workload_u" + std::to_string(users));
  SimClock clock(1'700'000'000'000'000);
  SimNet net(&clock);
  net.SetDefaultLink(/*latency=*/5'000, /*bytes_per_second=*/1'000'000);
  MailDirectory directory;
  stats::StatRegistry registry;  // private: clean per-point stats
  Rng rng(17 + users);

  // -- Topology: srv0..srvN with shared log, indexer pool and router -------
  std::vector<std::unique_ptr<Server>> owned;
  std::vector<Server*> fleet;
  std::vector<std::string> names;
  for (int s = 0; s < num_servers; ++s) {
    names.push_back("srv" + std::to_string(s));
    owned.push_back(std::make_unique<Server>(names.back(),
                                             dir.Sub(names.back()), &clock,
                                             &net, &directory, &registry));
    fleet.push_back(owned.back().get());
    Die(fleet.back()->EnableSharedLog(), "shared log");
    Die(fleet.back()->StartIndexer(2), "indexer");
    Die(fleet.back()->EnsureMailInfrastructure(), "mail infrastructure");
  }

  // -- Discussion database: seeded on srv0, replicated everywhere ----------
  DatabaseOptions disc_options;
  disc_options.title = "Workload Discussion";
  auto disc0 = fleet[0]->OpenDatabase(kDiscussionFile, disc_options);
  Die(disc0.status(), "open discussion db");
  Die((*disc0)->CreateView(DiscussionView()).status(), "create view");
  const int seed_docs = ScaleN(200, 24);
  for (int d = 0; d < seed_docs; ++d) {
    Note doc = SyntheticDoc(&rng, /*body_bytes=*/256, "Topic");
    doc.SetText("Subject", std::string(kKeywords[d % kNumKeywords]) + " " +
                               rng.Word(4, 10));
    Die((*disc0)->CreateNote(std::move(doc)).status(), "seed doc");
  }
  std::vector<Unid> topics;
  (*disc0)->ForEachLiveNote([&](const Note& note) {
    if (note.GetText("Form") == "Topic") topics.push_back(note.unid());
  });
  for (int s = 1; s < num_servers; ++s) {
    Die(fleet[s]->CreateReplicaOf(**disc0, kDiscussionFile).status(),
        "create replica");
  }
  // The servers' replicator tasks run every session, through the
  // connection documents the topology installs.
  ReplicationScheduler scheduler(fleet, kDiscussionFile);
  Die(scheduler.SetTopology(num_servers > 2 ? MeshTopology(names)
                                            : RingTopology(names)),
      "replication topology");
  // Seed data and the view design reach every replica before the run.
  Die(scheduler.RunUntilConverged(20).status(), "initial convergence");
  std::vector<Database*> replicas = scheduler.Replicas();
  for (Database* replica : replicas) {
    Die(replica->EnsureFullTextIndex(), "full-text index");
  }

  // -- Users: mail files homed round-robin across the fleet ----------------
  std::vector<std::string> user_names;
  std::vector<int> home_of;  // user index → fleet index
  for (int u = 0; u < users; ++u) {
    user_names.push_back("user" + std::to_string(u));
    home_of.push_back(u % num_servers);
    Die(fleet[home_of[u]]->CreateMailFile(user_names[u]).status(),
        "create mail file");
  }
  auto peers = Server::RouterPeers(fleet);
  Die(peers.status(), "router peers");

  // -- Closed-loop event simulation on the sim clock -----------------------
  stats::Histogram* combined = &registry.GetHistogram("Workload.Op.Micros");
  stats::Histogram* per_op[kNumOps];
  for (size_t i = 0; i < kNumOps; ++i) {
    per_op[i] = &registry.GetHistogram(std::string("Workload.") +
                                       kOpNames[i] + ".Micros");
  }

  using Wakeup = std::pair<Micros, int>;  // (due sim time, user index)
  std::priority_queue<Wakeup, std::vector<Wakeup>, std::greater<Wakeup>> idle;
  std::vector<int> ops_left(users, ops_per_user);
  for (int u = 0; u < users; ++u) {
    idle.emplace(clock.Now() + rng.Range(1'000, 500'000), u);
  }

  uint64_t expected_copies = 0;  // recipient copies owed by submitted mail
  uint64_t edit_conflicts = 0;
  uint64_t op_errors = 0;
  Micros next_router = clock.Now() + 500'000;
  Micros next_replication = 0;

  while (!idle.empty()) {
    auto [due, u] = idle.top();
    idle.pop();
    if (due > clock.Now()) clock.Set(due);

    // Server tasks run on their own sim schedule between user actions.
    while (clock.Now() >= next_router) {
      for (Server* server : fleet) {
        Die(server->RunRouterOnce(*peers).status(), "router pass");
      }
      // Replication sessions at most once a second, checked each tick.
      if (clock.Now() >= next_replication) {
        next_replication = clock.Now() + 1'000'000;
        scheduler.RunAllDue();
      }
      next_router += 500'000;
    }

    Database* db = fleet[home_of[u]]->FindDatabase(kDiscussionFile);
    const std::string& user = user_names[u];
    int roll = static_cast<int>(rng.Uniform(100));
    size_t op;
    if (roll < 20) op = 0;        // open view
    else if (roll < 50) op = 1;   // read note
    else if (roll < 70) op = 2;   // send mail
    else if (roll < 90) op = 3;   // edit document
    else op = 4;                  // full-text search

    Stopwatch watch;
    switch (op) {
      case 0: {  // Open the categorized view at a pinned snapshot.
        Database::ReadTxn txn(db);
        const ViewIndex* view = db->FindView("Topics");
        if (view == nullptr) Violation("view Topics missing on a replica");
        size_t rows = 0;
        view->TraverseAt(txn.epoch(), [&](const ViewRow&) { ++rows; });
        break;
      }
      case 1: {  // Read a handful of topics under one snapshot pin.
        Database::ReadTxn txn(db);
        for (int r = 0; r < 3; ++r) {
          const Unid& unid = topics[rng.Uniform(topics.size())];
          if (!db->ReadNoteByUnid(unid).ok()) ++op_errors;
        }
        break;
      }
      case 2: {  // Send a memo through the home server's router.
        std::vector<std::string> to;
        size_t fanout = 1 + rng.Uniform(3);
        for (size_t r = 0; r < fanout; ++r) {
          to.push_back(user_names[rng.Uniform(user_names.size())]);
        }
        Note memo = MakeMailMessage(user, to, rng.Word(4, 12),
                                    rng.Word(20, 60));
        memo.SetTime("PostedDate", clock.Now());
        Status sent = fleet[home_of[u]]->router()->Submit(std::move(memo));
        if (sent.ok()) {
          expected_copies += to.size();
        } else {
          ++op_errors;
        }
        break;
      }
      case 3: {  // Edit a topic on the local replica.
        auto note = db->ReadNoteByUnid(topics[rng.Uniform(topics.size())]);
        if (!note.ok()) {
          ++op_errors;
          break;
        }
        note->SetText("Subject", std::string(kKeywords[rng.Uniform(
                                     kNumKeywords)]) +
                                     " edited by " + user);
        Status updated = db->UpdateNote(*std::move(note));
        if (updated.IsConflict()) {
          ++edit_conflicts;  // replica raced an incoming replication
        } else if (!updated.ok()) {
          ++op_errors;
        }
        break;
      }
      default: {  // Full-text search as this user (ACL-checked).
        auto hits = db->SearchAs(Principal::User(user),
                                 kKeywords[rng.Uniform(kNumKeywords)]);
        if (!hits.ok()) ++op_errors;
        break;
      }
    }
    uint64_t micros = static_cast<uint64_t>(watch.ElapsedMicros());
    combined->Record(micros);
    per_op[op]->Record(micros);

    if (--ops_left[u] > 0) {
      idle.emplace(clock.Now() + rng.Range(200'000, 2'000'000), u);
    }
  }

  // -- Quiesce: drain mail, converge replicas, flush indexers --------------
  for (int round = 0; round < 10; ++round) {
    auto passes = Server::DrainRouters(fleet, 20);
    Die(passes.status(), "final router drain");
    clock.Advance(1'000'000);
    bool empty = true;
    for (Server* server : fleet) {
      if (server->router()->mailbox()->note_count() != 0) empty = false;
    }
    if (empty) break;
  }
  Die(scheduler.RunUntilConverged(50).status(), "final convergence");
  for (Database* replica : replicas) {
    Die(replica->FlushIndexes(), "flush indexes");
  }

  // Mail simulated latency: PostedDate → DeliveredDate across inboxes.
  stats::Histogram* mail_latency =
      &registry.GetHistogram("Workload.MailSimLatency.Micros");
  for (int u = 0; u < users; ++u) {
    Database* inbox = fleet[home_of[u]]->MailFileOf(user_names[u]);
    if (inbox == nullptr) continue;
    inbox->ForEachLiveNote([&](const Note& note) {
      Micros posted = note.GetTime("PostedDate");
      Micros delivered = note.GetTime("DeliveredDate");
      if (posted > 0 && delivered >= posted) {
        mail_latency->Record(static_cast<uint64_t>(delivered - posted));
      }
    });
  }

  // -- End-of-run invariants ------------------------------------------------
  uint64_t delivered = 0, dead = 0;
  for (Server* server : fleet) {
    const MailStats& mail = server->router()->stats();
    delivered += mail.delivered;
    dead += mail.dead_lettered;
    // The router erases what it routes: a drained mail.box holds no
    // memo and no deletion stub.
    const Database* box = server->router()->mailbox();
    if (box->note_count() != 0 || box->stub_count() != 0) {
      Violation("mail.box not drained on " + server->name());
    }
  }
  if (delivered + dead != expected_copies) {
    Violation("mail accounting: delivered " + std::to_string(delivered) +
              " + dead " + std::to_string(dead) + " != submitted copies " +
              std::to_string(expected_copies));
  }
  const stats::Gauge* live = registry.FindGauge("Db.Mvcc.LiveVersions");
  if (live != nullptr && live->value() != 0) {
    Violation("Db.Mvcc.LiveVersions = " + std::to_string(live->value()) +
              " after quiesce (expected 0)");
  }
  if (!DatabasesConverged(replicas)) {
    Violation("discussion replicas did not converge");
  }

  // -- Report ---------------------------------------------------------------
  printf("\n-- %d users, %d servers, %d ops/user "
         "(conflicts %llu, op errors %llu, dead mail %llu) --\n",
         users, num_servers, ops_per_user,
         (unsigned long long)edit_conflicts, (unsigned long long)op_errors,
         (unsigned long long)dead);
  printf("%-22s %8s %8s %8s %8s %8s\n", "op", "count", "p50us", "p95us",
         "p99us", "maxus");
  for (size_t i = 0; i < kNumOps; ++i) {
    printf("%-22s %8llu %8llu %8llu %8llu %8llu\n", kOpNames[i],
           (unsigned long long)per_op[i]->count(),
           (unsigned long long)per_op[i]->Percentile(0.50),
           (unsigned long long)per_op[i]->Percentile(0.95),
           (unsigned long long)per_op[i]->Percentile(0.99),
           (unsigned long long)per_op[i]->max());
  }
  printf("%-22s %8llu %8llu %8llu %8llu %8llu\n", "ALL",
         (unsigned long long)combined->count(),
         (unsigned long long)combined->Percentile(0.50),
         (unsigned long long)combined->Percentile(0.95),
         (unsigned long long)combined->Percentile(0.99),
         (unsigned long long)combined->max());
  printf("mail sim latency: p50 %.1f ms, p95 %.1f ms (%llu copies)\n",
         mail_latency->Percentile(0.50) / 1000.0,
         mail_latency->Percentile(0.95) / 1000.0,
         (unsigned long long)mail_latency->count());
  printf("\nSTATS bench_workload_u%d %s\n", users,
         registry.Snapshot().ToJson().c_str());

  SweepResult result;
  result.users = users;
  result.combined_p50 = combined->Percentile(0.50);
  result.combined_p95 = combined->Percentile(0.95);
  result.combined_p99 = combined->Percentile(0.99);
  result.edit_conflicts = edit_conflicts;
  return result;
}

}  // namespace

int main() {
  PrintHeader("E17 — NotesBench-style macro workload",
              "the build sustains the classic groupware mix (view opens, "
              "reads, mail, edits, search) for tens of concurrent users "
              "within a millisecond-scale p95 latency SLO");

  const char* slo_env = std::getenv("DOMINO_WORKLOAD_SLO_US");
  const uint64_t slo_us =
      slo_env != nullptr && slo_env[0] != '\0'
          ? static_cast<uint64_t>(std::strtoull(slo_env, nullptr, 10))
          : 5000;
  const int num_servers = ScaleN(3, 2);
  const int ops_per_user = ScaleN(40, 6);

  std::vector<SweepResult> sweep;
  for (int users : {ScaleN(16, 2), ScaleN(48, 4), ScaleN(96, 6)}) {
    sweep.push_back(RunPoint(users, num_servers, ops_per_user));
  }

  printf("\n%-8s %10s %10s %10s   %s\n", "users", "p50us", "p95us", "p99us",
         "p95<SLO?");
  int sustained = 0;
  for (const SweepResult& point : sweep) {
    bool within = point.combined_p95 < slo_us;
    if (within) sustained = std::max(sustained, point.users);
    printf("%-8d %10llu %10llu %10llu   %s\n", point.users,
           (unsigned long long)point.combined_p50,
           (unsigned long long)point.combined_p95,
           (unsigned long long)point.combined_p99, within ? "yes" : "no");
  }
  printf("\nHEADLINE: %d users sustained at p95 < %llu us\n", sustained,
         (unsigned long long)slo_us);
  return 0;
}
