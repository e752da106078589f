// `discussion`: one server, one discussion database about 3x larger than
// its buffer pool, with a categorized view, a full-text index and reader
// fields on some documents. Three closed-loop clients read, open
// categories, search and edit. The set-up bulk-loads the topics, then
// restarts the server with the group-commit log.

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "base/clock.h"
#include "harness.h"
#include "security/acl.h"
#include "server/server.h"

namespace perfbench {
namespace {

using namespace dominodb;

constexpr size_t kCachePages = 256;     // 1 MiB: a third of the data
constexpr size_t kTopics = 2250;        // about 3 MiB of note pages
constexpr size_t kCategories = 500;
constexpr size_t kVocabulary = 4000;
constexpr size_t kBodyWords = 120;
// With the server's indexer thread, a fourth client oversubscribes a
// 4-core machine; the convoys that follow spread run-to-run results
// several times wider than three clients do.
constexpr size_t kClients = 3;
constexpr int kSetupRepeats = 3;
constexpr double kWarmupSeconds = 5;
constexpr int kMaxEditAttempts = 50;
constexpr const char* kFile = "disc.nsf";
constexpr const char* kView = "ByCategory";

// Seeded inputs, generated once and shared read-only by every client.
struct Corpus {
  std::vector<std::string> vocab;
  std::vector<std::string> categories;
  std::vector<Note> topics;
  std::vector<std::string> base_subjects;
};

std::string Body(const Corpus& corpus, const Zipf& words, Rng* rng) {
  std::string body;
  for (size_t w = 0; w < kBodyWords; ++w) {
    body += corpus.vocab[words.Sample(rng)];
    body.push_back(' ');
  }
  return body;
}

Corpus MakeCorpus(uint64_t seed) {
  Corpus corpus;
  Rng rng(seed);
  corpus.vocab = MakeVocabulary(&rng, kVocabulary);
  for (size_t c = 0; c < kCategories; ++c) {
    char name[16];
    std::snprintf(name, sizeof(name), "cat%03zu", c);
    corpus.categories.push_back(name);
  }
  Zipf words(kVocabulary, 1.0);
  for (size_t t = 0; t < kTopics; ++t) {
    Note doc(NoteClass::kDocument);
    std::string subject = corpus.vocab[rng.Uniform(kVocabulary)] + " " +
                          corpus.vocab[words.Sample(&rng)] + " " +
                          corpus.vocab[words.Sample(&rng)];
    doc.SetText("Form", "Topic");
    doc.SetText("Subject", subject);
    doc.SetText("Category", corpus.categories[rng.Uniform(kCategories)]);
    doc.SetItem("Body",
                Value::RichText({RichTextRun{Body(corpus, words, &rng), 0, ""}}));
    if (rng.Uniform(10) == 0) {  // one topic in ten is restricted
      doc.SetItem("DocReaders",
                  Value::TextList({"user" + std::to_string(rng.Uniform(kClients)),
                                   "[Moderator]"}),
                  kItemReaders | kItemNames);
    }
    corpus.base_subjects.push_back(subject);
    corpus.topics.push_back(std::move(doc));
  }
  return corpus;
}

struct Fleet {
  SystemClock clock;
  std::unique_ptr<Server> server;
  Database* db = nullptr;
  std::vector<Unid> unids;  // by topic index
  std::map<std::string, std::set<Unid>> members;  // category -> topics
};

Status Seed(const Corpus& corpus, const std::string& dir, Fleet* fleet) {
  DatabaseOptions options;
  options.title = "Discussion";
  options.store = ExplicitStore(kCachePages);
  {
    Server loader("srv0", dir, &fleet->clock, nullptr, nullptr);
    DOMINO_RETURN_IF_ERROR(loader.EnableSharedLog(BulkLoadLog()));
    DOMINO_ASSIGN_OR_RETURN(Database * db, loader.OpenDatabase(kFile, options));
    for (size_t t = 0; t < corpus.topics.size(); ++t) {
      DOMINO_ASSIGN_OR_RETURN(NoteId id, db->CreateNote(corpus.topics[t]));
      DOMINO_ASSIGN_OR_RETURN(Note stored, db->ReadNote(id));
      fleet->unids.push_back(stored.unid());
      fleet->members[stored.GetText("Category")].insert(stored.unid());
    }
    DOMINO_RETURN_IF_ERROR(
        db->CreateView(CategoryView(kView, "SELECT Form = \"Topic\""))
            .status());
    DOMINO_RETURN_IF_ERROR(db->Checkpoint());
  }
  // Restart: reopening rebuilds the view from its design note.
  fleet->server = std::make_unique<Server>("srv0", dir, &fleet->clock,
                                           nullptr, nullptr);
  DOMINO_RETURN_IF_ERROR(fleet->server->EnableSharedLog(GroupCommitLog()));
  DOMINO_RETURN_IF_ERROR(fleet->server->StartIndexer(1));
  DOMINO_ASSIGN_OR_RETURN(fleet->db,
                          fleet->server->OpenDatabase(kFile, options));
  if (fleet->db->FindView(kView) == nullptr) {
    return Status::Corruption("view missing after restart");
  }
  DOMINO_RETURN_IF_ERROR(fleet->db->EnsureFullTextIndex());
  DOMINO_RETURN_IF_ERROR(fleet->db->FlushIndexes());
  // Write the pages out so the buffer pool holds clean, evictable pages.
  return fleet->db->Checkpoint();
}

bool HasReader(const Note& note, const std::string& user) {
  const Value* readers = note.FindValue("DocReaders");
  if (readers == nullptr) return true;
  for (const std::string& name : readers->texts()) {
    if (name == user) return true;
  }
  return false;
}

// One closed-loop client. Only calls Database.
class Client {
 public:
  Client(const Corpus& corpus, const Fleet& fleet, Violations* violations,
         size_t index, uint64_t seed)
      : corpus_(corpus),
        fleet_(fleet),
        db_(fleet.db),
        view_(fleet.db->FindView(kView)),
        violations_(violations),
        user_("user" + std::to_string(index)),
        rng_(seed),
        topics_(kTopics, 0.99),
        words_(kVocabulary, 1.0),
        index_(index) {}

  void Run(double deadline_us) {
    while (NowMicros() < deadline_us) {
      BeginOperation();
      uint64_t roll = rng_.Uniform(100);
      if (roll < 60) {
        Read();
      } else if (roll < 75) {
        Lookup();
      } else if (roll < 90) {
        Search();
      } else {
        Edit();
      }
      ++tally_.ops;
    }
  }

  ClientTally& tally() { return tally_; }

 private:
  void Read() {
    Span op("op.read");
    size_t topic = topics_.Sample(&rng_);
    const Unid& unid = fleet_.unids[topic];
    double start = NowMicros();
    std::optional<Database::ReadTxn> txn;
    {
      Span span("core.pin");
      txn.emplace(db_);
    }
    Result<Note> note = [&] {
      Span span("core.read");
      return db_->ReadNoteByUnid(unid);
    }();
    tally_.read.Add(NowMicros() - start);
    if (!note.ok()) {
      ++tally_.failed;
    } else if (note->unid() != unid) {
      violations_->Record("read returned a different UNID");
    }
  }

  void Lookup() {
    Span op("op.view");
    const std::string& category = corpus_.categories[rng_.Uniform(kCategories)];
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
    static const std::set<Unid> kEmpty;
    auto it = fleet_.members.find(category);
    const std::set<Unid>& model = it == fleet_.members.end() ? kEmpty : it->second;
    bool match = rows.size() == model.size();
    for (const ViewEntry* row : rows) match = match && model.count(row->unid);
    if (!match) violations_->Record("view rows differ from model: " + category);
  }

  void Search() {
    Span op("op.search");
    // Mid-frequency terms: common enough to hit, rare enough to be selective.
    const std::string& term = corpus_.vocab[50 + rng_.Uniform(kVocabulary - 50)];
    double start = NowMicros();
    Result<std::vector<Note>> hits = [&] {
      Span span("fulltext.search");
      return db_->SearchAs(Principal::User(user_), term);
    }();
    tally_.search.Add(NowMicros() - start);
    if (!hits.ok()) {
      ++tally_.failed;
      return;
    }
    tally_.search_hits += hits->size();
    for (const Note& hit : *hits) {
      if (!HasReader(hit, user_)) {
        violations_->Record("search returned a document " + user_ +
                            " may not read");
      }
    }
  }

  void Edit() {
    Span op("op.edit");
    size_t topic = topics_.Sample(&rng_);
    const Unid& unid = fleet_.unids[topic];
    std::string subject = corpus_.base_subjects[topic] + " r" +
                          std::to_string(index_) + "x" +
                          std::to_string(++edits_);
    std::string body = Body(corpus_, words_, &rng_);
    double start = NowMicros();
    uint32_t committed_seq = 0;
    for (int attempt = 0; attempt < kMaxEditAttempts; ++attempt) {
      Result<Note> note = db_->ReadNoteByUnid(unid);
      if (!note.ok()) break;
      note->SetText("Subject", subject);
      note->SetItem("Body", Value::RichText({RichTextRun{body, 0, ""}}));
      uint32_t seq = note->sequence() + 1;
      uint64_t bytes = note->ByteSize();
      Status status = [&] {
        Span span("core.commit");
        return db_->UpdateNote(*std::move(note));
      }();
      if (status.ok()) {
        committed_seq = seq;
        tally_.user_bytes += bytes;
        break;
      }
      if (!status.IsConflict()) break;
      ++tally_.conflict_retries;
    }
    if (committed_seq == 0) {
      ++tally_.failed;
      return;
    }
    tally_.write.Add(NowMicros() - start);

    // The client returns to the category and sees its edit.
    const std::string& category = corpus_.topics[topic].GetText("Category");
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
    Result<Note> seen = db_->ReadNoteByUnid(unid);
    bool shown = false;
    for (const ViewEntry* row : rows) {
      if (row->unid == unid && seen.ok() &&
          row->ColumnText(1) == seen->GetText("Subject") &&
          seen->sequence() >= committed_seq) {
        shown = true;
      }
    }
    if (!shown) violations_->Record("edit not visible in its category");
  }

  const Corpus& corpus_;
  const Fleet& fleet_;
  Database* db_;
  const ViewIndex* view_;
  Violations* violations_;
  std::string user_;
  Rng rng_;
  Zipf topics_;
  Zipf words_;
  size_t index_;
  uint64_t edits_ = 0;
  ClientTally tally_;
};

}  // namespace

RunResult RunDiscussion(const Options& options) {
  RunResult result;
  Corpus corpus = MakeCorpus(options.seed);
  std::unique_ptr<Fleet> fleet;
  Status setup = RepeatSetup(
      kSetupRepeats, options.data_dir, [&] { fleet.reset(); },
      [&](const std::string& dir) {
        fleet = std::make_unique<Fleet>();
        return Seed(corpus, dir, fleet.get());
      },
      &result);
  if (!setup.ok()) {
    result.Violate("setup failed: " + setup.ToString());
    return result;
  }
  std::fprintf(stderr,
               "discussion: %zu topics, %llu bytes of note pages, buffer pool "
               "%zu pages (%zu bytes)\n",
               kTopics,
               static_cast<unsigned long long>(
                   fleet->db->store()->pages_size_bytes()),
               kCachePages, kCachePages * 4096);

  Violations violations;
  GaugePeaks peaks;
  uint64_t slices = 0;
  auto run_clients = [&](double seconds) {
    std::vector<std::unique_ptr<Client>> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>(
          corpus, *fleet, &violations, c,
          options.seed * 1000 + slices * kClients + c + 1));
    }
    ++slices;
    double start = NowMicros();
    double deadline = start + seconds * 1e6;
    std::vector<std::thread> threads;
    for (auto& client : clients) {
      threads.emplace_back([&client, deadline] { client->Run(deadline); });
    }
    peaks.SampleUntil(deadline);
    for (std::thread& thread : threads) thread.join();
    Slice slice;
    slice.seconds = (NowMicros() - start) / 1e6;
    slice.peak_rss_mb = PeakRssMb();
    for (auto& client : clients) slice.tally.Merge(client->tally());
    return slice;
  };
  // The set-up leaves the pool holding the last pages written; an untimed
  // warm-up lets it fill with the clients' working set first.
  run_clients(kWarmupSeconds);
  StatView before;
  Slice phase = RunTimedPhase(options, run_clients, &result);
  StatView after;

  // Quiesce, then check the outputs.
  {
    SetTracing(options.trace);
    Span span("indexer.flush");
    Status flushed = fleet->db->FlushIndexes();
    if (!flushed.ok()) result.Violate("flush: " + flushed.ToString());
  }
  SetTracing(false);
  if (options.trace) FillSpanMetrics(&result);
  if (violations.any()) result.Violate(violations.first());
  if (fleet->db->mvcc().live_versions() != 0 || peaks.live_versions() != 0) {
    result.Violate("Db.Mvcc.LiveVersions did not return to 0");
  }
  const ViewIndex* view = fleet->db->FindView(kView);
  for (const auto& [category, model] : fleet->members) {
    std::set<Unid> seen;
    for (const ViewEntry* row : view->FindByKey(Value::Text(category))) {
      seen.insert(row->unid);
    }
    if (seen != model) result.Violate("view differs from model: " + category);
  }
  // The first subject word of the first unrestricted topic must be found.
  size_t probe = 0;
  while (corpus.topics[probe].HasItem("DocReaders")) ++probe;
  const std::string& subject = corpus.base_subjects[probe];
  std::string term = subject.substr(0, subject.find(' '));
  auto hits = fleet->db->SearchAs(Principal::User("checker"), term);
  bool found = false;
  if (hits.ok()) {
    for (const Note& hit : *hits) found = found || hit.unid() == fleet->unids[probe];
  }
  if (!found) result.Violate("search for seeded term '" + term + "' missed");

  // A closing checkpoint writes every page out before the files are sized.
  Status checkpointed = fleet->db->Checkpoint();
  if (!checkpointed.ok()) result.Violate("checkpoint: " + checkpointed.ToString());
  uint64_t live_bytes = 0;
  fleet->db->ForEachLiveNote(
      [&](const Note& note) { live_bytes += note.ByteSize(); });
  FinishRun(phase, before, after, peaks, live_bytes, options.data_dir, &result);
  result.metrics["fulltext.bytes_per_doc"] = after.Get(Stat::kFtBytesPerDoc);
  result.metrics["storage.dead_bytes_end"] =
      static_cast<double>(fleet->db->store()->dead_bytes());
  fleet.reset();
  return result;
}

}  // namespace perfbench
