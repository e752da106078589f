#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>

#include "base/string_util.h"
#include "fulltext/fulltext_index.h"
#include "fulltext/tokenizer.h"
#include "stats/stats.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

TEST(TokenizerTest, SplitsAndFolds) {
  auto tokens = TokenizeText("Hello, World! C++20 rocks");
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"hello", "world", "20", "rocks"}));
  EXPECT_TRUE(TokenizeText("a . ! ?").empty());  // short tokens dropped
  EXPECT_EQ(TokenizeText("x1y2"), (std::vector<std::string>{"x1y2"}));
}

Note Doc(NoteId id, const std::string& subject, const std::string& body,
         const std::string& category = "") {
  Note note(NoteClass::kDocument);
  note.set_id(id);
  note.StampCreated(Unid{0xF7, id}, 1000 + id);
  note.SetText("Subject", subject);
  note.SetItem("Body", Value::RichText({RichTextRun{body, 0, ""}}));
  if (!category.empty()) note.SetText("Category", category);
  return note;
}

class FullTextFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.IndexNote(Doc(1, "Quarterly sales report",
                         "Revenue grew in the east region", "finance"));
    index_.IndexNote(Doc(2, "Meeting notes",
                         "Discussed the sales pipeline and hiring",
                         "minutes"));
    index_.IndexNote(Doc(3, "Vacation policy",
                         "Employees accrue vacation days monthly", "hr"));
    index_.IndexNote(Doc(4, "Sales kickoff",
                         "Sales sales sales: east and west targets",
                         "finance"));
  }

  std::vector<NoteId> Ids(const std::string& query) {
    auto hits = index_.Search(query);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    std::vector<NoteId> ids;
    if (hits.ok()) {
      for (const FtHit& h : *hits) ids.push_back(h.note_id);
    }
    return ids;
  }

  FullTextIndex index_;
};

TEST_F(FullTextFixture, SingleTerm) {
  auto ids = Ids("sales");
  ASSERT_EQ(ids.size(), 3u);
  // Doc 4 mentions "sales" most → highest score first.
  EXPECT_EQ(ids[0], 4u);
}

TEST_F(FullTextFixture, CaseInsensitive) {
  EXPECT_EQ(Ids("SALES").size(), 3u);
  EXPECT_EQ(Ids("Vacation").size(), 1u);
}

TEST_F(FullTextFixture, BooleanOperators) {
  EXPECT_EQ(Ids("sales AND east"), (std::vector<NoteId>{4, 1}));
  EXPECT_EQ(Ids("sales east").size(), 2u);  // implicit AND
  EXPECT_EQ(Ids("vacation OR hiring").size(), 2u);
  auto not_sales = Ids("NOT sales");
  EXPECT_EQ(not_sales, (std::vector<NoteId>{3}));
  EXPECT_EQ(Ids("sales AND NOT east"), (std::vector<NoteId>{2}));
  EXPECT_EQ(Ids("(vacation OR hiring) AND monthly"),
            (std::vector<NoteId>{3}));
}

TEST_F(FullTextFixture, PhraseSearch) {
  EXPECT_EQ(Ids("\"sales pipeline\""), (std::vector<NoteId>{2}));
  EXPECT_TRUE(Ids("\"pipeline sales\"").empty());
  EXPECT_EQ(Ids("\"east region\""), (std::vector<NoteId>{1}));
}

TEST_F(FullTextFixture, FieldContains) {
  EXPECT_EQ(Ids("FIELD Category CONTAINS finance").size(), 2u);
  EXPECT_EQ(Ids("FIELD Subject CONTAINS vacation"),
            (std::vector<NoteId>{3}));
  // "east" appears in bodies, not subjects of doc 1.
  EXPECT_TRUE(Ids("FIELD Subject CONTAINS east").empty());
}

TEST_F(FullTextFixture, IncrementalUpdateAndRemoval) {
  EXPECT_EQ(index_.doc_count(), 4u);
  // Update doc 3 to mention sales.
  index_.IndexNote(Doc(3, "Vacation policy", "sales staff vacation"));
  EXPECT_EQ(Ids("sales").size(), 4u);
  // Remove doc 4.
  index_.RemoveNote(4);
  EXPECT_EQ(index_.doc_count(), 3u);
  EXPECT_EQ(Ids("sales").size(), 3u);
  // Deletion stubs un-index automatically.
  Note stub = Doc(1, "", "");
  stub.MakeStub(99999);
  index_.IndexNote(stub);
  EXPECT_EQ(index_.doc_count(), 2u);
}

TEST_F(FullTextFixture, QuerySyntaxErrors) {
  EXPECT_FALSE(index_.Search("").ok());
  EXPECT_FALSE(index_.Search("(sales").ok());
  EXPECT_FALSE(index_.Search("\"open phrase").ok());
  EXPECT_FALSE(index_.Search("FIELD Subject sales").ok());
  EXPECT_FALSE(index_.Search("sales AND").ok());
}

TEST_F(FullTextFixture, MissingTermReturnsEmpty) {
  EXPECT_TRUE(Ids("zebra").empty());
  EXPECT_TRUE(Ids("sales AND zebra").empty());
  EXPECT_EQ(Ids("sales OR zebra").size(), 3u);
}

TEST_F(FullTextFixture, AttachmentNamesSearchable) {
  Note doc = Doc(9, "With attachment", "see file");
  doc.SetItem("Body2",
              Value::RichText({RichTextRun{"", 0, "budget_plan.xls"}}));
  index_.IndexNote(doc);
  EXPECT_EQ(Ids("budget"), (std::vector<NoteId>{9}));
}

TEST(FullTextIndexTest, StatsAndClear) {
  FullTextIndex index;
  index.IndexNote(Doc(1, "alpha beta", "gamma"));
  EXPECT_EQ(index.stats().notes_indexed, 1u);
  EXPECT_GT(index.stats().tokens_indexed, 0u);
  EXPECT_GT(index.term_count(), 0u);
  index.Clear();
  EXPECT_EQ(index.doc_count(), 0u);
  EXPECT_EQ(index.term_count(), 0u);
}

TEST(FullTextIndexTest, ResidentBytesGaugeTracksTheIndex) {
  stats::StatRegistry reg;
  FullTextIndex index(&reg);
  const stats::Gauge& resident = reg.GetGauge("Ft.Index.ResidentBytes");
  EXPECT_EQ(resident.value(), 0);
  index.IndexNote(Doc(1, "alpha beta", "gamma delta"));
  const int64_t one = resident.value();
  EXPECT_GT(one, 0);
  EXPECT_EQ(static_cast<size_t>(one), index.ResidentBytes());
  // Postings are only part of what the index keeps.
  EXPECT_GT(index.ResidentBytes(), index.ByteUsage());
  index.IndexNote(Doc(2, "epsilon zeta", "eta theta alpha"));
  EXPECT_GT(resident.value(), one);
  index.Clear();
  EXPECT_EQ(resident.value(), 0);
  EXPECT_EQ(index.ResidentBytes(), 0u);
}

TEST(FullTextIndexTest, UncompressedModelBytesTracksTheIndex) {
  // E5 divides this by ByteUsage() for its compression ratio.
  FullTextIndex index;
  EXPECT_EQ(index.UncompressedModelBytes(), 0u);
  index.IndexNote(Doc(1, "alpha beta", "gamma delta"));
  const size_t one = index.UncompressedModelBytes();
  EXPECT_GT(one, 0u);
  index.IndexNote(Doc(2, "epsilon zeta", "eta theta alpha"));
  EXPECT_GT(index.UncompressedModelBytes(), one);
  EXPECT_GT(index.UncompressedModelBytes(), index.ByteUsage());
  index.Clear();
  EXPECT_EQ(index.UncompressedModelBytes(), 0u);
}

TEST(FullTextIndexTest, NonDocumentsNotIndexed) {
  FullTextIndex index;
  Note view_note(NoteClass::kView);
  view_note.set_id(5);
  view_note.StampCreated(Unid{1, 5}, 10);
  view_note.SetText("$Title", "searchable view title");
  index.IndexNote(view_note);
  EXPECT_EQ(index.doc_count(), 0u);
}

TEST(FullTextIndexTest, PhraseDoesNotSpanFields) {
  FullTextIndex index;
  Note doc(NoteClass::kDocument);
  doc.set_id(1);
  doc.StampCreated(Unid{1, 1}, 10);
  doc.SetText("A", "hello");
  doc.SetText("B", "world");
  index.IndexNote(doc);
  auto hits = index.Search("\"hello world\"");
  ASSERT_OK(hits);
  EXPECT_TRUE(hits->empty());
}

// ---------------------------------------------------------------------------
// Differential test: a fresh build and an incremental history that end in
// the same corpus answer every query alike, and both agree with a
// brute-force scan of the notes.
// ---------------------------------------------------------------------------

const std::vector<std::string>& Vocab() {
  static const std::vector<std::string> words = {
      "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
      "golf",  "hotel", "india",   "juliet", "kilo", "lima"};
  return words;
}

const std::vector<std::string>& FieldNames() {
  static const std::vector<std::string> names = {"Subject", "Body", "Tags",
                                                 "Category"};
  return names;
}

/// A random case variant of `name` (Subject, subject or SUBJECT).
std::string CaseVariant(std::mt19937* rng, const std::string& name) {
  switch ((*rng)() % 3) {
    case 0:
      return name;
    case 1:
      return ToLower(name);
    default:
      return ToUpper(name);
  }
}

std::string RandomWords(std::mt19937* rng, int min_words, int max_words) {
  const int n = min_words + static_cast<int>((*rng)() % (max_words -
                                                         min_words + 1));
  std::string text;
  for (int i = 0; i < n; ++i) {
    if (i > 0) text += (*rng)() % 4 == 0 ? ", " : " ";
    std::string word = Vocab()[(*rng)() % Vocab().size()];
    if ((*rng)() % 5 == 0) word = ToUpper(word);
    text += word;
  }
  return text;
}

Note RandomNote(std::mt19937* rng, NoteId id, int version) {
  Note note(NoteClass::kDocument);
  note.set_id(id);
  note.StampCreated(Unid{0xD1F, id}, 1000 + id);
  std::vector<Item>& items = note.mutable_items();
  const int item_count = 1 + static_cast<int>((*rng)() % 4);
  for (int i = 0; i < item_count; ++i) {
    Item item;
    item.name = CaseVariant(rng, FieldNames()[(*rng)() % FieldNames().size()]);
    switch ((*rng)() % 4) {
      case 0:
        item.value = Value::Text(RandomWords(rng, 0, 6));
        break;
      case 1:
        item.value = Value::TextList(
            {RandomWords(rng, 1, 3), RandomWords(rng, 1, 3)});
        break;
      case 2: {
        std::string attachment =
            (*rng)() % 2 == 0 ? "" : Vocab()[(*rng)() % Vocab().size()] +
                                         ".txt";
        item.value = Value::RichText(
            {RichTextRun{RandomWords(rng, 1, 8), 0, attachment}});
        break;
      }
      default:
        item.value = Value::Number(id);  // not indexed
        break;
    }
    items.push_back(item);
    // Now and then a second item with the same (or a re-cased) name.
    if ((*rng)() % 4 == 0) {
      Item twin;
      twin.name = CaseVariant(rng, item.name);
      twin.value = Value::Text(RandomWords(rng, 1, 5));
      items.push_back(twin);
    }
  }
  // A word only this version of the note carries.
  Item marker;
  marker.name = "Marker";
  marker.value = Value::Text("ver" + std::to_string(version) + "doc" +
                             std::to_string(id));
  items.push_back(marker);
  return note;
}

/// Each indexed item of a note as (lower-cased name, tokens), by the
/// index's rules: text lists and rich-text runs concatenate within one
/// item.
std::vector<std::pair<std::string, std::vector<std::string>>> ItemTokens(
    const Note& note) {
  std::vector<std::pair<std::string, std::vector<std::string>>> out;
  for (const Item& item : note.items()) {
    std::vector<std::string> tokens;
    auto add = [&](const std::string& text) {
      for (std::string& t : TokenizeText(text)) tokens.push_back(t);
    };
    if (item.value.is_text()) {
      for (const std::string& s : item.value.texts()) add(s);
    } else if (item.value.is_richtext()) {
      for (const RichTextRun& run : item.value.runs()) {
        add(run.text);
        if (!run.attachment_name.empty()) add(run.attachment_name);
      }
    }
    if (!tokens.empty()) out.emplace_back(ToLower(item.name), tokens);
  }
  return out;
}

bool ContainsRun(const std::vector<std::string>& tokens,
                 const std::vector<std::string>& phrase) {
  if (phrase.size() > tokens.size()) return false;
  for (size_t i = 0; i + phrase.size() <= tokens.size(); ++i) {
    if (std::equal(phrase.begin(), phrase.end(), tokens.begin() + i)) {
      return true;
    }
  }
  return false;
}

/// Brute-force answer: ids of the notes with an item (named `field`,
/// when given) holding `phrase` at consecutive positions.
std::set<NoteId> ScanIds(const std::map<NoteId, Note>& corpus,
                         const std::string& field,
                         const std::vector<std::string>& phrase) {
  std::set<NoteId> ids;
  for (const auto& [id, note] : corpus) {
    for (const auto& [name, tokens] : ItemTokens(note)) {
      if (!field.empty() && name != ToLower(field)) continue;
      if (ContainsRun(tokens, phrase)) ids.insert(id);
    }
  }
  return ids;
}

std::set<NoteId> AllIds(const std::map<NoteId, Note>& corpus) {
  std::set<NoteId> ids;
  for (const auto& entry : corpus) ids.insert(entry.first);
  return ids;
}

std::set<NoteId> Minus(const std::set<NoteId>& a, const std::set<NoteId>& b) {
  std::set<NoteId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::inserter(out, out.end()));
  return out;
}

TEST(FullTextDifferentialTest, FreshAndIncrementalAgreeWithAScan) {
  constexpr NoteId kDocs = 80;
  constexpr NoteId kTransient = 10;  // indexed, then removed
  std::mt19937 rng(20260519);

  std::map<NoteId, Note> corpus;
  for (NoteId id = 1; id <= kDocs; ++id) {
    corpus.emplace(id, RandomNote(&rng, id, 2));
  }
  // Two same-named items whose boundary a phrase must not cross.
  {
    Note& note = corpus.at(kDocs);
    Item first{"Body", Value::Text("golf kilo"), kItemSummary, 0};
    Item second{"BODY", Value::Text("zulu yankee"), kItemSummary, 0};
    note.mutable_items().push_back(first);
    note.mutable_items().push_back(second);
  }

  FullTextIndex fresh;
  fresh.BuildFrom([&](const std::function<void(const Note&)>& fn) {
    for (const auto& entry : corpus) fn(entry.second);
  });

  // Incremental: draft versions in shuffled order, transient notes, then
  // the final versions in another order, then the transients go away
  // (some as deletion stubs).
  FullTextIndex incremental;
  std::vector<NoteId> order;
  for (NoteId id = 1; id <= kDocs; ++id) order.push_back(id);
  std::shuffle(order.begin(), order.end(), rng);
  for (NoteId id : order) incremental.IndexNote(RandomNote(&rng, id, 1));
  for (NoteId id = kDocs + 1; id <= kDocs + kTransient; ++id) {
    Note note = RandomNote(&rng, id, 1);
    note.SetText("Only", "transientword");
    incremental.IndexNote(note);
  }
  ASSERT_NE(incremental.FindTerm("transientword"), nullptr);
  std::shuffle(order.begin(), order.end(), rng);
  for (NoteId id : order) incremental.IndexNote(corpus.at(id));
  for (NoteId id = kDocs + 1; id <= kDocs + kTransient; ++id) {
    if (id % 2 == 0) {
      incremental.RemoveNote(id);
    } else {
      Note stub = RandomNote(&rng, id, 1);
      stub.MakeStub(99999);
      incremental.IndexNote(stub);
    }
  }

  // Terms whose last document went away are gone, not merely empty.
  EXPECT_EQ(incremental.FindTerm("transientword"), nullptr);
  EXPECT_EQ(incremental.FindTerm("ver1doc1"), nullptr);
  EXPECT_NE(incremental.FindTerm("ver2doc1"), nullptr);
  EXPECT_EQ(incremental.doc_count(), fresh.doc_count());
  EXPECT_EQ(incremental.term_count(), fresh.term_count());

  struct Case {
    std::string query;
    std::set<NoteId> expected;
  };
  std::vector<Case> cases;
  const std::set<NoteId> all = AllIds(corpus);
  for (const std::string& w : Vocab()) {
    cases.push_back({w, ScanIds(corpus, "", {w})});
    cases.push_back({"NOT " + w, Minus(all, ScanIds(corpus, "", {w}))});
    for (const std::string& field : FieldNames()) {
      cases.push_back({"FIELD " + CaseVariant(&rng, field) + " CONTAINS " + w,
                       ScanIds(corpus, field, {w})});
    }
  }
  for (int i = 0; i < 40; ++i) {
    const std::string& a = Vocab()[rng() % Vocab().size()];
    const std::string& b = Vocab()[rng() % Vocab().size()];
    cases.push_back({"\"" + a + " " + b + "\"", ScanIds(corpus, "", {a, b})});
    const std::string& field = FieldNames()[rng() % FieldNames().size()];
    cases.push_back({"FIELD " + field + " CONTAINS \"" + a + " " + b + "\"",
                     ScanIds(corpus, field, {a, b})});
  }
  // Across the two Body items of the last note: within each item the
  // words are adjacent, across the boundary they are not.
  cases.push_back({"FIELD body CONTAINS \"zulu yankee\"",
                   ScanIds(corpus, "body", {"zulu", "yankee"})});
  cases.push_back({"FIELD body CONTAINS \"kilo zulu\"", {}});
  cases.push_back({"\"kilo zulu\"", {}});
  ASSERT_EQ(ScanIds(corpus, "body", {"zulu", "yankee"}),
            (std::set<NoteId>{kDocs}));

  size_t nonempty = 0;
  for (const Case& c : cases) {
    auto a = fresh.Search(c.query);
    auto b = incremental.Search(c.query);
    ASSERT_OK(a);
    ASSERT_OK(b);
    ASSERT_EQ(a->size(), b->size()) << c.query;
    std::set<NoteId> ids;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].note_id, (*b)[i].note_id) << c.query;
      EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score) << c.query;
      ids.insert((*a)[i].note_id);
    }
    EXPECT_EQ(ids, c.expected) << c.query;
    if (!ids.empty()) ++nonempty;
  }
  // The corpus is dense enough that most queries hit something.
  EXPECT_GT(nonempty, cases.size() / 2);
}

}  // namespace
}  // namespace dominodb
