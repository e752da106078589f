#ifndef DOMINODB_FULLTEXT_FULLTEXT_INDEX_H_
#define DOMINODB_FULLTEXT_FULLTEXT_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/shared_mutex.h"
#include "base/thread_annotations.h"
#include "fulltext/postings.h"
#include "model/note.h"
#include "stats/stats.h"

namespace dominodb {

/// A scored full-text hit.
struct FtHit {
  NoteId note_id = kInvalidNoteId;
  double score = 0;
};

struct FtStats {
  /// All fields are relaxed atomics: maintenance mutates them under the
  /// index's exclusive lock, but stats readers peek without locking, and
  /// concurrent Search calls bump `queries` under the shared lock.
  std::atomic<uint64_t> notes_indexed{0};
  std::atomic<uint64_t> notes_removed{0};
  std::atomic<uint64_t> tokens_indexed{0};
  std::atomic<uint64_t> queries{0};
};

/// Per-database inverted index over text and rich-text items, maintained
/// incrementally as documents change (the GTR-engine substitute). The
/// query language supports terms, "phrases", AND/OR/NOT, parentheses and
/// `FIELD name CONTAINS term`.
///
/// Threading: an internal reader/writer lock is taken at the public entry
/// points — maintenance (IndexNote/RemoveNote/Clear/BuildFrom) exclusive,
/// Search shared for its whole run. The evaluator-internals section below
/// (FindTerm, MaterializeFieldTerm, all_docs, IdfOf) is deliberately
/// lock-free: those are called from inside Search's query evaluation,
/// which already holds the shared lock, and re-acquiring a shared lock on
/// the same thread is undefined. External callers of the internals must
/// not race them with mutators. Standalone use needs no extra locking.
class FullTextIndex {
 public:
  /// `stats` (nullable → the global registry) receives the server-wide
  /// `Database.FullText.*` counters alongside the per-index FtStats.
  explicit FullTextIndex(stats::StatRegistry* stats = nullptr);

  /// Adds or re-indexes a note (deletion stubs are removed). Only
  /// kDocument notes are indexed.
  void IndexNote(const Note& note);
  void RemoveNote(NoteId id);
  void Clear();

  /// Full rebuild (UPDALL-style): clears the index, then indexes every
  /// note `for_each_note` yields, through the same path as IndexNote.
  /// Notes yielded in ascending id order (the store's scan order) keep
  /// every posting insert on PostingList's append path.
  void BuildFrom(
      const std::function<void(const std::function<void(const Note&)>&)>&
          for_each_note);

  /// Runs a query; results are sorted by descending TF-IDF score.
  Result<std::vector<FtHit>> Search(std::string_view query) const;

  size_t doc_count() const;
  size_t term_count() const;
  const FtStats& stats() const { return stats_; }

  /// Actual posting storage footprint in bytes (delta+varint blocks plus
  /// skip entries), and what the pre-compression representation (a map
  /// node + positions vector per doc per term) would cost. The ratio is
  /// the several-fold reduction E5 reports; `Ft.Index.BytesPerDoc`
  /// publishes ByteUsage()/doc_count as a gauge.
  size_t ByteUsage() const;
  size_t UncompressedModelBytes() const;

  /// Everything the index keeps resident: the postings (ByteUsage), the
  /// per-document records and the term/field dictionary. Published as
  /// the `Ft.Index.ResidentBytes` gauge.
  size_t ResidentBytes() const;

  // -- Internals shared with the query evaluator ------------------------
  struct Posting {
    // Positions of the term in the document (token offsets; fields are
    // separated by position gaps so phrases never span fields).
    std::vector<uint32_t> positions;
  };
  using PostingMap = std::map<NoteId, Posting>;

  /// The term's compressed posting list; null when the term is unknown.
  /// Query evaluation iterates it with PostingList::Cursor.
  const PostingList* FindTerm(const std::string& term) const;
  /// Reconstitutes a `FIELD name CONTAINS term` posting map: the term's
  /// positions that fall inside the document's ranges for the field
  /// (matched case-insensitively); empty when the pair never occurs.
  PostingMap MaterializeFieldTerm(const std::string& field,
                                  const std::string& term) const;
  const std::set<NoteId>& all_docs() const { return docs_; }
  double IdfOf(const std::string& term) const;

 private:
  /// The positions [begin, end) one indexed item's tokens occupy. `field`
  /// is the item name's id in field_ids_; same-named items give several
  /// ranges.
  struct FieldRange {
    uint32_t field = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  /// All the index keeps per document besides its postings.
  struct DocRecord {
    uint32_t length = 0;             // tokens indexed
    std::vector<uint32_t> terms;     // sorted, distinct term ids
    std::vector<FieldRange> fields;  // one per indexed item, in order
  };
  /// One token occurrence while a note is tokenized.
  struct TermPosition {
    uint32_t term = 0;
    uint32_t position = 0;
  };

  void IndexNoteLocked(const Note& note) REQUIRES(mu_);
  void RemoveNoteLocked(NoteId id) REQUIRES(mu_);
  void ClearLocked() REQUIRES(mu_);
  /// Appends `text`'s tokens to hit_buf_, numbering from `*position`.
  void AppendTokens(std::string_view text, uint32_t* position) REQUIRES(mu_);
  uint32_t InternTerm(const std::string& term) REQUIRES(mu_);
  uint32_t InternField(std::string_view name) REQUIRES(mu_);
  /// Returns an emptied term's id to the free list.
  void ReleaseTerm(uint32_t id) REQUIRES(mu_);
  void RefreshByteStats() REQUIRES(mu_);
  /// Heap a record costs, counted into record_bytes_.
  static size_t RecordBytes(const DocRecord& record);

  /// Guards the containers below. The fields themselves stay unannotated
  /// so the lock-free evaluator internals (see class comment) compile;
  /// the REQUIRES on the Locked helpers still pins the write discipline.
  mutable SharedMutex mu_;

  // The term dictionary: term -> id, id -> compressed postings. An id
  // whose last document is removed leaves the dictionary and is reused.
  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<const std::string*> term_names_;  // id -> key in term_ids_
  std::vector<PostingList> postings_;
  std::vector<uint32_t> free_term_ids_;
  // Lower-cased item name -> field id (FieldRange::field).
  std::unordered_map<std::string, uint32_t> field_ids_;
  std::unordered_map<NoteId, DocRecord> records_;
  std::set<NoteId> docs_;
  mutable FtStats stats_;
  size_t posting_bytes_ = 0;  // sum of PostingList::byte_size()
  size_t model_bytes_ = 0;    // sum of UncompressedModelBytes()
  size_t record_bytes_ = 0;   // DocRecords, counted with their map nodes
  size_t dict_bytes_ = 0;     // term and field dictionary entries

  // Tokenizer buffers, reused across notes so tokenizing allocates only
  // for terms the dictionary has not seen.
  std::string token_buf_;
  std::vector<TermPosition> hit_buf_;
  std::vector<uint32_t> position_buf_;

  // Server-wide mirrors of FtStats (dotted Domino stat names).
  stats::Counter* ctr_docs_indexed_;
  stats::Counter* ctr_docs_removed_;
  stats::Counter* ctr_merges_;
  stats::Counter* ctr_tokens_;
  stats::Counter* ctr_queries_;
  stats::Counter* ctr_ooo_inserts_;
  stats::Gauge* gauge_bytes_per_doc_;
  stats::Gauge* gauge_resident_bytes_;
};

}  // namespace dominodb

#endif  // DOMINODB_FULLTEXT_FULLTEXT_INDEX_H_
