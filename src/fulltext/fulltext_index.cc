#include "fulltext/fulltext_index.h"

#include <algorithm>
#include <cmath>

#include "base/string_util.h"
#include "fulltext/tokenizer.h"

namespace dominodb {

namespace {

constexpr uint32_t kFieldPositionGap = 1000;

// Approximate heap cost of one node of an unordered_map keyed by `key`:
// the node (next pointer, cached hash, key/value pair), its bucket slot,
// and the key's own buffer once it outgrows the small-string buffer.
size_t StringKeyNodeBytes(const std::string& key) {
  constexpr size_t kSmallString = 15;
  return 3 * sizeof(void*) + sizeof(std::string) + sizeof(uint32_t) +
         (key.size() > kSmallString ? key.size() + 1 : 0);
}

// A term's dictionary entry: its map node plus its slots in postings_
// and term_names_.
size_t TermEntryBytes(const std::string& term) {
  return StringKeyNodeBytes(term) + sizeof(PostingList) +
         sizeof(const std::string*);
}

}  // namespace

FullTextIndex::FullTextIndex(stats::StatRegistry* stats) {
  stats::StatRegistry& reg =
      stats != nullptr ? *stats : stats::StatRegistry::Global();
  ctr_docs_indexed_ = &reg.GetCounter("Database.FullText.Docs.Indexed");
  ctr_docs_removed_ = &reg.GetCounter("Database.FullText.Docs.Removed");
  ctr_merges_ = &reg.GetCounter("Database.FullText.Merges");
  ctr_tokens_ = &reg.GetCounter("Database.FullText.Tokens");
  ctr_queries_ = &reg.GetCounter("Database.FullText.Queries");
  ctr_ooo_inserts_ = &reg.GetCounter("Ft.Index.OutOfOrderInserts");
  gauge_bytes_per_doc_ = &reg.GetGauge("Ft.Index.BytesPerDoc");
  gauge_resident_bytes_ = &reg.GetGauge("Ft.Index.ResidentBytes");
}

uint32_t FullTextIndex::InternTerm(const std::string& term) {
  auto it = term_ids_.find(term);
  if (it != term_ids_.end()) return it->second;
  uint32_t id;
  if (!free_term_ids_.empty()) {
    id = free_term_ids_.back();
    free_term_ids_.pop_back();
  } else {
    id = static_cast<uint32_t>(postings_.size());
    postings_.emplace_back();
    term_names_.push_back(nullptr);
  }
  it = term_ids_.emplace(term, id).first;
  term_names_[id] = &it->first;
  dict_bytes_ += TermEntryBytes(term);
  return id;
}

void FullTextIndex::ReleaseTerm(uint32_t id) {
  const std::string& term = *term_names_[id];
  dict_bytes_ -= TermEntryBytes(term);
  term_ids_.erase(term_ids_.find(term));
  term_names_[id] = nullptr;
  postings_[id] = PostingList();
  free_term_ids_.push_back(id);
}

uint32_t FullTextIndex::InternField(std::string_view name) {
  std::string lowered = ToLower(name);
  auto it = field_ids_.find(lowered);
  if (it != field_ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(field_ids_.size());
  dict_bytes_ += StringKeyNodeBytes(lowered);
  field_ids_.emplace(std::move(lowered), id);
  return id;
}

void FullTextIndex::AppendTokens(std::string_view text, uint32_t* position) {
  size_t pos = 0;
  while (NextToken(text, &pos, &token_buf_)) {
    hit_buf_.push_back(
        TermPosition{InternTerm(token_buf_), (*position)++});
  }
}

void FullTextIndex::RefreshByteStats() {
  gauge_bytes_per_doc_->Set(
      docs_.empty() ? 0
                    : static_cast<int64_t>(posting_bytes_ / docs_.size()));
  gauge_resident_bytes_->Set(
      static_cast<int64_t>(posting_bytes_ + record_bytes_ + dict_bytes_));
}

void FullTextIndex::IndexNote(const Note& note) {
  WriterLock lock(&mu_);
  IndexNoteLocked(note);
}

void FullTextIndex::IndexNoteLocked(const Note& note) {
  // Re-indexing a known document is an incremental merge into the
  // postings (the GTR-style "index merge").
  const NoteId id = note.id();
  const bool merge = records_.count(id) != 0;
  RemoveNoteLocked(id);
  if (note.deleted() || note.note_class() != NoteClass::kDocument) return;
  if (merge) ctr_merges_->Add();

  // Tokenize into flat (term id, position) pairs. Each item's tokens
  // occupy one range of positions, and a gap follows every item that had
  // any, so phrases never span fields.
  DocRecord record;
  hit_buf_.clear();
  uint32_t position = 0;
  for (const Item& item : note.items()) {
    const uint32_t begin = position;
    if (item.value.is_text()) {
      for (const std::string& s : item.value.texts()) {
        AppendTokens(s, &position);
      }
    } else if (item.value.is_richtext()) {
      for (const RichTextRun& run : item.value.runs()) {
        AppendTokens(run.text, &position);
        if (!run.attachment_name.empty()) {
          AppendTokens(run.attachment_name, &position);
        }
      }
    }
    if (position != begin) {
      record.fields.push_back(FieldRange{InternField(item.name), begin,
                                         position});
      position += kFieldPositionGap;
    }
  }
  record.length = static_cast<uint32_t>(hit_buf_.size());

  // Group by term (positions stay ascending within a term), then hand
  // each term's positions to its posting list.
  std::sort(hit_buf_.begin(), hit_buf_.end(),
            [](const TermPosition& a, const TermPosition& b) {
              return a.term != b.term ? a.term < b.term
                                      : a.position < b.position;
            });
  size_t distinct = 0;
  for (size_t i = 0; i < hit_buf_.size(); ++i) {
    if (i == 0 || hit_buf_[i].term != hit_buf_[i - 1].term) {
      ++distinct;
    }
  }
  record.terms.reserve(distinct);
  for (size_t i = 0; i < hit_buf_.size();) {
    const uint32_t term = hit_buf_[i].term;
    position_buf_.clear();
    for (; i < hit_buf_.size() && hit_buf_[i].term == term; ++i) {
      position_buf_.push_back(hit_buf_[i].position);
    }
    PostingList& list = postings_[term];
    posting_bytes_ -= list.byte_size();
    model_bytes_ -= list.UncompressedModelBytes();
    if (list.Insert(id, position_buf_)) ctr_ooo_inserts_->Add();
    posting_bytes_ += list.byte_size();
    model_bytes_ += list.UncompressedModelBytes();
    record.terms.push_back(term);
  }

  const uint64_t tokens = record.length;
  record_bytes_ += RecordBytes(record);
  records_.emplace(id, std::move(record));
  docs_.insert(docs_.end(), id);
  stats_.tokens_indexed += tokens;
  ++stats_.notes_indexed;
  ctr_docs_indexed_->Add();
  ctr_tokens_->Add(tokens);
  RefreshByteStats();
}

void FullTextIndex::BuildFrom(
    const std::function<void(const std::function<void(const Note&)>&)>&
        for_each_note) {
  WriterLock lock(&mu_);
  ClearLocked();
  for_each_note([this](const Note& note) NO_THREAD_SAFETY_ANALYSIS {
    IndexNoteLocked(note);  // `lock` is held for the whole scan
  });
}

void FullTextIndex::RemoveNote(NoteId id) {
  WriterLock lock(&mu_);
  RemoveNoteLocked(id);
}

void FullTextIndex::RemoveNoteLocked(NoteId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return;
  for (uint32_t term : it->second.terms) {
    PostingList& list = postings_[term];
    posting_bytes_ -= list.byte_size();
    model_bytes_ -= list.UncompressedModelBytes();
    list.Erase(id);
    if (list.empty()) {
      ReleaseTerm(term);
    } else {
      posting_bytes_ += list.byte_size();
      model_bytes_ += list.UncompressedModelBytes();
    }
  }
  record_bytes_ -= RecordBytes(it->second);
  records_.erase(it);
  docs_.erase(id);
  ++stats_.notes_removed;
  ctr_docs_removed_->Add();
  RefreshByteStats();
}

void FullTextIndex::Clear() {
  WriterLock lock(&mu_);
  ClearLocked();
}

void FullTextIndex::ClearLocked() {
  term_ids_.clear();
  term_names_.clear();
  postings_.clear();
  free_term_ids_.clear();
  field_ids_.clear();
  records_.clear();
  docs_.clear();
  posting_bytes_ = 0;
  model_bytes_ = 0;
  record_bytes_ = 0;
  dict_bytes_ = 0;
  RefreshByteStats();
}

size_t FullTextIndex::RecordBytes(const DocRecord& record) {
  // Map node (next pointer, bucket slot, key/value pair), the docs_ set
  // node, and the two vectors' buffers.
  constexpr size_t kSetNode = 4 * sizeof(void*) + sizeof(NoteId);
  return 2 * sizeof(void*) + sizeof(std::pair<const NoteId, DocRecord>) +
         kSetNode + record.terms.capacity() * sizeof(uint32_t) +
         record.fields.capacity() * sizeof(FieldRange);
}

size_t FullTextIndex::doc_count() const {
  ReaderLock lock(&mu_);
  return docs_.size();
}

size_t FullTextIndex::term_count() const {
  ReaderLock lock(&mu_);
  return term_ids_.size();
}

size_t FullTextIndex::ByteUsage() const {
  ReaderLock lock(&mu_);
  return posting_bytes_;
}

size_t FullTextIndex::UncompressedModelBytes() const {
  ReaderLock lock(&mu_);
  return model_bytes_;
}

size_t FullTextIndex::ResidentBytes() const {
  ReaderLock lock(&mu_);
  return posting_bytes_ + record_bytes_ + dict_bytes_;
}

const PostingList* FullTextIndex::FindTerm(const std::string& term) const {
  auto it = term_ids_.find(ToLower(term));
  return it == term_ids_.end() ? nullptr : &postings_[it->second];
}

FullTextIndex::PostingMap FullTextIndex::MaterializeFieldTerm(
    const std::string& field, const std::string& term) const {
  PostingMap out;
  auto fit = field_ids_.find(ToLower(field));
  if (fit == field_ids_.end()) return out;
  const PostingList* list = FindTerm(term);
  if (list == nullptr) return out;
  const uint32_t field_id = fit->second;
  // One cursor pass over the term's postings; a document's positions are
  // decoded only when it has an item of this field.
  for (PostingList::Cursor cursor = list->NewCursor(); !cursor.at_end();
       cursor.Next()) {
    const NoteId doc = static_cast<NoteId>(cursor.doc());
    auto rit = records_.find(doc);
    if (rit == records_.end()) continue;
    std::vector<uint32_t>* positions = nullptr;
    for (const FieldRange& range : rit->second.fields) {
      if (range.field != field_id) continue;
      const std::vector<uint32_t>& all = cursor.positions();
      auto lo = std::lower_bound(all.begin(), all.end(), range.begin);
      auto hi = std::lower_bound(lo, all.end(), range.end);
      if (lo == hi) continue;
      if (positions == nullptr) {
        positions = &out.emplace_hint(out.end(), doc, Posting{})
                         ->second.positions;
      }
      positions->insert(positions->end(), lo, hi);
    }
  }
  return out;
}

double FullTextIndex::IdfOf(const std::string& term) const {
  const PostingList* list = FindTerm(term);
  size_t df = list != nullptr ? list->doc_count() : 0;
  return std::log(1.0 + static_cast<double>(docs_.size()) /
                            static_cast<double>(df + 1));
}

}  // namespace dominodb
