// MutationJournal: a bounded ring of recent tuple mutations, kept by every
// HierarchicalRelation alongside its version stamp.
//
// Version stamps tell a consumer *that* a relation changed but not *how*.
// The journal closes that gap for the two delta paths: delta CONSOLIDATE
// seeds its sweep from the mutations since the last consolidate, and
// semi-naive DERIVE appends journal-new atomic facts instead of
// re-explicating. A consumer holding state derived at stamp V asks
// Since(V) for the exact mutations separating V from the present. The ring
// is deliberately small (kCapacity records): a relation that mutated
// hundreds of times since is simply reprocessed from scratch.
//
// Coverage contract: Since(V) returns the mutations with stamp > V, oldest
// first, or nullopt when any such record has been dropped (ring overflow)
// or invalidated (Clear() resets the store's id space, so id-based deltas
// across it are meaningless). Version stamps are process-wide monotonic
// (common/revision.h), so "stamp > V" is exactly "happened after V".

#ifndef HIREL_CORE_MUTATION_JOURNAL_H_
#define HIREL_CORE_MUTATION_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/tuple_store.h"
#include "types/item.h"

namespace hirel {

class MutationJournal {
 public:
  /// Ring capacity. Past this many un-consumed mutations the delta paths
  /// fall back to their full forms, so the bound trades a little delta
  /// reach for a hard memory cap per relation.
  static constexpr size_t kCapacity = 256;

  struct Record {
    enum class Kind : uint8_t {
      kInsert,  // a new tuple appeared under `id`
      kErase,   // tuple `id` (holding `item`) was removed
      kTruth,   // tuple `id` kept its item but flipped truth (Upsert)
    };
    Kind kind;
    Truth truth;       // the tuple's truth after the mutation (kInsert/kTruth)
    TupleId id;
    uint64_t version;  // the relation's version stamp after the mutation
    Item item;         // kErase only: the erased item (dead ids cannot be
                       // read back from the store)
  };

  /// Appends one record; drops the oldest past kCapacity.
  void Append(Record record) {
    if (records_.size() >= kCapacity) {
      floor_version_ = records_.front().version;
      records_.pop_front();
      ++dropped_;
    }
    records_.push_back(std::move(record));
  }

  /// Invalidates everything at or before `version` (the relation's stamp
  /// after a Clear): tuple ids may be reused from here on, so no delta may
  /// span the cut.
  void Cut(uint64_t version) {
    records_.clear();
    floor_version_ = version;
  }

  /// The mutations with stamp > `version`, oldest first; nullopt when the
  /// journal no longer covers that point.
  std::optional<std::vector<Record>> Since(uint64_t version) const {
    if (version < floor_version_) return std::nullopt;
    std::vector<Record> out;
    for (const Record& r : records_) {
      if (r.version > version) out.push_back(r);
    }
    return out;
  }

  /// True iff Since(version) would succeed.
  bool Covers(uint64_t version) const { return version >= floor_version_; }

  /// Records dropped to overflow so far (not counting Cut).
  uint64_t dropped() const { return dropped_; }

  size_t size() const { return records_.size(); }

 private:
  std::deque<Record> records_;
  /// Stamp of the newest record ever dropped (or of the last Cut); any
  /// version at or above it is still fully covered.
  uint64_t floor_version_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace hirel

#endif  // HIREL_CORE_MUTATION_JOURNAL_H_
