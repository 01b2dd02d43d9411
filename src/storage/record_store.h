// Committed-state record store: the RAM-resident hash-indexed table that a
// storage element keeps for one (sub-)partition of the subscriber space.
//
// Host layout: one open-addressed slot array (common/flat_table.h) keyed by
// the full 64-bit RecordKey. Each 40-byte slot holds the key and the Record
// header inline (attribute vector + version), so a cold lookup touches the
// slot and then the record's attribute storage, with no bucket array or
// per-record heap node in between. The one key the slot array reserves as
// its empty marker (UINT64_MAX) lives in a side slot, so every 64-bit key
// works; hash-keyed records use HashIdentity values.
//
// Pointer rule: Find() and FindAttribute() return pointers into the slot
// array. They stay valid only until the next mutation of THAT store (any
// Set/Remove/ApplyWrites/PutRecord/DeleteRecord/MutateRecord): an insert
// may grow and move the array, and an erase shifts later slots back. Reads
// of other stores do not invalidate them. Callers, audited:
//   * ReplicaSet::ReadRecordOn / ReadBatch / ReadRecord: copy or project
//     the record before any write.
//   * ReplicaSet::ReadAttrOn: compares the replica's and the master's
//     attribute (two stores) and copies the value out.
//   * ReplicaSet::RestoreConsistency: reads the master store while it only
//     collects the merged write set; the merge is applied afterwards.
//   * SliceBytes (replica_set.cc): sums ApproxBytes() per key, read-only.
//   * migration planner RehomeSpec: reads ApproxBytes() once.
//   * UdrNf::RehomeOne: works on a copy (ReplicaSet::ReadRecord) while it
//     writes to the destination and deletes from the source.

#ifndef UDR_STORAGE_RECORD_STORE_H_
#define UDR_STORAGE_RECORD_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/flat_table.h"
#include "common/status.h"
#include "storage/commit_log.h"
#include "storage/record.h"

namespace udr::storage {

/// Hash-indexed in-memory record table with byte accounting.
class RecordStore {
 public:
  /// Looks up a record; nullptr when absent. Valid until this store's next
  /// mutation (see the pointer rule above).
  const Record* Find(RecordKey key) const;

  /// In-place mutation with byte re-accounting. The record's footprint is
  /// subtracted before `fn` runs and re-added after, so `fn` may freely grow
  /// or shrink the record without desynchronizing ApproxBytes() — the
  /// footgun the old bare mutable lookup allowed. Returns false when the key
  /// is absent (`fn` is not called).
  bool MutateRecord(RecordKey key, const std::function<void(Record&)>& fn);

  bool Contains(RecordKey key) const { return Find(key) != nullptr; }

  /// Sets one attribute, creating the record if needed. The name is interned
  /// on first use; the AttrId overload is the log-replay fast path.
  void SetAttribute(RecordKey key, std::string_view name, Value value,
                    MicroTime at, uint32_t writer);
  void SetAttribute(RecordKey key, AttrId attr_id, Value value, MicroTime at,
                    uint32_t writer);

  /// Removes one attribute; removes nothing if absent.
  void RemoveAttribute(RecordKey key, std::string_view name);
  void RemoveAttribute(RecordKey key, AttrId attr_id);

  /// Single-attribute read fast path: record hash lookup + packed binary
  /// search, resolving the name through the intern pool — no per-call
  /// std::string construction anywhere. nullptr when record or attribute is
  /// absent.
  const Attribute* FindAttribute(RecordKey key, std::string_view name) const;

  /// Applies a write set in order — the one apply path of commits, log
  /// replay, replication, migration and merges. Each run of consecutive
  /// same-key ops costs one hash lookup and one byte-accounting update; a
  /// record the run creates is allocated at its upsert count. The outcome
  /// (records, versions, ApproxBytes(), ForEach order) equals applying the
  /// ops one at a time: an upsert creates the record and bumps its version,
  /// a remove on a present record bumps it (on an absent one it does
  /// nothing), a delete drops the record.
  void ApplyWrites(const std::vector<WriteOp>& ops);

  /// Inserts or replaces a whole record.
  void PutRecord(RecordKey key, Record record);

  /// Deletes a record. Returns true if it existed.
  bool DeleteRecord(RecordKey key);

  /// Number of records.
  int64_t Count() const {
    return static_cast<int64_t>(slots_.size()) + (max_key_record_ ? 1 : 0);
  }

  /// Approximate RAM usage in bytes.
  int64_t ApproxBytes() const { return approx_bytes_; }

  /// Iterates all records (scan order is unspecified but deterministic for a
  /// given insertion history).
  void ForEach(const std::function<void(RecordKey, const Record&)>& fn) const;

 private:
  /// The slot array's empty marker; a record under this key lives in
  /// max_key_record_.
  static constexpr RecordKey kFreeKey = ~RecordKey{0};

  struct Slot {
    RecordKey key = kFreeKey;
    Record record;
    bool empty() const { return key == kFreeKey; }
  };

  /// Spreads sequential keys over the slot array (murmur3 fmix64).
  static uint64_t HashKey(RecordKey key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return key;
  }
  static uint64_t HashOf(const Slot& s) { return HashKey(s.key); }

  Record* Lookup(RecordKey key);
  /// The record under `key`, created empty when absent (`*created` says so).
  Record* Emplace(RecordKey key, bool* created);
  /// Drops the record under `key`; false when absent.
  bool Erase(RecordKey key);

  void AccountRemove(const Record& r) { approx_bytes_ -= r.ApproxBytes(); }
  void AccountAdd(const Record& r) { approx_bytes_ += r.ApproxBytes(); }

  FlatTable<Slot> slots_;
  std::optional<Record> max_key_record_;
  int64_t approx_bytes_ = 0;
};

}  // namespace udr::storage

#endif  // UDR_STORAGE_RECORD_STORE_H_
