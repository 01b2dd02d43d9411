#include "storage/record_store.h"

#include <utility>

namespace udr::storage {

const Record* RecordStore::Find(RecordKey key) const {
  if (key == kFreeKey) return max_key_record_ ? &*max_key_record_ : nullptr;
  const size_t i =
      slots_.Find(HashKey(key), [key](const Slot& s) { return s.key == key; });
  return i == FlatTable<Slot>::kNone ? nullptr : &slots_.at(i).record;
}

Record* RecordStore::Lookup(RecordKey key) {
  return const_cast<Record*>(std::as_const(*this).Find(key));
}

Record* RecordStore::Emplace(RecordKey key, bool* created) {
  if (key == kFreeKey) {
    *created = !max_key_record_;
    if (*created) max_key_record_.emplace();
    return &*max_key_record_;
  }
  auto [i, inserted] = slots_.FindOrInsert(
      HashKey(key), [key](const Slot& s) { return s.key == key; }, HashOf);
  Slot& slot = slots_.at(i);
  if (inserted) slot.key = key;
  *created = inserted;
  return &slot.record;
}

bool RecordStore::Erase(RecordKey key) {
  if (key == kFreeKey) {
    if (!max_key_record_) return false;
    max_key_record_.reset();
    return true;
  }
  const size_t i =
      slots_.Find(HashKey(key), [key](const Slot& s) { return s.key == key; });
  if (i == FlatTable<Slot>::kNone) return false;
  slots_.EraseAt(i, HashOf);
  return true;
}

bool RecordStore::MutateRecord(RecordKey key,
                               const std::function<void(Record&)>& fn) {
  Record* rec = Lookup(key);
  if (rec == nullptr) return false;
  AccountRemove(*rec);
  fn(*rec);
  rec->bump_version();
  AccountAdd(*rec);
  return true;
}

void RecordStore::SetAttribute(RecordKey key, std::string_view name,
                               Value value, MicroTime at, uint32_t writer) {
  SetAttribute(key, AttrPool::Global().Intern(name), std::move(value), at,
               writer);
}

void RecordStore::SetAttribute(RecordKey key, AttrId attr_id, Value value,
                               MicroTime at, uint32_t writer) {
  bool created = false;
  Record* rec = Emplace(key, &created);
  if (!created) AccountRemove(*rec);
  rec->SetById(attr_id, std::move(value), at, writer);
  rec->bump_version();
  AccountAdd(*rec);
}

void RecordStore::RemoveAttribute(RecordKey key, std::string_view name) {
  AttrId id = AttrPool::Global().Lookup(name);
  if (id != kInvalidAttrId) RemoveAttribute(key, id);
}

void RecordStore::RemoveAttribute(RecordKey key, AttrId attr_id) {
  Record* rec = Lookup(key);
  if (rec == nullptr) return;
  AccountRemove(*rec);
  rec->RemoveById(attr_id);
  rec->bump_version();
  AccountAdd(*rec);
}

void RecordStore::ApplyWrites(const std::vector<WriteOp>& ops) {
  size_t begin = 0;
  while (begin < ops.size()) {
    const RecordKey key = ops[begin].key;
    size_t end = begin + 1;
    while (end < ops.size() && ops[end].key == key) ++end;
    Record* rec = Lookup(key);
    if (rec != nullptr) AccountRemove(*rec);
    for (size_t i = begin; i < end; ++i) {
      const WriteOp& op = ops[i];
      switch (op.kind) {
        case WriteKind::kUpsertAttr:
          if (rec == nullptr) {
            // Size the new record for every upsert up to the run's next
            // delete, so it never regrows while the write set fills it.
            size_t upserts = 0;
            for (size_t j = i; j < end; ++j) {
              if (ops[j].kind == WriteKind::kDeleteRecord) break;
              if (ops[j].kind == WriteKind::kUpsertAttr) ++upserts;
            }
            bool created = false;
            rec = Emplace(key, &created);
            rec->Reserve(upserts);
          }
          rec->SetById(op.attr_id, op.attribute.value, op.attribute.modified_at,
                       op.attribute.writer);
          rec->bump_version();
          break;
        case WriteKind::kRemoveAttr:
          if (rec == nullptr) break;
          rec->RemoveById(op.attr_id);
          rec->bump_version();
          break;
        case WriteKind::kDeleteRecord:
          if (rec == nullptr) break;
          Erase(key);
          rec = nullptr;
          break;
      }
    }
    if (rec != nullptr) AccountAdd(*rec);
    begin = end;
  }
}

const Attribute* RecordStore::FindAttribute(RecordKey key,
                                            std::string_view name) const {
  const Record* rec = Find(key);
  return rec == nullptr ? nullptr : rec->Find(name);
}

void RecordStore::PutRecord(RecordKey key, Record record) {
  bool created = false;
  Record* rec = Emplace(key, &created);
  if (!created) AccountRemove(*rec);
  *rec = std::move(record);
  AccountAdd(*rec);
}

bool RecordStore::DeleteRecord(RecordKey key) {
  const Record* rec = Lookup(key);
  if (rec == nullptr) return false;
  AccountRemove(*rec);
  return Erase(key);
}

void RecordStore::ForEach(
    const std::function<void(RecordKey, const Record&)>& fn) const {
  slots_.ForEach([&fn](const Slot& s) { fn(s.key, s.record); });
  if (max_key_record_) fn(kFreeKey, *max_key_record_);
}

}  // namespace udr::storage
