#include "storage/record_store.h"

namespace udr::storage {

const Record* RecordStore::Find(RecordKey key) const {
  auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

bool RecordStore::MutateRecord(RecordKey key,
                               const std::function<void(Record&)>& fn) {
  auto it = records_.find(key);
  if (it == records_.end()) return false;
  AccountRemove(it->second);
  fn(it->second);
  it->second.bump_version();
  AccountAdd(it->second);
  return true;
}

void RecordStore::SetAttribute(RecordKey key, std::string_view name,
                               Value value, MicroTime at, uint32_t writer) {
  SetAttribute(key, AttrPool::Global().Intern(name), std::move(value), at,
               writer);
}

void RecordStore::SetAttribute(RecordKey key, AttrId attr_id, Value value,
                               MicroTime at, uint32_t writer) {
  auto [it, inserted] = records_.try_emplace(key);
  Record& rec = it->second;
  if (!inserted) AccountRemove(rec);
  rec.SetById(attr_id, std::move(value), at, writer);
  rec.bump_version();
  AccountAdd(rec);
}

void RecordStore::RemoveAttribute(RecordKey key, std::string_view name) {
  AttrId id = AttrPool::Global().Lookup(name);
  if (id != kInvalidAttrId) RemoveAttribute(key, id);
}

void RecordStore::RemoveAttribute(RecordKey key, AttrId attr_id) {
  auto it = records_.find(key);
  if (it == records_.end()) return;
  AccountRemove(it->second);
  it->second.RemoveById(attr_id);
  it->second.bump_version();
  AccountAdd(it->second);
}

void RecordStore::ApplyWrites(const std::vector<WriteOp>& ops) {
  size_t begin = 0;
  while (begin < ops.size()) {
    const RecordKey key = ops[begin].key;
    size_t end = begin + 1;
    while (end < ops.size() && ops[end].key == key) ++end;
    auto it = records_.find(key);
    Record* rec = nullptr;
    if (it != records_.end()) {
      rec = &it->second;
      AccountRemove(*rec);
    }
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
            it = records_.try_emplace(key).first;
            rec = &it->second;
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
          records_.erase(it);
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
  auto it = records_.find(key);
  if (it == records_.end()) return nullptr;
  return it->second.Find(name);
}

void RecordStore::PutRecord(RecordKey key, Record record) {
  auto it = records_.find(key);
  if (it != records_.end()) {
    AccountRemove(it->second);
    it->second = std::move(record);
    AccountAdd(it->second);
  } else {
    auto [pos, _] = records_.emplace(key, std::move(record));
    AccountAdd(pos->second);
  }
}

bool RecordStore::DeleteRecord(RecordKey key) {
  auto it = records_.find(key);
  if (it == records_.end()) return false;
  AccountRemove(it->second);
  records_.erase(it);
  return true;
}

void RecordStore::ForEach(
    const std::function<void(RecordKey, const Record&)>& fn) const {
  for (const auto& [key, rec] : records_) fn(key, rec);
}

}  // namespace udr::storage
