#include "storage/commit_log.h"

#include <algorithm>
#include <cassert>

#include "storage/record_store.h"

namespace udr::storage {

CommitSeq CommitLog::Append(MicroTime commit_time, uint32_t origin_replica,
                            std::vector<WriteOp> ops) {
  assert(entries_.empty() || commit_time >= entries_.back().commit_time);
  LogEntry entry;
  entry.seq = LastSeq() + 1;
  entry.commit_time = commit_time;
  entry.origin_replica = origin_replica;
  entry.ops = std::move(ops);
  entries_.push_back(std::move(entry));
  return entries_.back().seq;
}

CommitSeq CommitLog::SeqAtTime(MicroTime t) const {
  // Entries are sorted by commit_time (commit order == time order within one
  // replica). Binary search for the last entry with commit_time <= t.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), t,
      [](MicroTime v, const LogEntry& e) { return v < e.commit_time; });
  if (it == entries_.begin()) return 0;
  return std::prev(it)->seq;
}

void CommitLog::ReplayRange(RecordStore* store, CommitSeq from_seq,
                            CommitSeq to_seq) const {
  assert(to_seq <= LastSeq());
  for (CommitSeq s = from_seq + 1; s <= to_seq; ++s) {
    store->ApplyWrites(At(s).ops);
  }
}

void CommitLog::TruncateAfter(CommitSeq seq) {
  if (seq >= LastSeq()) return;
  entries_.resize(seq);
}

int64_t WriteOpWireBytes(const WriteOp& op) {
  // key (8) + kind (1) + attr id (4) + modified_at (8) + writer (4) ≈ 25,
  // rounded with framing to 28; upserts add the value payload.
  int64_t bytes = 28;
  if (op.kind == WriteKind::kUpsertAttr) bytes += ValueBytes(op.attribute.value);
  return bytes;
}

}  // namespace udr::storage
