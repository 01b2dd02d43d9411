// Unit tests for src/storage: records, the store, the commit log and the
// storage element's durability/capacity model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "common/rng.h"
#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "storage/commit_log.h"
#include "storage/record.h"
#include "storage/record_store.h"
#include "storage/storage_element.h"

namespace udr::storage {
namespace {

// ---------------------------------------------------------------------------
// Record / Value
// ---------------------------------------------------------------------------

TEST(ValueTest, ToStringRendersAllAlternatives) {
  EXPECT_EQ(ValueToString(Value(int64_t{42})), "42");
  EXPECT_EQ(ValueToString(Value(true)), "true");
  EXPECT_EQ(ValueToString(Value(std::string("x"))), "x");
  EXPECT_EQ(ValueToString(Value(std::vector<std::string>{"a", "b"})), "[a, b]");
}

TEST(ValueTest, BytesScaleWithContent) {
  EXPECT_EQ(ValueBytes(Value(int64_t{1})), 8);
  EXPECT_GT(ValueBytes(Value(std::string(100, 'x'))), 100);
  EXPECT_GT(ValueBytes(Value(std::vector<std::string>{"aaa", "bbb"})),
            ValueBytes(Value(std::vector<std::string>{"a"})));
}

TEST(RecordTest, SetGetRemove) {
  Record r;
  r.Set("msisdn", std::string("+34600"), 100, 1);
  EXPECT_TRUE(r.Has("msisdn"));
  auto v = r.Get("msisdn");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(ValueToString(*v), "+34600");
  const Attribute* a = r.Find("msisdn");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->modified_at, 100);
  EXPECT_EQ(a->writer, 1u);
  EXPECT_TRUE(r.Remove("msisdn"));
  EXPECT_FALSE(r.Has("msisdn"));
  EXPECT_FALSE(r.Remove("msisdn"));
}

TEST(RecordTest, LastModifiedIsMaxOverAttributes) {
  Record r;
  r.Set("a", int64_t{1}, 100, 0);
  r.Set("b", int64_t{2}, 300, 0);
  r.Set("c", int64_t{3}, 200, 0);
  EXPECT_EQ(r.LastModified(), 300);
}

TEST(RecordTest, ApproxBytesGrowsWithAttributes) {
  Record r;
  int64_t empty = r.ApproxBytes();
  r.Set("authkey", std::string(32, 'f'), 0, 0);
  EXPECT_GT(r.ApproxBytes(), empty + 32);
}

TEST(RecordTest, ContentEqualityIgnoresVersion) {
  Record a, b;
  a.Set("x", int64_t{1}, 5, 0);
  b.Set("x", int64_t{1}, 5, 0);
  b.set_version(99);
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------------
// RecordStore
// ---------------------------------------------------------------------------

TEST(RecordStoreTest, SetAttributeCreatesRecord) {
  RecordStore s;
  EXPECT_FALSE(s.Contains(7));
  s.SetAttribute(7, "imsi", std::string("214"), 10, 0);
  EXPECT_TRUE(s.Contains(7));
  EXPECT_EQ(s.Count(), 1);
  const Record* r = s.Find(7);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->version(), 1u);
}

TEST(RecordStoreTest, VersionBumpsOnEveryWrite) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  s.SetAttribute(1, "a", int64_t{2}, 1, 0);
  s.RemoveAttribute(1, "a");
  EXPECT_EQ(s.Find(1)->version(), 3u);
}

TEST(RecordStoreTest, ByteAccountingTracksMutations) {
  RecordStore s;
  EXPECT_EQ(s.ApproxBytes(), 0);
  s.SetAttribute(1, "blob", std::string(1000, 'x'), 0, 0);
  int64_t with = s.ApproxBytes();
  EXPECT_GT(with, 1000);
  s.RemoveAttribute(1, "blob");
  EXPECT_LT(s.ApproxBytes(), with - 900);
  s.DeleteRecord(1);
  EXPECT_EQ(s.ApproxBytes(), 0);
}

TEST(RecordStoreTest, MutateRecordKeepsByteAccountingInSync) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  int64_t small = s.ApproxBytes();
  // Grow the record behind the store's back — the scoped re-accounting in
  // MutateRecord must still see the delta.
  ASSERT_TRUE(s.MutateRecord(
      1, [](Record& r) { r.Set("blob", std::string(1000, 'x'), 1, 0); }));
  EXPECT_GT(s.ApproxBytes(), small + 1000);
  ASSERT_TRUE(s.MutateRecord(1, [](Record& r) { r.Remove("blob"); }));
  EXPECT_EQ(s.ApproxBytes(), small);
  // Absent key: fn not invoked, false returned.
  EXPECT_FALSE(s.MutateRecord(99, [](Record&) { FAIL(); }));
}

TEST(RecordStoreTest, MutateRecordBumpsVersion) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  uint64_t v = s.Find(1)->version();
  ASSERT_TRUE(s.MutateRecord(1, [](Record& r) { r.Set("b", int64_t{2}, 1, 0); }));
  EXPECT_GT(s.Find(1)->version(), v);
}

TEST(RecordStoreTest, DeleteRecord) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  EXPECT_TRUE(s.DeleteRecord(1));
  EXPECT_FALSE(s.DeleteRecord(1));
  EXPECT_EQ(s.Count(), 0);
}

TEST(RecordStoreTest, PutRecordReplaces) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  Record r;
  r.Set("b", int64_t{2}, 0, 0);
  s.PutRecord(1, r);
  EXPECT_FALSE(s.Find(1)->Has("a"));
  EXPECT_TRUE(s.Find(1)->Has("b"));
}

TEST(RecordStoreTest, ForEachVisitsAll) {
  RecordStore s;
  for (RecordKey k = 0; k < 10; ++k) {
    s.SetAttribute(k, "a", static_cast<int64_t>(k), 0, 0);
  }
  int64_t visited = 0;
  s.ForEach([&](RecordKey, const Record&) { ++visited; });
  EXPECT_EQ(visited, 10);
}

// ---------------------------------------------------------------------------
// CommitLog
// ---------------------------------------------------------------------------

WriteOp Upsert(RecordKey key, const std::string& attr, Value v, MicroTime t) {
  WriteOp op;
  op.kind = WriteKind::kUpsertAttr;
  op.key = key;
  op.attr_id = InternAttr(attr);
  op.attribute = {std::move(v), t, 0};
  return op;
}

TEST(CommitLogTest, AppendAssignsMonotonicSeq) {
  CommitLog log;
  EXPECT_EQ(log.LastSeq(), 0u);
  EXPECT_EQ(log.Append(10, 0, {Upsert(1, "a", int64_t{1}, 10)}), 1u);
  EXPECT_EQ(log.Append(20, 0, {Upsert(1, "a", int64_t{2}, 20)}), 2u);
  EXPECT_EQ(log.LastSeq(), 2u);
  EXPECT_EQ(log.At(1).commit_time, 10);
}

TEST(CommitLogTest, SeqAtTimeBinarySearch) {
  CommitLog log;
  log.Append(10, 0, {});
  log.Append(20, 0, {});
  log.Append(30, 0, {});
  EXPECT_EQ(log.SeqAtTime(5), 0u);
  EXPECT_EQ(log.SeqAtTime(10), 1u);
  EXPECT_EQ(log.SeqAtTime(25), 2u);
  EXPECT_EQ(log.SeqAtTime(1000), 3u);
}

TEST(CommitLogTest, ReplayRangeAppliesInOrder) {
  CommitLog log;
  log.Append(10, 0, {Upsert(1, "a", int64_t{1}, 10)});
  log.Append(20, 0, {Upsert(1, "a", int64_t{2}, 20)});
  log.Append(30, 0, {Upsert(2, "b", int64_t{3}, 30)});
  RecordStore s;
  log.ReplayRange(&s, 0, 2);
  EXPECT_EQ(ValueToString(*s.Find(1)->Get("a")), "2");
  EXPECT_FALSE(s.Contains(2));
  log.ReplayRange(&s, 2, 3);
  EXPECT_TRUE(s.Contains(2));
}

TEST(CommitLogTest, TruncateAfterDiscardsSuffix) {
  CommitLog log;
  log.Append(10, 0, {});
  log.Append(20, 0, {});
  log.Append(30, 0, {});
  log.TruncateAfter(1);
  EXPECT_EQ(log.LastSeq(), 1u);
  log.TruncateAfter(5);  // No-op beyond head.
  EXPECT_EQ(log.LastSeq(), 1u);
}

TEST(CommitLogTest, ApplyDeleteOp) {
  RecordStore s;
  s.SetAttribute(1, "a", int64_t{1}, 0, 0);
  WriteOp del;
  del.kind = WriteKind::kDeleteRecord;
  del.key = 1;
  s.ApplyWrites({del});
  EXPECT_FALSE(s.Contains(1));
}

/// The per-op reference ApplyWrites must equal: each op through the store's
/// single-op primitives.
void ApplyOneByOne(RecordStore* store, const std::vector<WriteOp>& ops) {
  for (const WriteOp& op : ops) {
    switch (op.kind) {
      case WriteKind::kUpsertAttr:
        store->SetAttribute(op.key, op.attr_id, op.attribute.value,
                            op.attribute.modified_at, op.attribute.writer);
        break;
      case WriteKind::kRemoveAttr:
        store->RemoveAttribute(op.key, op.attr_id);
        break;
      case WriteKind::kDeleteRecord:
        store->DeleteRecord(op.key);
        break;
    }
  }
}

void ExpectSameStore(const RecordStore& a, const RecordStore& b,
                     const std::string& label) {
  EXPECT_EQ(a.Count(), b.Count()) << label;
  EXPECT_EQ(a.ApproxBytes(), b.ApproxBytes()) << label;
  std::vector<std::pair<RecordKey, const Record*>> in_a, in_b;
  a.ForEach([&](RecordKey k, const Record& r) { in_a.emplace_back(k, &r); });
  b.ForEach([&](RecordKey k, const Record& r) { in_b.emplace_back(k, &r); });
  ASSERT_EQ(in_a.size(), in_b.size()) << label;
  for (size_t i = 0; i < in_a.size(); ++i) {
    ASSERT_EQ(in_a[i].first, in_b[i].first) << label << " scan slot " << i;
    EXPECT_TRUE(*in_a[i].second == *in_b[i].second)
        << label << " key " << in_a[i].first;
    EXPECT_EQ(in_a[i].second->version(), in_b[i].second->version())
        << label << " key " << in_a[i].first;
  }
}

TEST(ApplyWritesTest, RemoveBeforeCreateMatchesPerOpPath) {
  // The remove finds no record and does nothing; the upsert creates it at
  // version 1, exactly as one op at a time.
  const AttrId a = InternAttr("apply-a");
  const AttrId b = InternAttr("apply-b");
  std::vector<WriteOp> ops(2);
  ops[0].kind = WriteKind::kRemoveAttr;
  ops[0].key = 7;
  ops[0].attr_id = a;
  ops[1].kind = WriteKind::kUpsertAttr;
  ops[1].key = 7;
  ops[1].attr_id = b;
  ops[1].attribute.value = int64_t{1};
  RecordStore batched, reference;
  batched.ApplyWrites(ops);
  ApplyOneByOne(&reference, ops);
  ExpectSameStore(batched, reference, "remove-before-create");
  ASSERT_NE(batched.Find(7), nullptr);
  EXPECT_EQ(batched.Find(7)->version(), 1u);
  EXPECT_EQ(batched.Find(7)->attribute_count(), 1u);
}

TEST(ApplyWritesTest, SeededWriteSetsMatchPerOpPath) {
  // A seeded mix of write sets over a small key space: create, overwrite,
  // remove (present, absent, on an absent record), remove before create,
  // delete (present, absent) and delete-then-recreate, in same-key runs and
  // interleaved keys. After every set the two stores must hold the same
  // records, versions, byte totals and scan order.
  std::vector<AttrId> attrs;
  for (int i = 0; i < 6; ++i) {
    attrs.push_back(InternAttr("apply-attr-" + std::to_string(i)));
  }
  Rng rng(20261017);
  RecordStore batched, reference;
  for (int set = 0; set < 400; ++set) {
    std::vector<WriteOp> ops;
    const int n = 1 + static_cast<int>(rng.Uniform(12));
    RecordKey key = 1 + rng.Uniform(24);
    for (int i = 0; i < n; ++i) {
      // Mostly same-key runs, sometimes a switch to another key.
      if (rng.Uniform(4) == 0) key = 1 + rng.Uniform(24);
      WriteOp op;
      op.key = key;
      op.attr_id = attrs[rng.Uniform(attrs.size())];
      const uint64_t kind = rng.Uniform(10);
      if (kind < 6) {
        op.kind = WriteKind::kUpsertAttr;
        if (rng.Uniform(2) == 0) {
          op.attribute.value = static_cast<int64_t>(rng.Uniform(1000));
        } else {
          // Long enough to spill to the heap (counted by ApproxBytes).
          op.attribute.value = std::string(1 + rng.Uniform(40), 'v');
        }
        op.attribute.modified_at = static_cast<MicroTime>(set);
        op.attribute.writer = static_cast<uint32_t>(rng.Uniform(3));
      } else if (kind < 9) {
        op.kind = WriteKind::kRemoveAttr;
      } else {
        op.kind = WriteKind::kDeleteRecord;
      }
      ops.push_back(std::move(op));
    }
    batched.ApplyWrites(ops);
    ApplyOneByOne(&reference, ops);
    ExpectSameStore(batched, reference, "set " + std::to_string(set));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(batched.Count(), 0);
}

// ---------------------------------------------------------------------------
// StorageElement durability model
// ---------------------------------------------------------------------------

StorageElementConfig SmallSe() {
  StorageElementConfig cfg;
  cfg.name = "test-se";
  cfg.ram_budget_bytes = 1 << 20;
  cfg.checkpoint_period = Seconds(60);
  return cfg;
}

/// One SE as the single copy of a partition on a one-site network: commits
/// take the data path's ReplicaSet::Write, and no peer holds the log suffix.
struct SingleCopy {
  explicit SingleCopy(StorageElementConfig cfg)
      : network(sim::Topology(1), &clock),
        se(std::move(cfg), &clock),
        rs(replication::ReplicaSetConfig(), {&se}, &network) {}

  /// Commits one attribute upsert at the current time.
  Status Put(RecordKey key, const std::string& attr, Value value) {
    replication::WriteBuilder wb;
    wb.Set(key, attr, std::move(value));
    return rs.Write(0, std::move(wb).Build()).status;
  }

  sim::SimClock clock;
  sim::Network network;
  StorageElement se;
  replication::ReplicaSet rs;
};

TEST(StorageElementTest, CheckpointTimesQuantized) {
  sim::SimClock clock;
  StorageElement se(SmallSe(), &clock);
  EXPECT_EQ(se.LastCheckpointTime(Seconds(59)), 0);
  EXPECT_EQ(se.LastCheckpointTime(Seconds(60)), Seconds(60));
  EXPECT_EQ(se.LastCheckpointTime(Seconds(185)), Seconds(180));
}

TEST(StorageElementTest, CrashLosesPostCheckpointCommits) {
  SingleCopy p(SmallSe());
  // Commit at t=10s (before checkpoint at 60s) and t=70s (after).
  p.clock.AdvanceTo(Seconds(10));
  ASSERT_TRUE(p.Put(1, "a", int64_t{1}).ok());
  p.clock.AdvanceTo(Seconds(70));
  ASSERT_TRUE(p.Put(2, "b", int64_t{2}).ok());
  p.clock.AdvanceTo(Seconds(90));
  CrashRecovery rec = p.se.LocalRecovery(p.rs.log(), p.clock.Now());
  EXPECT_EQ(rec.last_seq_before_crash, 2u);
  EXPECT_EQ(rec.recovered_seq, 1u);  // Checkpoint at 60s captured seq 1 only.
  EXPECT_EQ(rec.lost_transactions, 1);
  EXPECT_EQ(rec.data_loss_window, Seconds(20));
}

TEST(StorageElementTest, WalSyncModeLosesNothing) {
  StorageElementConfig cfg = SmallSe();
  cfg.wal_sync_commit = true;
  SingleCopy p(cfg);
  p.clock.AdvanceTo(Seconds(10));
  ASSERT_TRUE(p.Put(1, "a", int64_t{1}).ok());
  p.clock.AdvanceTo(Seconds(30));
  CrashRecovery rec = p.se.LocalRecovery(p.rs.log(), p.clock.Now());
  EXPECT_EQ(rec.lost_transactions, 0);
}

TEST(StorageElementTest, WalSyncCostsLatency) {
  sim::SimClock clock;
  StorageElementConfig plain = SmallSe();
  StorageElementConfig synced = SmallSe();
  synced.wal_sync_commit = true;
  StorageElement a(plain, &clock), b(synced, &clock);
  EXPECT_GT(b.WriteServiceTime(), a.WriteServiceTime() + Millis(3));
  EXPECT_EQ(a.ReadServiceTime(), b.ReadServiceTime());  // Reads unaffected.
}

TEST(StorageElementTest, ShorterCheckpointPeriodSlowsEngine) {
  sim::SimClock clock;
  StorageElementConfig fast = SmallSe();
  fast.checkpoint_period = Minutes(5);
  StorageElementConfig busy = SmallSe();
  busy.checkpoint_period = Seconds(10);
  StorageElement a(fast, &clock), b(busy, &clock);
  EXPECT_GT(b.ReadServiceTime(), a.ReadServiceTime());
  EXPECT_GT(b.WriteServiceTime(), a.WriteServiceTime());
}

TEST(StorageElementTest, CapacityAdmission) {
  StorageElementConfig cfg = SmallSe();
  cfg.ram_budget_bytes = 4096;
  SingleCopy p(cfg);
  EXPECT_TRUE(p.se.CheckCapacity(1000).ok());
  ASSERT_TRUE(p.Put(1, "blob", std::string(3000, 'x')).ok());
  EXPECT_TRUE(p.se.CheckCapacity(2000).IsResourceExhausted());
  EXPECT_LT(p.se.FreeBytes(), 4096 - 3000);
}

TEST(StorageElementTest, SubscriberCapacityArithmetic) {
  sim::SimClock clock;
  StorageElementConfig cfg = SmallSe();
  cfg.ram_budget_bytes = 200LL * 1000 * 1000 * 1000;
  StorageElement se(cfg, &clock);
  // 200 GB / 100 KB per average profile = 2e6 subscribers (paper §3.5).
  EXPECT_EQ(se.SubscriberCapacity(100 * 1000), 2'000'000);
}

// ---------------------------------------------------------------------------
// Packed-layout properties: pack/unpack round trips and byte accounting
// ---------------------------------------------------------------------------

/// Random value spanning every alternative, with string sizes straddling the
/// SSO boundary (the interesting edge of the heap-byte model).
Value RandomValue(Rng& rng) {
  switch (rng.Uniform(4)) {
    case 0:
      return Value(static_cast<int64_t>(rng.Next()));
    case 1:
      return Value(rng.Uniform(2) == 0);
    case 2:
      return Value(std::string(rng.Uniform(40), 'a' + rng.Uniform(26)));
    default: {
      std::vector<std::string> items(rng.Uniform(4) + 1);
      for (auto& s : items) s.assign(rng.Uniform(30), 'x');
      return Value(items);
    }
  }
}

/// Random record over a bounded attribute universe (collisions on purpose:
/// overwrites exercise the in-place update path).
Record RandomRecord(Rng& rng) {
  Record r;
  const uint64_t attrs = rng.Uniform(12) + 1;
  for (uint64_t a = 0; a < attrs; ++a) {
    const std::string name = "attr-" + std::to_string(rng.Uniform(16));
    r.Set(name, RandomValue(rng), static_cast<MicroTime>(rng.Uniform(1u << 30)),
          static_cast<uint32_t>(rng.Uniform(4)));
  }
  return r;
}

TEST(PackedLayoutPropertyTest, MapRoundTripPreservesEveryRecord) {
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    Record original = RandomRecord(rng);
    Record round = Record::FromMap(original.ToMap());
    EXPECT_EQ(original, round) << "trial " << trial;
    // The unpacked view resolves the same names to the same attributes.
    for (const auto& [name, attr] : original.ToMap()) {
      const Attribute* found = round.Find(name);
      ASSERT_NE(found, nullptr) << name;
      EXPECT_EQ(*found, attr);
    }
    // Entries stay strictly sorted by interned id (binary-search invariant).
    const auto& entries = round.entries();
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_LT(entries[i - 1].name_id, entries[i].name_id);
    }
  }
}

TEST(PackedLayoutPropertyTest, ByteAccountingSurvivesGrowShrink) {
  Rng rng(7777);
  RecordStore store;
  const auto recompute = [&store] {
    int64_t total = 0;
    store.ForEach([&total](RecordKey, const Record& r) {
      total += r.ApproxBytes();
    });
    return total;
  };
  for (int step = 0; step < 3000; ++step) {
    const RecordKey key = rng.Uniform(20) + 1;
    const std::string name = "attr-" + std::to_string(rng.Uniform(16));
    switch (rng.Uniform(5)) {
      case 0:
      case 1:  // Grow (or overwrite with a differently-sized value).
        store.SetAttribute(key, name, RandomValue(rng),
                           static_cast<MicroTime>(step), 0);
        break;
      case 2:  // Shrink.
        store.RemoveAttribute(key, name);
        break;
      case 3:  // Arbitrary in-place mutation through the accounting guard.
        store.MutateRecord(key, [&](Record& r) {
          r.Set(name, RandomValue(rng), static_cast<MicroTime>(step), 1);
          r.Remove("attr-" + std::to_string(rng.Uniform(16)));
        });
        break;
      default:
        if (rng.Uniform(10) == 0) store.DeleteRecord(key);
        break;
    }
    if (step % 100 == 0) {
      EXPECT_EQ(store.ApproxBytes(), recompute()) << "step " << step;
    }
  }
  EXPECT_EQ(store.ApproxBytes(), recompute());
}

TEST(PackedLayoutPropertyTest, RecordsSurviveMigrationStreamChunks) {
  // Packed records, serialized as interned-id WriteOps through the commit
  // log, must reassemble identically on the far side of a chunked
  // MigrationStream (the background-migration wire path).
  sim::SimClock clock;
  auto network =
      std::make_unique<sim::Network>(sim::Topology(4, sim::LatencyConfig()),
                                     &clock);
  std::vector<std::unique_ptr<StorageElement>> ses;
  for (uint32_t s = 0; s < 4; ++s) {
    StorageElementConfig cfg;
    cfg.name = "se-" + std::to_string(s);
    cfg.site = s;
    ses.push_back(std::make_unique<StorageElement>(cfg, &clock, s));
  }
  replication::ReplicaSet rs(
      replication::ReplicaSetConfig(),
      {ses[0].get(), ses[1].get(), ses[2].get()}, network.get());

  Rng rng(31337);
  std::map<RecordKey, Record> originals;
  for (RecordKey key = 1; key <= 25; ++key) {
    Record r = RandomRecord(rng);
    replication::WriteBuilder wb;
    for (const auto& e : r.entries()) {
      wb.Set(key, e.name_id, e.attr.value);
    }
    ASSERT_TRUE(rs.Write(0, std::move(wb).Build()).status.ok());
    originals[key] = *rs.replica_store(rs.master_id()).Find(key);
  }

  auto stream = rs.BeginPrimaryMigration(ses[3].get());
  ASSERT_TRUE(stream.ok());
  int chunks = 0;
  while (!stream.value().copy_done()) {
    auto shipped = rs.ShipMigrationChunk(&stream.value(), 512);
    ASSERT_TRUE(shipped.ok());
    ++chunks;
    ASSERT_LT(chunks, 100000);
  }
  EXPECT_GT(chunks, 1) << "chunk size too large to exercise chunking";
  ASSERT_TRUE(rs.CompleteMigration(&stream.value()).ok());

  const RecordStore& migrated = ses[3]->store();
  for (const auto& [key, original] : originals) {
    const Record* got = migrated.Find(key);
    ASSERT_NE(got, nullptr) << "record " << key << " lost in migration";
    EXPECT_EQ(*got, original) << "record " << key;
  }
}

// ---------------------------------------------------------------------------
// Flat record slots: the open-addressed table against a std::map oracle
// ---------------------------------------------------------------------------

TEST(RecordGrowthTest, ExactSizedRecordGrowsByAQuarter) {
  // A record created at its exact size (ApplyWrites, Projected) that gains
  // one attribute grows by max(2, size/4), not by doubling.
  std::vector<WriteOp> ops;
  for (int i = 0; i < 18; ++i) {
    WriteOp op;
    op.key = 5;
    op.attr_id = InternAttr("growth-" + std::to_string(i));
    op.attribute.value = int64_t{i};
    ops.push_back(op);
  }
  RecordStore store;
  store.ApplyWrites(ops);
  ASSERT_EQ(store.Find(5)->entries().capacity(), 18u);
  store.SetAttribute(5, "growth-extra", int64_t{1}, 1, 0);
  EXPECT_EQ(store.Find(5)->attribute_count(), 19u);
  EXPECT_LE(store.Find(5)->entries().capacity(), 22u);
}

/// Keys drawn from a small space plus the extremes 0 and UINT64_MAX (the
/// slot array's empty marker, kept in a side slot) and sequential-looking
/// neighbours that collide on the low bits.
RecordKey RandomKey(Rng& rng) {
  switch (rng.Uniform(16)) {
    case 0:
      return 0;
    case 1:
      return ~RecordKey{0};
    case 2:
      return ~RecordKey{0} - 1;
    default:
      return rng.Uniform(3000) << (rng.Uniform(2) * 20);
  }
}

/// Attribute-version content of a record, for the oracle comparison.
std::map<AttrId, int64_t> ContentOf(const Record& r) {
  std::map<AttrId, int64_t> out;
  for (const PackedAttr& e : r.entries()) {
    out[e.name_id] = std::get<int64_t>(e.attr.value);
  }
  return out;
}

TEST(FlatRecordStoreTest, MatchesMapOracleOverRandomOps) {
  std::vector<AttrId> attrs;
  for (int i = 0; i < 6; ++i) attrs.push_back(InternAttr("flat-" + std::to_string(i)));
  Rng rng(4242);
  RecordStore store;
  std::map<RecordKey, std::map<AttrId, int64_t>> oracle;
  const auto check_all = [&] {
    ASSERT_EQ(store.Count(), static_cast<int64_t>(oracle.size()));
    std::map<RecordKey, std::map<AttrId, int64_t>> seen;
    int64_t bytes = 0;
    store.ForEach([&](RecordKey k, const Record& r) {
      EXPECT_TRUE(seen.emplace(k, ContentOf(r)).second) << "key twice " << k;
      bytes += r.ApproxBytes();
    });
    EXPECT_EQ(seen, oracle);
    EXPECT_EQ(store.ApproxBytes(), bytes);
  };
  const int kOps = 150'000;
  for (int step = 0; step < kOps; ++step) {
    // Phases: insert-heavy, erase-heavy (backward shift), mixed.
    const int phase = (3 * step) / kOps;
    const uint64_t erase_pct = phase == 0 ? 10 : phase == 1 ? 60 : 30;
    const RecordKey key = RandomKey(rng);
    const uint64_t r = rng.Uniform(100);
    if (r < erase_pct) {
      EXPECT_EQ(store.DeleteRecord(key), oracle.erase(key) == 1) << key;
    } else if (r < erase_pct + 10) {
      const AttrId a = attrs[rng.Uniform(attrs.size())];
      store.RemoveAttribute(key, a);
      auto it = oracle.find(key);
      if (it != oracle.end()) it->second.erase(a);
    } else if (r < 90) {
      const AttrId a = attrs[rng.Uniform(attrs.size())];
      const int64_t v = static_cast<int64_t>(rng.Uniform(1000));
      store.SetAttribute(key, a, v, step, 0);
      oracle[key][a] = v;
    } else {
      const Record* rec = store.Find(key);
      auto it = oracle.find(key);
      ASSERT_EQ(rec != nullptr, it != oracle.end()) << key;
      if (rec != nullptr) {
        EXPECT_EQ(ContentOf(*rec), it->second) << key;
      }
    }
    if (step % 5000 == 0) check_all();
  }
  check_all();
  for (RecordKey k : {RecordKey{0}, ~RecordKey{0}}) {
    store.SetAttribute(k, attrs[0], int64_t{k == 0 ? 1 : 2}, 0, 0);
    ASSERT_NE(store.Find(k), nullptr) << k;
    EXPECT_EQ(std::get<int64_t>(store.Find(k)->FindById(attrs[0])->value),
              k == 0 ? 1 : 2);
    EXPECT_TRUE(store.DeleteRecord(k));
    EXPECT_EQ(store.Find(k), nullptr);
  }
}

TEST(FlatRecordStoreTest, SameHistoryIteratesIdentically) {
  std::vector<WriteOp> ops;
  Rng rng(99);
  for (int i = 0; i < 20'000; ++i) {
    WriteOp op;
    op.key = RandomKey(rng);
    op.attr_id = InternAttr("same-" + std::to_string(rng.Uniform(4)));
    op.kind = rng.Uniform(5) == 0 ? WriteKind::kDeleteRecord
                                  : WriteKind::kUpsertAttr;
    op.attribute.value = static_cast<int64_t>(i);
    ops.push_back(op);
  }
  RecordStore a, b;
  for (size_t i = 0; i < ops.size(); i += 97) {
    const size_t end = std::min(ops.size(), i + 97);
    std::vector<WriteOp> chunk(ops.begin() + i, ops.begin() + end);
    a.ApplyWrites(chunk);
    b.ApplyWrites(chunk);
  }
  ExpectSameStore(a, b, "same history");
}

}  // namespace
}  // namespace udr::storage
