// Tests for the sharded multi-threaded execution mode (src/exec/): SPSC ring
// ordering under a real producer/consumer thread pair, Metrics registry
// thread safety, shard confinement + per-key order through the runtime, and
// sharded-vs-single-shard end-state equivalence. This file is the TSan
// target of ci.sh: every test here must be race-free under
// -fsanitize=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "exec/shard.h"
#include "exec/shard_runtime.h"
#include "exec/spsc_queue.h"
#include "location/identity.h"
#include "routing/partition_map.h"
#include "telecom/subscriber.h"
#include "workload/sharded_traffic.h"
#include "workload/testbed.h"

namespace udr::exec {
namespace {

// ---------------------------------------------------------------------------
// SPSC handoff ring
// ---------------------------------------------------------------------------

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> q(100);
  EXPECT_EQ(q.capacity(), 128u);
  SpscQueue<int> one(1);
  EXPECT_EQ(one.capacity(), 1u);
}

TEST(SpscQueueTest, RejectsPushWhenFullAndPopWhenEmpty) {
  SpscQueue<int> q(2);
  int out = 0;
  EXPECT_FALSE(q.TryPop(&out));
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // Full.
  EXPECT_TRUE(q.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.TryPush(3));  // Slot freed.
}

TEST(SpscQueueTest, FifoAcrossThreadsUnderStress) {
  // One producer, one consumer, a deliberately tiny ring so wraparound and
  // full/empty transitions happen constantly. The consumer must observe
  // 0..N-1 in exact order — any reordering or loss is a memory-ordering bug.
  constexpr int kItems = 200000;
  SpscQueue<int> q(64);
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) {
      int v = i;
      while (!q.TryPush(std::move(v))) std::this_thread::yield();
    }
  });
  int expected = 0;
  int out = 0;
  while (expected < kItems) {
    if (q.TryPop(&out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(q.TryPop(&out));
}

// ---------------------------------------------------------------------------
// Thread-safe metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsConcurrencyTest, CountersAndHistogramsAreExactUnderContention) {
  Metrics metrics;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metrics] {
      for (int i = 0; i < kIters; ++i) {
        metrics.Add("shared.counter");
        metrics.Observe("shared.hist", i % 100);
        if (i % 64 == 0) (void)metrics.Get("shared.counter");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(metrics.Get("shared.counter"), kThreads * kIters);
  EXPECT_EQ(metrics.HistOrEmpty("shared.hist").count(), kThreads * kIters);
}

TEST(MetricsConcurrencyTest, MergeFromWhileSourcesMutate) {
  // The per-shard pattern: shard registries mutate on their own threads
  // while a reader repeatedly merges them into a scratch registry.
  constexpr int kShards = 3;
  constexpr int kIters = 10000;
  std::vector<std::unique_ptr<Metrics>> shards;
  for (int i = 0; i < kShards; ++i) shards.push_back(std::make_unique<Metrics>());
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Metrics merged;
      for (auto& s : shards) merged.MergeFrom(*s);
      // A snapshot mid-run can be anything <= total; just must not race.
      EXPECT_LE(merged.Get("ops"), kShards * kIters);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kShards; ++t) {
    writers.emplace_back([&shards, t] {
      for (int i = 0; i < kIters; ++i) shards[t]->Add("ops");
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  Metrics merged;
  for (auto& s : shards) merged.MergeFrom(*s);
  EXPECT_EQ(merged.Get("ops"), kShards * kIters);
}

// ---------------------------------------------------------------------------
// Shard hashing
// ---------------------------------------------------------------------------

TEST(ShardTest, SubscriberShardingIsTotalAndBalanced) {
  constexpr int kShards = 4;
  constexpr uint64_t kSubs = 10000;
  std::vector<int64_t> per_shard(kShards, 0);
  for (uint64_t s = 0; s < kSubs; ++s) {
    const int shard = Shard::ShardOfSubscriber(s, kShards);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    ++per_shard[shard];
  }
  for (int i = 0; i < kShards; ++i) {
    // splitmix64 spreads sequential indices near-uniformly.
    EXPECT_GT(per_shard[i], kSubs / kShards / 2) << "shard " << i;
    EXPECT_LT(per_shard[i], kSubs * 2 / kShards) << "shard " << i;
  }
  EXPECT_EQ(Shard::ShardOfSubscriber(123, 1), 0);
}

TEST(ShardSlicerTest, PartitionAlignedShardOwnsWholePartitions) {
  // The scenario-harness contract: sliced against a real PartitionMap, a
  // shard's subscriber set is a union of whole partitions — every subscriber
  // maps to the shard that owns its actual partition, never across it.
  workload::TestbedOptions to;
  to.sites = 2;
  to.subscribers = 300;
  to.udr.se_per_cluster = 2;
  to.udr.partitions_per_se = 2;
  workload::Testbed bed(to);
  const routing::PartitionMap& map = bed.udr().partition_map();
  constexpr int kShards = 3;
  ShardSlicer slicer(&map, kShards);
  EXPECT_TRUE(slicer.partition_aligned());

  telecom::SubscriberFactory factory(0);
  for (uint64_t sub = 0; sub < 300; ++sub) {
    const location::Identity id{location::IdentityType::kImsi,
                                factory.ImsiOf(sub)};
    EXPECT_EQ(slicer.ShardOf(sub),
              slicer.ShardOfPartition(map.PartitionOfIdentity(id)))
        << "subscriber " << sub << " crossed its partition's shard";
  }

  // Round-robin deal: 2 sites x 2 SEs x 2 partitions = 8 partitions
  // spread over 3 shards, so every shard owns at least two.
  std::vector<int> owned(kShards, 0);
  for (uint32_t p = 0; p < map.partition_count(); ++p) {
    const int shard = slicer.ShardOfPartition(p);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, kShards);
    ++owned[shard];
  }
  for (int s = 0; s < kShards; ++s) EXPECT_GE(owned[s], 2) << "shard " << s;
}

// ---------------------------------------------------------------------------
// Sharded runtime end to end
// ---------------------------------------------------------------------------

workload::TrafficOptions SmallShardedRun(int num_shards) {
  workload::TrafficOptions opts;
  opts.subscriber_count = 200;
  opts.seed = 11;
  opts.num_shards = num_shards;
  opts.sharded_total_ops = 4000;
  opts.sharded_write_fraction = 0.4;
  opts.sharded_batch_ops = 8;
  return opts;
}

TEST(ShardRuntimeTest, TwoShardsExecuteEverythingInOrder) {
  auto report = workload::RunShardedTraffic(SmallShardedRun(2));
  EXPECT_EQ(report.runtime.shards.size(), 2u);
  EXPECT_EQ(report.runtime.ops_done, 4000);
  EXPECT_EQ(report.runtime.ops_done, report.runtime.ops_submitted);
  EXPECT_EQ(report.runtime.ops_failed, 0);
  EXPECT_EQ(report.runtime.order_violations, 0);
  EXPECT_GT(report.verified_subscribers, 0);
  EXPECT_EQ(report.seq_mismatches, 0);
  EXPECT_TRUE(report.ok());
  // Both shards got real work and real provisioned populations.
  int64_t provisioned = 0;
  for (const auto& shard : report.runtime.shards) {
    EXPECT_GT(shard.ops, 0);
    EXPECT_GT(shard.provisioned, 0);
    EXPECT_GT(shard.busy_ns, 0);
    provisioned += shard.provisioned;
  }
  EXPECT_EQ(provisioned, 200);
  EXPECT_GT(report.runtime.aggregate_ops_per_sec, 0.0);
}

TEST(ShardRuntimeTest, ShardedMatchesSingleShardFinalState) {
  // The same op stream must leave every subscriber's master copy in the same
  // final state whether it ran on 1 shard or 4 — sharding changes WHERE work
  // runs, never WHAT it computes.
  auto single = workload::RunShardedTraffic(SmallShardedRun(1));
  auto sharded = workload::RunShardedTraffic(SmallShardedRun(4));
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(single.runtime.ops_done, sharded.runtime.ops_done);
  EXPECT_EQ(single.verified_subscribers, sharded.verified_subscribers);
  // Both verified against the same driver-side expected sequence, so equal
  // verified counts with zero mismatches IS state equivalence.
}

TEST(ShardRuntimeTest, PartitionAlignedShardingRunsUnderScenarioMap) {
  // Regression for the scenario-harness integration: sharded mode sliced
  // from a real PartitionMap (the same substrate scenario::Engine drives)
  // must execute a full run with zero order violations and the exact same
  // end-state guarantee as hash slicing. Workers share one read-only slicer.
  workload::TestbedOptions to;
  to.sites = 2;
  to.seed = 11;
  to.subscribers = 200;
  to.udr.se_per_cluster = 2;
  to.udr.partitions_per_se = 2;
  workload::Testbed bed(to);

  auto report = workload::RunShardedTraffic(SmallShardedRun(3),
                                            &bed.udr().partition_map());
  EXPECT_EQ(report.runtime.shards.size(), 3u);
  EXPECT_EQ(report.runtime.ops_done, 4000);
  EXPECT_EQ(report.runtime.ops_failed, 0);
  EXPECT_EQ(report.runtime.order_violations, 0);
  EXPECT_EQ(report.seq_mismatches, 0);
  EXPECT_TRUE(report.ok());
  // The whole population is provisioned exactly once across the slices: the
  // shards agreed on partition-aligned ownership with no gap or overlap.
  int64_t provisioned = 0;
  for (const auto& shard : report.runtime.shards) {
    EXPECT_GT(shard.provisioned, 0) << "a shard got no partitions";
    provisioned += shard.provisioned;
  }
  EXPECT_EQ(provisioned, 200);
}

TEST(ShardRuntimeTest, BackpressureSurvivesTinyRings) {
  // A 2-slot ring forces the driver to spin on a full ring constantly; the
  // run must still complete exactly, proving the blocking Submit path.
  exec::ShardRuntimeOptions ro;
  ro.num_shards = 2;
  ro.queue_capacity = 2;
  ro.shard.total_subscribers = 50;
  exec::ShardRuntime runtime(ro);
  runtime.Start();
  uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    ShardBatch batch;
    ShardOp op;
    op.subscriber = static_cast<uint64_t>(i) % 50;
    op.seq = ++seq;  // Globally increasing => per-subscriber increasing.
    op.write = (i % 3 == 0);
    batch.ops.push_back(op);
    runtime.Submit(std::move(batch), runtime.ShardOf(op.subscriber));
  }
  const auto& report = runtime.Finish();
  EXPECT_EQ(report.ops_done, 500);
  EXPECT_EQ(report.ops_failed, 0);
  EXPECT_EQ(report.order_violations, 0);
}

}  // namespace
}  // namespace udr::exec
