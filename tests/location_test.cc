// Unit tests for src/location: identities, the provisioned and cached
// location stages and their cost/availability models, and hash placement
// through routing::PartitionMap (the paper's third realization).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "location/identity.h"
#include "location/location_stage.h"
#include "routing/partition_map.h"
#include "sim/network.h"
#include "storage/storage_element.h"

namespace udr::location {
namespace {

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

TEST(IdentityTest, TypeNames) {
  EXPECT_STREQ(IdentityTypeName(IdentityType::kImsi), "IMSI");
  EXPECT_STREQ(IdentityTypeName(IdentityType::kMsisdn), "MSISDN");
  EXPECT_STREQ(IdentityTypeName(IdentityType::kImpu), "IMPU");
  EXPECT_STREQ(IdentityTypeName(IdentityType::kImpi), "IMPI");
}

TEST(IdentityTest, EqualityAndOrdering) {
  Identity a{IdentityType::kImsi, "214"};
  Identity b{IdentityType::kImsi, "214"};
  Identity c{IdentityType::kMsisdn, "214"};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a < c);  // Type ordering.
}

TEST(IdentityTest, HashDistinguishesTypeAndValue) {
  Identity a{IdentityType::kImsi, "214"};
  Identity b{IdentityType::kMsisdn, "214"};
  Identity c{IdentityType::kImsi, "215"};
  EXPECT_NE(HashIdentity(a), HashIdentity(b));
  EXPECT_NE(HashIdentity(a), HashIdentity(c));
  EXPECT_EQ(HashIdentity(a), HashIdentity(Identity{IdentityType::kImsi, "214"}));
}

TEST(IdentityTest, ToStringIncludesType) {
  Identity a{IdentityType::kImpu, "sip:x"};
  EXPECT_EQ(a.ToString(), "IMPU:sip:x");
}

// ---------------------------------------------------------------------------
// ProvisionedLocationStage
// ---------------------------------------------------------------------------

TEST(ProvisionedStageTest, BindResolveUnbind) {
  IdentityIndex index;
  ProvisionedLocationStage stage(&index);
  Identity id{IdentityType::kImsi, "214050000000001"};
  LocationEntry entry{42, 3};
  index.Bind(id, entry);
  ResolveResult r = stage.Resolve(id, 0);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.entry, entry);
  EXPECT_GT(r.cost, 0);
  ASSERT_TRUE(index.Unbind(id));
  EXPECT_TRUE(stage.Resolve(id, 0).status.IsNotFound());
  EXPECT_FALSE(index.Unbind(id));
}

TEST(ProvisionedStageTest, SupportsAllIdentityIndexes) {
  IdentityIndex index;
  ProvisionedLocationStage stage(&index);
  LocationEntry e{1, 0};
  index.Bind({IdentityType::kImsi, "214"}, e);
  index.Bind({IdentityType::kMsisdn, "+34600"}, e);
  index.Bind({IdentityType::kImpu, "sip:a"}, e);
  index.Bind({IdentityType::kImpi, "a@realm"}, e);
  EXPECT_EQ(stage.EntryCount(), 4);
  EXPECT_EQ(index.CountOf(IdentityType::kMsisdn), 1);
  // Same value under different types resolves independently.
  EXPECT_TRUE(stage.Resolve({IdentityType::kImsi, "214"}, 0).status.ok());
  EXPECT_TRUE(
      stage.Resolve({IdentityType::kMsisdn, "214"}, 0).status.IsNotFound());
}

TEST(ProvisionedStageTest, StageBindingsAreTheSharedIndex) {
  // A stage keeps no bindings of its own: Bind/Unbind on it are no-ops and
  // two stages over one index see exactly what the index holds.
  IdentityIndex index;
  ProvisionedLocationStage a(&index), b(&index);
  Identity id{IdentityType::kImsi, "214"};
  EXPECT_TRUE(a.Bind(id, {1, 0}).ok());
  EXPECT_TRUE(a.Resolve(id, 0).status.IsNotFound());
  index.Bind(id, {7, 2});
  EXPECT_EQ(a.Resolve(id, 0).entry, (LocationEntry{7, 2}));
  EXPECT_EQ(b.Resolve(id, 0).entry, (LocationEntry{7, 2}));
  EXPECT_TRUE(b.Unbind(id).ok());
  EXPECT_TRUE(a.Resolve(id, 0).status.ok());
  // Rebinding overwrites without changing the counts.
  index.Bind(id, {8, 1});
  EXPECT_EQ(index.size(), 1);
  EXPECT_EQ(index.CountOf(IdentityType::kImsi), 1);
  EXPECT_EQ(index.value_bytes(), 3);
  ASSERT_TRUE(index.Unbind(id));
  EXPECT_EQ(index.CountOf(IdentityType::kImsi), 0);
  EXPECT_EQ(index.value_bytes(), 0);
}

TEST(ProvisionedStageTest, LookupCostGrowsLogarithmically) {
  LocationCostModel model;
  model.map_base = Micros(2);
  model.map_per_log2 = Micros(1);
  IdentityIndex index;
  ProvisionedLocationStage stage(&index, model);
  LocationEntry e{1, 0};
  for (int i = 0; i < 1024; ++i) {
    index.Bind({IdentityType::kImsi, "s" + std::to_string(i)}, e);
  }
  MicroDuration cost_1k = stage.Resolve({IdentityType::kImsi, "s5"}, 0).cost;
  for (int i = 1024; i < 65536; ++i) {
    index.Bind({IdentityType::kImsi, "s" + std::to_string(i)}, e);
  }
  MicroDuration cost_64k = stage.Resolve({IdentityType::kImsi, "s5"}, 0).cost;
  // log2(64k)=16 vs log2(1k)=10: +6 comparisons at 1us each.
  EXPECT_EQ(cost_64k - cost_1k, Micros(6));
  // The modelled depth is per identity type: other types do not deepen it.
  for (int i = 0; i < 4096; ++i) {
    index.Bind({IdentityType::kMsisdn, "m" + std::to_string(i)}, e);
  }
  EXPECT_EQ(stage.Resolve({IdentityType::kImsi, "s5"}, 0).cost, cost_64k);
}

TEST(ProvisionedStageTest, MemoryGrowsPerEntry) {
  IdentityIndex index;
  ProvisionedLocationStage stage(&index);
  EXPECT_EQ(stage.ApproxBytes(), 0);
  index.Bind({IdentityType::kImsi, "214050000000001"}, {1, 0});
  int64_t one = stage.ApproxBytes();
  EXPECT_GT(one, 64);
  index.Bind({IdentityType::kMsisdn, "+34600000001"}, {1, 0});
  EXPECT_GT(stage.ApproxBytes(), one);
}

TEST(ProvisionedStageTest, ScaleOutSyncWindowBlocksResolution) {
  LocationCostModel model;
  model.sync_per_entry = Micros(2);
  IdentityIndex index;
  ProvisionedLocationStage peer(&index, model);
  for (int i = 0; i < 1000; ++i) {
    index.Bind({IdentityType::kImsi, "s" + std::to_string(i)}, {1, 0});
  }
  IdentityIndex empty;
  ProvisionedLocationStage fresh(&empty, model);
  MicroDuration window = fresh.BeginSyncFrom(peer, /*now=*/Seconds(10));
  EXPECT_EQ(window, 1000 * Micros(2));
  EXPECT_TRUE(fresh.Syncing(Seconds(10)));
  // During the window: Unavailable (the §3.4.2 R hit).
  EXPECT_TRUE(fresh.Resolve({IdentityType::kImsi, "s5"}, Seconds(10))
                  .status.IsUnavailable());
  // After: fully synced.
  MicroTime done = Seconds(10) + window;
  EXPECT_FALSE(fresh.Syncing(done));
  EXPECT_TRUE(fresh.Resolve({IdentityType::kImsi, "s5"}, done).status.ok());
  EXPECT_EQ(fresh.EntryCount(), 1000);
}

TEST(ProvisionedStageTest, SyncWindowScalesWithEntries) {
  IdentityIndex small_index, big_index, empty;
  ProvisionedLocationStage small(&small_index), big(&big_index),
      fresh1(&empty), fresh2(&empty);
  for (int i = 0; i < 100; ++i) {
    small_index.Bind({IdentityType::kImsi, "s" + std::to_string(i)}, {1, 0});
  }
  for (int i = 0; i < 10000; ++i) {
    big_index.Bind({IdentityType::kImsi, "b" + std::to_string(i)}, {1, 0});
  }
  EXPECT_EQ(fresh2.BeginSyncFrom(big, 0) / fresh1.BeginSyncFrom(small, 0), 100);
}

// ---------------------------------------------------------------------------
// CachedLocationStage
// ---------------------------------------------------------------------------

class CachedStageTest : public ::testing::Test {
 protected:
  CachedStageTest()
      : stage_(
            [this](const Identity& id) -> StatusOr<LocationEntry> {
              auto it = truth_.find(id.value);
              if (it == truth_.end()) return Status::NotFound("no");
              return it->second;
            },
            [this]() { return se_count_; }, model_) {}

  LocationCostModel model_;
  std::map<std::string, LocationEntry> truth_;
  int se_count_ = 8;
  CachedLocationStage stage_;
};

TEST_F(CachedStageTest, MissBroadcastsThenCaches) {
  truth_["214"] = {7, 2};
  ResolveResult miss = stage_.Resolve({IdentityType::kImsi, "214"}, 0);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_TRUE(miss.cache_miss);
  EXPECT_EQ(miss.entry.key, 7u);
  EXPECT_EQ(miss.cost, model_.broadcast_rtt + 8 * model_.broadcast_per_se);
  ResolveResult hit = stage_.Resolve({IdentityType::kImsi, "214"}, 0);
  EXPECT_FALSE(hit.cache_miss);
  EXPECT_EQ(hit.cost, model_.map_base);
  EXPECT_EQ(stage_.cache_hits(), 1);
  EXPECT_EQ(stage_.cache_misses(), 1);
}

TEST_F(CachedStageTest, MissCostGrowsWithSeCount) {
  truth_["a"] = {1, 0};
  MicroDuration cost8 = stage_.Resolve({IdentityType::kImsi, "a"}, 0).cost;
  stage_.InvalidateAll();
  se_count_ = 256;
  MicroDuration cost256 = stage_.Resolve({IdentityType::kImsi, "a"}, 0).cost;
  EXPECT_EQ(cost256 - cost8, 248 * model_.broadcast_per_se);
}

TEST_F(CachedStageTest, UnknownIdentityStaysUncached) {
  ResolveResult r = stage_.Resolve({IdentityType::kImsi, "ghost"}, 0);
  EXPECT_TRUE(r.status.IsNotFound());
  EXPECT_EQ(stage_.EntryCount(), 0);
}

TEST_F(CachedStageTest, InvalidateAllEmptiesCache) {
  truth_["a"] = {1, 0};
  stage_.Resolve({IdentityType::kImsi, "a"}, 0);
  EXPECT_EQ(stage_.EntryCount(), 1);
  stage_.InvalidateAll();
  EXPECT_EQ(stage_.EntryCount(), 0);
  ResolveResult r = stage_.Resolve({IdentityType::kImsi, "a"}, 0);
  EXPECT_TRUE(r.cache_miss);
}

TEST_F(CachedStageTest, BindSeedsCache) {
  ASSERT_TRUE(stage_.Bind({IdentityType::kImsi, "x"}, {5, 1}).ok());
  ResolveResult r = stage_.Resolve({IdentityType::kImsi, "x"}, 0);
  EXPECT_FALSE(r.cache_miss);
  EXPECT_EQ(r.entry.key, 5u);
}

// ---------------------------------------------------------------------------
// Hash placement: the router's bypass resolves through PartitionMap's ring
// ---------------------------------------------------------------------------

/// A commissioned map of `partitions` single-copy partitions on one SE.
class HashPlacement {
 public:
  HashPlacement(uint32_t partitions, int vnodes_per_partition)
      : network_(sim::Topology(1), &clock_),
        se_(storage::StorageElementConfig(), &clock_),
        map_(Config(partitions, vnodes_per_partition), &network_) {
    map_.RegisterStorageElement(&se_, 0);
    map_.Commission();
  }

  uint32_t PartitionOf(const Identity& id) const {
    return map_.PartitionOfIdentity(id);
  }

 private:
  static routing::PartitionMapConfig Config(uint32_t partitions, int vnodes) {
    routing::PartitionMapConfig cfg;
    cfg.replication_factor = 1;
    cfg.partitions_per_se = static_cast<int>(partitions);
    cfg.vnodes_per_partition = vnodes;
    return cfg;
  }

  sim::SimClock clock_;
  sim::Network network_;
  storage::StorageElement se_;
  routing::PartitionMap map_;
};

TEST(HashPlacementTest, DeterministicPlacementWithoutBindings) {
  // No identity is bound anywhere: the partition is a pure function of the
  // identity and the ring.
  HashPlacement a(16, 64), b(16, 64);
  Identity id{IdentityType::kImsi, "214050000000042"};
  EXPECT_EQ(a.PartitionOf(id), b.PartitionOf(id));
  EXPECT_LT(a.PartitionOf(id), 16u);
}

TEST(HashPlacementTest, SpreadsLoadAcrossPartitions) {
  HashPlacement placement(8, 128);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[placement.PartitionOf(
        {IdentityType::kImsi, "s" + std::to_string(i)})];
  }
  for (int c : counts) {
    EXPECT_GT(c, 8000 / 8 / 3) << "partition starved";
    EXPECT_LT(c, 8000 / 8 * 3) << "partition overloaded";
  }
}

TEST(HashPlacementTest, ImsiAndMsisdnLandApart) {
  // The paper's objection: each identity of a subscriber lands somewhere
  // else, so the data would need one full replica per identity type.
  HashPlacement placement(64, 128);
  int diverging = 0;
  for (int i = 0; i < 200; ++i) {
    std::string v = std::to_string(1000000 + i);
    if (placement.PartitionOf({IdentityType::kImsi, v}) !=
        placement.PartitionOf({IdentityType::kMsisdn, v})) {
      ++diverging;
    }
  }
  EXPECT_GT(diverging, 150);
}

}  // namespace
}  // namespace udr::location
