// Unit tests for src/location: identities, the provisioned and cached
// location stages and their cost/availability models, and hash placement
// through routing::PartitionMap (the paper's third realization).

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
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

TEST(CachedStageFlatCacheTest, CountsMatchAMapModelOverSeededSequence) {
  // The cache is an IdentityIndex; hits, misses, EntryCount and the O(1)
  // ApproxBytes must equal what a plain map cache gives for the same seeded
  // bind / resolve / unbind / invalidate sequence.
  LocationCostModel model;
  std::map<std::string, LocationEntry> truth;
  CachedLocationStage stage(
      [&truth](const Identity& id) -> StatusOr<LocationEntry> {
        auto it = truth.find(id.value);
        if (it == truth.end()) return Status::NotFound("no");
        return it->second;
      },
      [] { return 4; }, model);
  std::map<Identity, LocationEntry> cache;  // The model.
  int64_t hits = 0, misses = 0;
  Rng rng(31337);
  const auto identity = [&rng] {
    const uint64_t n = rng.Uniform(400);
    // Short values stay inline in the slot, IMPI-length ones go to the arena.
    return n % 3 == 0
               ? Identity{IdentityType::kImpi,
                          std::to_string(n) + "@ims.mnc001.mcc001.3gppnetwork.org"}
               : Identity{IdentityType::kImsi, "21401" + std::to_string(n)};
  };
  for (int step = 0; step < 20'000; ++step) {
    const Identity id = identity();
    switch (rng.Uniform(10)) {
      case 0: {  // Provisioning bind.
        const LocationEntry e{rng.Uniform(1000), static_cast<uint32_t>(step % 7)};
        truth[id.value] = e;
        ASSERT_TRUE(stage.Bind(id, e).ok());
        cache[id] = e;
        break;
      }
      case 1:
        truth.erase(id.value);
        ASSERT_TRUE(stage.Unbind(id).ok());
        cache.erase(id);
        break;
      case 2:
        if (rng.Uniform(50) == 0) {
          stage.InvalidateAll();
          cache.clear();
        }
        break;
      default: {  // Resolve: a hit, or a miss that broadcasts and caches.
        const ResolveResult r = stage.Resolve(id, 0);
        auto it = cache.find(id);
        if (it != cache.end()) {
          ++hits;
          EXPECT_FALSE(r.cache_miss);
          EXPECT_EQ(r.entry, it->second);
        } else {
          ++misses;
          EXPECT_TRUE(r.cache_miss);
          auto t = truth.find(id.value);
          if (t != truth.end()) cache[id] = t->second;
        }
        break;
      }
    }
    int64_t bytes = 0;
    for (const auto& [cached, _] : cache) {
      bytes += model.bytes_per_entry + static_cast<int64_t>(cached.value.size());
    }
    ASSERT_EQ(stage.EntryCount(), static_cast<int64_t>(cache.size())) << step;
    ASSERT_EQ(stage.ApproxBytes(), bytes) << step;
  }
  EXPECT_EQ(stage.cache_hits(), hits);
  EXPECT_EQ(stage.cache_misses(), misses);
  EXPECT_GT(hits, 1000);
  EXPECT_GT(misses, 1000);
}

// ---------------------------------------------------------------------------
// IdentityIndex: per-type flat tables against a std::map oracle
// ---------------------------------------------------------------------------

/// A random identity: every type, with values inline (<= 16 bytes), at the
/// 16-byte edge, and IMPI/SIP-IMPU length (the arena).
Identity RandomIdentity(Rng& rng, uint64_t space) {
  const uint64_t n = rng.Uniform(space);
  switch (rng.Uniform(5)) {
    case 0:
      return {IdentityType::kImsi, "21401" + std::to_string(1000000000 + n)};
    case 1:
      return {IdentityType::kMsisdn, "+346" + std::to_string(n)};
    case 2:
      return {IdentityType::kImpu, "tel:+3460" + std::to_string(1000000 + n)};
    case 3:
      return {IdentityType::kImpu,
              "sip:+346" + std::to_string(n) + "@ims.mnc001.mcc214.3gppnetwork.org"};
    default:
      return {IdentityType::kImpi,
              "21401" + std::to_string(n) + "@ims.mnc001.mcc214.3gppnetwork.org"};
  }
}

void ExpectIndexMatches(const IdentityIndex& index,
                        const std::map<Identity, LocationEntry>& oracle) {
  ASSERT_EQ(index.size(), static_cast<int64_t>(oracle.size()));
  std::map<Identity, LocationEntry> seen;
  int64_t counts[kIdentityTypeCount] = {};
  int64_t value_bytes = 0;
  index.ForEach([&](IdentityView id, const LocationEntry& e) {
    EXPECT_TRUE(seen.emplace(id.ToIdentity(), e).second);
    ++counts[static_cast<int>(id.type)];
    value_bytes += static_cast<int64_t>(id.value.size());
  });
  EXPECT_EQ(seen, oracle);
  for (int t = 0; t < kIdentityTypeCount; ++t) {
    EXPECT_EQ(index.CountOf(static_cast<IdentityType>(t)), counts[t]);
  }
  EXPECT_EQ(index.value_bytes(), value_bytes);
  for (const auto& [id, e] : oracle) {
    const std::optional<LocationEntry> got = index.Find(id);
    ASSERT_TRUE(got.has_value()) << id.ToString();
    EXPECT_EQ(*got, e) << id.ToString();
  }
}

TEST(IdentityIndexTest, MatchesMapOracleOverRandomOps) {
  Rng rng(8080);
  IdentityIndex index;
  std::map<Identity, LocationEntry> oracle;
  const int kOps = 120'000;
  for (int step = 0; step < kOps; ++step) {
    // Phases: bind-heavy, unbind-heavy (backward shift), mixed.
    const int phase = (3 * step) / kOps;
    const uint64_t unbind_pct = phase == 0 ? 15 : phase == 1 ? 65 : 35;
    const Identity id = RandomIdentity(rng, 3000);
    const uint64_t r = rng.Uniform(100);
    if (r < unbind_pct) {
      EXPECT_EQ(index.Unbind(id), oracle.erase(id) == 1) << id.ToString();
    } else if (r < 85) {
      const LocationEntry e{rng.Next(), static_cast<uint32_t>(rng.Uniform(64))};
      index.Bind(id, e);
      oracle[id] = e;
    } else {
      const std::optional<LocationEntry> got = index.Find(id);
      auto it = oracle.find(id);
      ASSERT_EQ(got.has_value(), it != oracle.end()) << id.ToString();
      if (got) {
        EXPECT_EQ(*got, it->second);
      }
    }
    if (step % 10'000 == 0) ExpectIndexMatches(index, oracle);
  }
  ExpectIndexMatches(index, oracle);
  EXPECT_LE(index.arena_dead_bytes(), index.arena_live_bytes());
}

TEST(IdentityIndexTest, ArenaDeadBytesStayBelowLiveBytesUnderChurn) {
  // Steady churn over IMPI-length identities: every unbind leaves its bytes
  // dead in the arena until a compaction reclaims them.
  Rng rng(5150);
  IdentityIndex index;
  const auto impi = [](uint64_t n) {
    return Identity{IdentityType::kImpi,
                    "21401" + std::to_string(n) + "@ims.mnc001.mcc214.3gppnetwork.org"};
  };
  for (uint64_t n = 0; n < 4000; ++n) index.Bind(impi(n), {n, 0});
  for (int step = 0; step < 100'000; ++step) {
    const uint64_t n = rng.Uniform(8000);
    if (rng.Uniform(2) == 0) {
      index.Unbind(impi(n));
    } else {
      index.Bind(impi(n), {n, 1});
    }
    ASSERT_LE(index.arena_dead_bytes(), index.arena_live_bytes()) << step;
  }
  EXPECT_GT(index.arena_live_bytes(), 0);
  // Unbinding everything leaves at most one dead byte per slot.
  std::vector<Identity> bound;
  index.ForEach([&](IdentityView id, const LocationEntry&) {
    bound.push_back(id.ToIdentity());
  });
  for (const Identity& id : bound) ASSERT_TRUE(index.Unbind(id));
  EXPECT_EQ(index.size(), 0);
  EXPECT_EQ(index.arena_live_bytes(), 0);
  // At most one dead byte per slot, and 8000 IMPIs need at most 16384.
  EXPECT_LE(index.arena_dead_bytes(), 16384);
}

TEST(IdentityIndexTest, SameHistoryIteratesIdentically) {
  Rng rng_a(77), rng_b(77);
  IdentityIndex a, b;
  for (int step = 0; step < 30'000; ++step) {
    const Identity ida = RandomIdentity(rng_a, 2000);
    const Identity idb = RandomIdentity(rng_b, 2000);
    if (rng_a.Uniform(3) == 0) {
      rng_b.Uniform(3);
      a.Unbind(ida);
      b.Unbind(idb);
    } else {
      rng_b.Uniform(3);
      a.Bind(ida, {static_cast<uint64_t>(step), 0});
      b.Bind(idb, {static_cast<uint64_t>(step), 0});
    }
  }
  std::vector<std::pair<Identity, LocationEntry>> in_a, in_b;
  a.ForEach([&](IdentityView id, const LocationEntry& e) {
    in_a.emplace_back(id.ToIdentity(), e);
  });
  b.ForEach([&](IdentityView id, const LocationEntry& e) {
    in_b.emplace_back(id.ToIdentity(), e);
  });
  ASSERT_EQ(in_a.size(), in_b.size());
  for (size_t i = 0; i < in_a.size(); ++i) {
    EXPECT_EQ(in_a[i].first, in_b[i].first) << i;
    EXPECT_EQ(in_a[i].second, in_b[i].second) << i;
  }
}

TEST(IdentityIndexTest, ClearDropsEveryTypeAndFreesTheTables) {
  IdentityIndex index;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) index.Bind(RandomIdentity(rng, 1000), {1, 0});
  EXPECT_GT(index.HostBytes(), 0);
  index.Clear();
  EXPECT_EQ(index.size(), 0);
  EXPECT_EQ(index.value_bytes(), 0);
  EXPECT_EQ(index.HostBytes(), 0);
  for (int t = 0; t < kIdentityTypeCount; ++t) {
    EXPECT_EQ(index.CountOf(static_cast<IdentityType>(t)), 0);
  }
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
