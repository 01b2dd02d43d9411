// Unit and property tests for the src/routing layer: consistent-hash ring
// stability, PartitionMap commissioning and key resolution, placement-policy
// invariants, primary-copy migration, and the scale-out-then-rebalance
// scenario (per-SE primary-count spread <= 1, zero acknowledged-write loss).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/hash_ring.h"
#include "ldap/dn.h"
#include "routing/partition_map.h"
#include "routing/placement_policy.h"
#include "routing/router.h"
#include "workload/testbed.h"

namespace udr::routing {
namespace {

using location::Identity;
using location::IdentityType;

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

TEST(HashRingTest, DeterministicAcrossInstances) {
  HashRing a(64), b(64);
  for (uint32_t n = 0; n < 8; ++n) {
    a.AddNode(n);
    b.AddNode(n);
  }
  for (uint64_t k = 0; k < 1000; ++k) {
    uint64_t h = k * 0x9E3779B97F4A7C15ULL;
    EXPECT_EQ(a.NodeOfHash(h), b.NodeOfHash(h));
  }
}

TEST(HashRingTest, GrowthMovesOnlyAFractionOfKeys) {
  constexpr int kKeys = 20000;
  constexpr uint32_t kNodes = 10;
  HashRing ring(128);
  for (uint32_t n = 0; n < kNodes; ++n) ring.AddNode(n);

  std::vector<uint32_t> before(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    before[k] = ring.NodeOfHash(static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ULL);
  }
  ring.AddNode(kNodes);  // Grow the map by one node.
  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    uint32_t after =
        ring.NodeOfHash(static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ULL);
    if (after != before[k]) {
      // Every moved key must land on the new node: consistent hashing never
      // reshuffles keys between pre-existing nodes.
      EXPECT_EQ(after, kNodes);
      ++moved;
    }
  }
  // Expected movement is K/(N+1) ~ 1818; allow a generous vnode-variance
  // band but stay far below the K*N/(N+1) a mod-N scheme would move.
  EXPECT_GT(moved, kKeys / (kNodes + 1) / 3);
  EXPECT_LT(moved, 3 * kKeys / (kNodes + 1));
}

TEST(HashRingTest, BulkAddMatchesIncrementalAdd) {
  HashRing a(64), b(64);
  a.AddNodes(0, 10);
  for (uint32_t n = 0; n < 10; ++n) b.AddNode(n);
  EXPECT_EQ(a.point_count(), b.point_count());
  EXPECT_EQ(a.node_count(), 10u);
  for (uint64_t k = 0; k < 2000; ++k) {
    uint64_t h = k * 0x9E3779B97F4A7C15ULL;
    EXPECT_EQ(a.NodeOfHash(h), b.NodeOfHash(h));
  }
}

// ---------------------------------------------------------------------------
// PartitionMap on a deployed testbed
// ---------------------------------------------------------------------------

TEST(PartitionMapDeployTest, CommissionsPartitionsPerSe) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.udr.partitions_per_se = 2;
  workload::Testbed bed(o);
  // 3 clusters x 2 SEs x 2 partitions each.
  EXPECT_EQ(bed.udr().partition_count(), 12u);
  EXPECT_EQ(bed.udr().partition_map().PrimarySpread(), 0);
}

TEST(PartitionMapDeployTest, CommissionIsIdempotent) {
  workload::TestbedOptions o;
  o.sites = 3;
  workload::Testbed bed(o);
  size_t before = bed.udr().partition_count();
  bed.udr().CommissionPartitions();
  bed.udr().CommissionPartitions();
  EXPECT_EQ(bed.udr().partition_count(), before);
}

TEST(PartitionMapDeployTest, KeyResolutionIsStableUnderGrowth) {
  workload::TestbedOptions o;
  o.sites = 4;
  workload::Testbed bed(o);  // 4 clusters, 8 partitions.
  auto& map = bed.udr().partition_map();
  size_t partitions_before = map.partition_count();

  std::vector<uint32_t> before;
  for (uint64_t k = 0; k < 5000; ++k) {
    before.push_back(map.PartitionOfKey(k * 0x9E3779B97F4A7C15ULL));
  }
  // Scale out: new cluster at an existing site, then commission its SEs.
  ASSERT_TRUE(bed.udr().AddCluster(0).ok());
  bed.udr().CommissionPartitions();
  ASSERT_GT(map.partition_count(), partitions_before);

  int moved = 0;
  for (uint64_t k = 0; k < 5000; ++k) {
    uint32_t after = map.PartitionOfKey(k * 0x9E3779B97F4A7C15ULL);
    if (after != before[k]) {
      EXPECT_GE(after, partitions_before);  // Moves only onto new partitions.
      ++moved;
    }
  }
  // 2 new partitions over 10 total: ~20% of keys move, never the ~80% a
  // mod-N scheme would reshuffle.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, 5000 * 2 / 5);
}

// ---------------------------------------------------------------------------
// PlacementPolicy invariants
// ---------------------------------------------------------------------------

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() : bed_(MakeOptions()) {}

  static workload::TestbedOptions MakeOptions() {
    workload::TestbedOptions o;
    o.sites = 3;
    return o;
  }

  PartitionMap& map() { return bed_.udr().partition_map(); }
  workload::Testbed bed_;
};

TEST_F(PlacementTest, LeastLoadedPicksSmallestPopulation) {
  LeastLoadedPolicy policy;
  map().AddPopulation(0, 5);
  map().AddPopulation(1, 3);
  // All others are 0; lowest id wins ties.
  auto pick = policy.PickPartition(map(), PlacementRequest{});
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 2u);
  map().AddPopulation(2, 9);
  map().AddPopulation(3, 9);
  map().AddPopulation(4, 9);
  map().AddPopulation(5, 1);
  pick = policy.PickPartition(map(), PlacementRequest{});
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 5u);
}

TEST_F(PlacementTest, RoundRobinCyclesThroughAllPartitions) {
  RoundRobinPolicy policy;
  std::map<uint32_t, int> seen;
  size_t n = map().partition_count();
  for (size_t i = 0; i < 2 * n; ++i) {
    auto pick = policy.PickPartition(map(), PlacementRequest{});
    ASSERT_TRUE(pick.ok());
    ++seen[*pick];
  }
  EXPECT_EQ(seen.size(), n);
  for (const auto& [p, count] : seen) EXPECT_EQ(count, 2) << "partition " << p;
}

TEST_F(PlacementTest, HashPolicyMatchesRingAndIsDeterministic) {
  HashPolicy policy;
  Identity id{IdentityType::kImsi, "214070000000042"};
  PlacementRequest req;
  req.identity = &id;
  auto a = policy.PickPartition(map(), req);
  auto b = policy.PickPartition(map(), req);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, map().PartitionOfIdentity(id));
  // No identity: InvalidArgument.
  EXPECT_TRUE(policy.PickPartition(map(), PlacementRequest{})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(PlacementTest, SelectivePinsHomeSiteElseFallsBack) {
  auto policy = MakePlacementPolicy(PlacementKind::kLeastLoaded);
  PlacementRequest req;
  req.home_site = 2;
  auto pick = policy->PickPartition(map(), req);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(map().master_site(*pick), 2u);
  // A site with no master copies falls back to global least-loaded.
  req.home_site = 77;
  pick = policy->PickPartition(map(), req);
  ASSERT_TRUE(pick.ok());
}

TEST_F(PlacementTest, HashPlacementCannotHonorAHomeSite) {
  // Consistent hashing cannot honor selective placement (§3.5): the hash
  // deployment is not wrapped in SelectivePolicy, so a requested home site
  // never moves a subscriber off its ring owner.
  auto policy = MakePlacementPolicy(PlacementKind::kHash);
  int placed_away_from_home = 0;
  for (int i = 0; i < 30; ++i) {
    Identity id{IdentityType::kImsi, "21407000000" + std::to_string(1000 + i)};
    PlacementRequest req;
    req.identity = &id;
    req.home_site = static_cast<sim::SiteId>(i % 3);
    auto pick = policy->PickPartition(map(), req);
    ASSERT_TRUE(pick.ok());
    EXPECT_EQ(*pick, map().PartitionOfIdentity(id));
    if (map().master_site(*pick) != req.home_site) ++placed_away_from_home;
  }
  EXPECT_GT(placed_away_from_home, 0);
}

TEST(PlacementEmptyMapTest, EmptyMapIsFailedPrecondition) {
  sim::SimClock clock;
  sim::Network network(sim::Topology(2, sim::LatencyConfig()), &clock);
  PartitionMap map(PartitionMapConfig(), &network);
  LeastLoadedPolicy policy;
  EXPECT_TRUE(policy.PickPartition(map, PlacementRequest{})
                  .status()
                  .IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Primary-copy migration (ReplicaSet::MigratePrimaryTo via the map)
// ---------------------------------------------------------------------------

TEST(MigrationTest, FreshTargetReceivesFullPartitionState) {
  workload::TestbedOptions o;
  o.sites = 4;
  o.subscribers = 60;
  workload::Testbed bed(o);  // 4 clusters over sites 0..3.
  auto& udr = bed.udr();
  auto& map = udr.partition_map();

  // Pick a populated partition and a storage element that hosts no copy of
  // it (guaranteed to exist: replication factor 3 < 8 SEs).
  replication::ReplicaSet* rs = map.partition(0);
  storage::StorageElement* target = nullptr;
  for (size_t i = 0; i < map.se_count(); ++i) {
    storage::StorageElement* se = map.se_info(i).se;
    bool member = false;
    for (uint32_t r = 0; r < rs->replica_count(); ++r) {
      if (rs->replica_se(r) == se) member = true;
    }
    if (!member) target = se;
  }
  ASSERT_NE(target, nullptr);

  int64_t log_size = static_cast<int64_t>(rs->log().size());
  ASSERT_GT(log_size, 0);
  auto report = rs->MigratePrimaryTo(target);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->promoted_existing);
  EXPECT_EQ(report->entries_replayed, log_size);
  EXPECT_GT(report->bytes_moved, 0);
  EXPECT_GT(report->duration, 0);
  EXPECT_EQ(rs->replica_se(rs->master_id()), target);
  EXPECT_EQ(rs->master_site(), target->site());
}

TEST(MigrationTest, ExistingSecondaryIsPromotedInPlace) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 30;
  workload::Testbed bed(o);
  auto& map = bed.udr().partition_map();
  replication::ReplicaSet* rs = map.partition(0);
  ASSERT_EQ(rs->replica_count(), 3u);
  uint32_t old_master = rs->master_id();
  uint32_t secondary = old_master == 0 ? 1 : 0;
  storage::StorageElement* target = rs->replica_se(secondary);

  auto report = rs->MigratePrimaryTo(target);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->promoted_existing);
  EXPECT_EQ(rs->master_id(), secondary);
  EXPECT_EQ(rs->replica_count(), 3u);  // Membership unchanged.
  // The demoted primary still hosts a fully caught-up secondary copy.
  EXPECT_EQ(rs->applied_seq(old_master), rs->log().LastSeq());
  EXPECT_GT(rs->replica_store(old_master).Count(), 0);
}

TEST(MigrationTest, MigrateToCurrentMasterIsANoOp) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 10;
  workload::Testbed bed(o);
  replication::ReplicaSet* rs = bed.udr().partition(0);
  auto report = rs->MigratePrimaryTo(rs->replica_se(rs->master_id()));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_replayed, 0);
  EXPECT_EQ(report->bytes_moved, 0);
}

// ---------------------------------------------------------------------------
// Scale-out then rebalance: the acceptance scenario
// ---------------------------------------------------------------------------

TEST(RebalanceTest, ScaleOutRebalanceBalancesPrimariesWithoutLosingWrites) {
  workload::TestbedOptions o;
  o.sites = 4;
  o.udr.partitions_per_se = 2;  // Finer migration units: 12 partitions, 6 SEs.
  // Build a 4-site topology but deploy clusters on sites 0..2 only, so site
  // 3 is the scale-out target.
  sim::LatencyConfig lc;
  sim::SimClock clock;
  sim::Network network(sim::Topology(4, lc), &clock);
  udrnf::UdrNf udr(o.udr, &network);
  for (uint32_t s = 0; s < 3; ++s) ASSERT_TRUE(udr.AddCluster(s).ok());
  udr.CommissionPartitions();
  ASSERT_EQ(udr.partition_count(), 12u);

  // Provision a population and capture every acknowledged write.
  clock.AdvanceTo(Seconds(1));
  telecom::SubscriberFactory factory(7);
  std::vector<Identity> acknowledged;
  for (int i = 0; i < 200; ++i) {
    auto spec = factory.MakeSpec(static_cast<uint64_t>(i), std::nullopt);
    auto outcome = udr.CreateSubscriber(spec, 0);
    ASSERT_TRUE(outcome.ok()) << i << ": " << outcome.status();
    acknowledged.push_back(spec.identities.front());
  }
  // A few post-provisioning modifies so the logs have non-create entries.
  for (int i = 0; i < 20; ++i) {
    ldap::LdapRequest mod;
    mod.op = ldap::LdapOp::kModify;
    mod.dn = ldap::SubscriberDn("imsi", factory.ImsiOf(static_cast<uint64_t>(i)));
    mod.mods.push_back(
        {ldap::ModType::kReplace, "cfu-number", std::string("+4912345")});
    ASSERT_EQ(udr.Submit(mod, 0).code, ldap::LdapResultCode::kSuccess);
  }

  // Scale out to site 3: two fresh SEs with zero primaries.
  clock.Advance(Seconds(30));
  ASSERT_TRUE(udr.AddCluster(3).ok());
  int spread_before = udr.partition_map().PrimarySpread();
  ASSERT_GT(spread_before, 1);  // 2 primaries on old SEs, 0 on new ones.

  auto report = udr.Rebalance();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->spread_before, spread_before);
  EXPECT_LE(report->spread_after, 1);
  EXPECT_LE(udr.partition_map().PrimarySpread(), 1);
  EXPECT_FALSE(report->moves.empty());
  EXPECT_GT(report->entries_replayed, 0);
  EXPECT_GT(report->bytes_moved, 0);

  // The new SEs now hold primary copies.
  std::vector<int> primaries = udr.partition_map().PrimariesPerSe();
  ASSERT_EQ(primaries.size(), 8u);
  EXPECT_GE(primaries[6], 1);
  EXPECT_GE(primaries[7], 1);

  // Zero acknowledged-write loss: every subscriber resolves and its profile
  // (including post-create modifies) reads back through the master copy.
  for (size_t i = 0; i < acknowledged.size(); ++i) {
    auto loc = udr.AuthoritativeLookup(acknowledged[i]);
    ASSERT_TRUE(loc.ok()) << acknowledged[i].ToString();
    auto* rs = udr.partition(loc->partition);
    auto record = rs->ReadRecord(0, loc->key,
                                 replication::ReadPreference::kMasterOnly,
                                 nullptr);
    ASSERT_TRUE(record.ok())
        << "acknowledged write lost for " << acknowledged[i].ToString();
    if (i < 20) {
      ASSERT_TRUE(record->Has("cfu-number")) << i;
      EXPECT_EQ(storage::ValueToString(*record->Get("cfu-number")), "+4912345");
    }
  }

  // Location entries survived the migration (partition ids are stable), so
  // resolution at the pre-existing PoAs still routes every identity.
  for (const Identity& id : acknowledged) {
    auto resolved = udr.Locate(id, 0);
    ASSERT_TRUE(resolved.status.ok());
    auto route = udr.router().Route(id, 1);
    ASSERT_TRUE(route.status.ok());
    EXPECT_NE(route.rs, nullptr);
  }

  // A second pass is a no-op: already balanced.
  auto again = udr.Rebalance();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->moves.empty());

  // A later lazy Commission() (any create triggers it) must not re-create
  // partitions on the SEs the rebalance drained — that would churn the ring
  // and undo the balance. It may only top up the new SEs to their quota:
  // the 2 new SEs each received 1 of their 2-partition quota, so exactly 2
  // fresh partitions appear, both primary-hosted on the new SEs.
  auto extra = factory.MakeSpec(500, std::nullopt);
  ASSERT_TRUE(udr.CreateSubscriber(extra, 0).ok());
  EXPECT_EQ(udr.partition_count(), 14u);
  EXPECT_LE(udr.partition_map().PrimarySpread(), 1);
  std::vector<int> after_create = udr.partition_map().PrimariesPerSe();
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_LE(after_create[i], 2) << "drained SE " << i << " re-commissioned";
  }
}

// ---------------------------------------------------------------------------
// Population-weighted rebalancing
// ---------------------------------------------------------------------------

/// Deploys 3 sites (12 partitions over 6 SEs) and pins every subscriber to
/// site 0, so the two site-0 SEs primary-host the whole population while the
/// per-SE primary *count* stays perfectly balanced.
workload::Testbed SkewedPopulationBed(RebalanceWeight weight) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.udr.partitions_per_se = 2;
  o.udr.rebalance_weight = weight;
  workload::Testbed bed(o);
  for (uint64_t i = 0; i < 200; ++i) {
    auto spec = bed.factory().MakeSpec(i, sim::SiteId{0});
    EXPECT_TRUE(bed.udr().CreateSubscriber(spec, 0).ok()) << i;
  }
  return bed;
}

TEST(RebalanceTest, CountWeightedRebalanceIgnoresPopulationSkew) {
  workload::Testbed bed = SkewedPopulationBed(RebalanceWeight::kPrimaryCount);
  auto& map = bed.udr().partition_map();
  ASSERT_EQ(map.PrimarySpread(), 0);       // Counts are already balanced...
  ASSERT_GT(map.PopulationSpread(), 0);    // ... but the population is not.
  auto report = bed.udr().Rebalance();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->moves.empty());      // Count mode sees nothing to do.
}

TEST(RebalanceTest, PopulationWeightedRebalanceSpreadsSubscribers) {
  workload::Testbed bed = SkewedPopulationBed(RebalanceWeight::kPopulation);
  auto& udr = bed.udr();
  auto& map = udr.partition_map();
  int64_t skew_before = map.PopulationSpread();
  ASSERT_GT(skew_before, 0);

  auto report = udr.Rebalance();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->moves.empty());
  EXPECT_EQ(report->population_spread_before, skew_before);
  EXPECT_LT(report->population_spread_after, skew_before);
  EXPECT_EQ(map.PopulationSpread(), report->population_spread_after);
  // With 4 equally filled partitions on the hot SEs the greedy pass halves
  // the spread at worst.
  EXPECT_LE(report->population_spread_after, skew_before / 2);

  // No acknowledged write lost: every subscriber still resolves and reads.
  for (uint64_t i = 0; i < 200; ++i) {
    location::Identity id = bed.factory().Make(i).ImsiId();
    auto loc = udr.AuthoritativeLookup(id);
    ASSERT_TRUE(loc.ok()) << id.ToString();
    auto record =
        udr.partition(loc->partition)
            ->ReadRecord(0, loc->key, replication::ReadPreference::kMasterOnly);
    ASSERT_TRUE(record.ok()) << id.ToString();
  }

  // A second pass finds no improving move: the greedy rebalance converged.
  auto again = udr.Rebalance();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->moves.empty());
}

TEST(RebalanceTest, TestbedScaleOutHelper) {
  workload::TestbedOptions o;
  o.sites = 4;
  o.udr.partitions_per_se = 2;
  o.subscribers = 50;
  workload::Testbed bed(o);  // Clusters on all 4 sites already.
  // Add a fifth cluster at site 0 and rebalance onto it.
  auto report = bed.ScaleOut(0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LE(bed.udr().partition_map().PrimarySpread(), 1);
  EXPECT_EQ(bed.udr().SubscriberCount(), 50);
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(RouterTest, RoutesIdentityToOwningReplicaSet) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 10;
  workload::Testbed bed(o);
  auto& udr = bed.udr();
  Identity id = bed.factory().Make(3).ImsiId();
  auto loc = udr.AuthoritativeLookup(id);
  ASSERT_TRUE(loc.ok());
  auto route = udr.router().Route(id, 0);
  ASSERT_TRUE(route.status.ok());
  EXPECT_EQ(route.partition, loc->partition);
  EXPECT_EQ(route.key, loc->key);
  EXPECT_EQ(route.rs, udr.partition(loc->partition));
  EXPECT_GT(route.resolve_cost, 0);
}

TEST(RouterTest, UnknownIdentityFailsToRoute) {
  workload::TestbedOptions o;
  o.sites = 3;
  workload::Testbed bed(o);
  auto route =
      bed.udr().router().Route(Identity{IdentityType::kImsi, "000"}, 0);
  EXPECT_TRUE(route.status.IsNotFound());
  EXPECT_EQ(route.rs, nullptr);
}

TEST(RouterTest, NoPoaAtSiteIsUnavailable) {
  workload::TestbedOptions o;
  o.sites = 3;
  workload::Testbed bed(o);
  auto resolved =
      bed.udr().router().ResolveAt(Identity{IdentityType::kImsi, "1"}, 9);
  EXPECT_TRUE(resolved.status.IsUnavailable());
}

TEST(RouterTest, FindPoaPrefersNearestReachable) {
  workload::TestbedOptions o;
  o.sites = 3;
  workload::Testbed bed(o);
  auto poa = bed.udr().router().FindPoaCluster(1);
  ASSERT_TRUE(poa.ok());
  EXPECT_EQ(bed.udr().cluster(*poa)->site(), 1u);  // Co-located PoA wins.
  // Cut site 1 off from everything: no PoA reachable... except its own LAN.
  bed.network().partitions().IsolateSite(1, 3, bed.clock().Now(),
                                         bed.clock().Now() + Seconds(60));
  poa = bed.udr().router().FindPoaCluster(1);
  ASSERT_TRUE(poa.ok());  // Same-site PoA is never partitioned away.
  EXPECT_EQ(bed.udr().cluster(*poa)->site(), 1u);
}

}  // namespace
}  // namespace udr::routing
