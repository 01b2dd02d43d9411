// Background migration subsystem: planner determinism/idempotency, the
// throttled copy -> catch-up -> cutover state machine, zero acknowledged-
// write loss under concurrent traffic, destination-failure abort semantics,
// the re-home bypass-exception lifecycle, and the traffic-driver coupling.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "ldap/dn.h"
#include "migration/planner.h"
#include "migration/scheduler.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"
#include "workload/traffic.h"

using namespace udr;
using location::Identity;

namespace {

/// UDR config with a bandwidth-throttled migration scheduler.
udrnf::UdrConfig ThrottledConfig(int64_t bps, int64_t chunk) {
  udrnf::UdrConfig c;
  c.partitions_per_se = 2;
  c.migration_bandwidth_bps = bps;
  c.migration_chunk_bytes = chunk;
  return c;
}

/// Provisions `n` subscribers (plus a few modifies so logs carry non-create
/// entries) into a UDR whose PoA serves site 0.
void Provision(udrnf::UdrNf& udr, telecom::SubscriberFactory& factory, int n) {
  for (int i = 0; i < n; ++i) {
    auto spec = factory.MakeSpec(static_cast<uint64_t>(i), std::nullopt);
    ASSERT_TRUE(udr.CreateSubscriber(spec, 0).ok()) << i;
  }
  for (int i = 0; i < n / 5; ++i) {
    ldap::LdapRequest mod;
    mod.op = ldap::LdapOp::kModify;
    mod.dn = ldap::SubscriberDn("imsi", factory.ImsiOf(static_cast<uint64_t>(i)));
    mod.mods.push_back(
        {ldap::ModType::kReplace, "cfu-number", std::string("+4900000")});
    ASSERT_EQ(udr.Submit(mod, 0).code, ldap::LdapResultCode::kSuccess);
  }
}

/// Drives the scheduler to completion by advancing the clock to each chunk
/// deadline; returns the number of pump iterations.
int DrainByDeadlines(udrnf::UdrNf& udr, sim::SimClock& clock,
                     int max_iters = 200000) {
  int iters = 0;
  while (udr.MigrationActive() && iters < max_iters) {
    MicroTime at = udr.migration_scheduler().NextDeadline();
    EXPECT_NE(at, kTimeInfinity);
    if (at == kTimeInfinity) break;
    clock.AdvanceTo(std::max(at, clock.Now()));
    udr.migration_scheduler().Pump();
    ++iters;
  }
  return iters;
}

/// Master-only read-back of one provisioned identity's record.
StatusOr<storage::Record> MasterRead(udrnf::UdrNf& udr, const Identity& id) {
  auto loc = udr.AuthoritativeLookup(id);
  if (!loc.ok()) return loc.status();
  return udr.partition(loc->partition)
      ->ReadRecord(0, loc->key, replication::ReadPreference::kMasterOnly);
}

// ---------------------------------------------------------------------------
// Throttled pacing mechanics
// ---------------------------------------------------------------------------

TEST(BackgroundMigrationTest, ThrottledMoveIsPacedByTheBandwidthModel) {
  const int64_t kBps = 1 << 20;  // 1 MiB/s.
  sim::SimClock clock;
  sim::Network network(sim::Topology(4), &clock);
  udrnf::UdrNf udr(ThrottledConfig(kBps, 1024), &network);
  for (uint32_t s = 0; s < 3; ++s) ASSERT_TRUE(udr.AddCluster(s).ok());
  udr.CommissionPartitions();
  clock.AdvanceTo(Seconds(1));
  telecom::SubscriberFactory factory(7);
  Provision(udr, factory, 200);

  clock.Advance(Seconds(5));
  ASSERT_TRUE(udr.AddCluster(3).ok());
  ASSERT_GT(udr.partition_map().PrimarySpread(), 1);

  auto progress = udr.StartMigration();
  ASSERT_GT(progress.tasks_pending, 0);
  ASSERT_GT(progress.bytes_estimated, 0);
  EXPECT_TRUE(udr.MigrationActive());

  // A pump at a frozen clock moves at most one burst, never the whole plan.
  udr.migration_scheduler().Pump();
  EXPECT_TRUE(udr.MigrationActive());
  EXPECT_LT(udr.MigrationStatus().bytes_moved, progress.bytes_estimated);

  const MicroTime start = clock.Now();
  DrainByDeadlines(udr, clock);
  ASSERT_FALSE(udr.MigrationActive());

  auto done = udr.MigrationStatus();
  EXPECT_EQ(done.tasks_failed, 0);
  EXPECT_EQ(done.tasks_done, progress.tasks_total);
  EXPECT_LE(udr.partition_map().PrimarySpread(), 1);

  // Total bytes match the planner's estimate (no concurrent writes here).
  EXPECT_NEAR(static_cast<double>(done.bytes_moved),
              static_cast<double>(done.bytes_estimated),
              0.05 * static_cast<double>(done.bytes_estimated) + 1.0);

  // Pacing: moving B bytes at kBps takes ~B/kBps of sim time.
  const double expected_us =
      static_cast<double>(done.bytes_moved) * 1e6 / static_cast<double>(kBps);
  const double took_us = static_cast<double>(clock.Now() - start);
  EXPECT_GT(took_us, 0.5 * expected_us);
  EXPECT_LT(took_us, 2.0 * expected_us + Millis(10));
}

// ---------------------------------------------------------------------------
// Zero acknowledged-write loss under concurrent traffic (property test)
// ---------------------------------------------------------------------------

TEST(BackgroundMigrationTest, AckedWritesDuringCopyAndCatchUpSurviveCutover) {
  sim::SimClock clock;
  sim::Network network(sim::Topology(4), &clock);
  udrnf::UdrNf udr(ThrottledConfig(256 * 1024, 512), &network);
  for (uint32_t s = 0; s < 3; ++s) ASSERT_TRUE(udr.AddCluster(s).ok());
  udr.CommissionPartitions();
  clock.AdvanceTo(Seconds(1));
  telecom::SubscriberFactory factory(11);
  Provision(udr, factory, 160);

  clock.Advance(Seconds(5));
  ASSERT_TRUE(udr.AddCluster(3).ok());
  auto progress = udr.StartMigration();
  ASSERT_GT(progress.tasks_pending, 0);

  // Interleave acknowledged writes with every pacing step: modifies against
  // existing subscribers (some of whose partitions are mid-copy) and fresh
  // activations. Track the last acknowledged value per identity.
  std::unordered_map<uint64_t, std::string> acked_cfu;
  std::vector<Identity> created;
  int step = 0;
  while (udr.MigrationActive() && step < 100000) {
    MicroTime at = udr.migration_scheduler().NextDeadline();
    ASSERT_NE(at, kTimeInfinity);
    clock.AdvanceTo(std::max(at, clock.Now()));
    udr.migration_scheduler().Pump();

    uint64_t index = static_cast<uint64_t>(step % 160);
    std::string value = "+49" + std::to_string(step);
    ldap::LdapRequest mod;
    mod.op = ldap::LdapOp::kModify;
    mod.dn = ldap::SubscriberDn("imsi", factory.ImsiOf(index));
    mod.mods.push_back({ldap::ModType::kReplace, "cfu-number", value});
    if (udr.Submit(mod, 0).code == ldap::LdapResultCode::kSuccess) {
      acked_cfu[index] = value;  // Acknowledged: must survive the cutover.
    }
    if (step % 7 == 0) {
      auto spec = factory.MakeSpec(10000 + static_cast<uint64_t>(step),
                                   std::nullopt);
      if (udr.CreateSubscriber(spec, 0).ok()) {
        created.push_back(spec.identities.front());
      }
    }
    ++step;
  }
  ASSERT_FALSE(udr.MigrationActive());
  ASSERT_FALSE(acked_cfu.empty());
  auto done = udr.MigrationStatus();
  EXPECT_EQ(done.tasks_failed, 0);

  // Every acknowledged write is readable after cutover, at its final value.
  for (const auto& [index, value] : acked_cfu) {
    auto record = MasterRead(udr, factory.Make(index).ImsiId());
    ASSERT_TRUE(record.ok()) << "acked write lost for subscriber " << index;
    ASSERT_TRUE(record->Has("cfu-number")) << index;
    EXPECT_EQ(storage::ValueToString(*record->Get("cfu-number")), value);
  }
  for (const Identity& id : created) {
    EXPECT_TRUE(MasterRead(udr, id).ok()) << id.ToString();
  }
}

// ---------------------------------------------------------------------------
// Destination failure mid-copy: abort, no map flip
// ---------------------------------------------------------------------------

TEST(BackgroundMigrationTest, KilledDestinationLeavesSourceAuthoritative) {
  sim::SimClock clock;
  sim::Network network(sim::Topology(4), &clock);
  udrnf::UdrNf udr(ThrottledConfig(128 * 1024, 512), &network);
  for (uint32_t s = 0; s < 3; ++s) ASSERT_TRUE(udr.AddCluster(s).ok());
  udr.CommissionPartitions();
  clock.AdvanceTo(Seconds(1));
  telecom::SubscriberFactory factory(23);
  Provision(udr, factory, 160);

  clock.Advance(Seconds(5));
  ASSERT_TRUE(udr.AddCluster(3).ok());
  const size_t se_count = udr.partition_map().se_count();
  std::vector<const storage::StorageElement*> masters_before;
  for (uint32_t p = 0; p < udr.partition_count(); ++p) {
    masters_before.push_back(udr.partition_map().primary_se(p));
  }

  auto progress = udr.StartMigration();
  ASSERT_GT(progress.tasks_pending, 0);

  // Two pacing steps: the first copy is in flight but nowhere near done.
  for (int i = 0; i < 2; ++i) {
    migration::MigrationScheduler& sched = udr.migration_scheduler();
    clock.AdvanceTo(std::max(sched.NextDeadline(), clock.Now()));
    sched.Pump();
  }
  auto mid = udr.MigrationStatus();
  ASSERT_GT(mid.bytes_moved, 0);
  ASSERT_EQ(mid.tasks_done, 0) << "copy finished too fast for this test";

  // Kill the destination: site 3 drops off the backbone for good.
  network.partitions().CutBetween({0, 1, 2}, {3}, clock.Now(),
                                  clock.Now() + Seconds(3600));
  for (int i = 0; i < 64 && udr.MigrationActive(); ++i) {
    migration::MigrationScheduler& sched = udr.migration_scheduler();
    clock.AdvanceTo(std::max(sched.NextDeadline(), clock.Now()));
    sched.Pump();
  }
  ASSERT_FALSE(udr.MigrationActive());

  auto done = udr.MigrationStatus();
  EXPECT_EQ(done.tasks_done, 0);
  EXPECT_EQ(done.tasks_failed, progress.tasks_total);

  // No map flip: every partition's primary copy is exactly where it was.
  for (uint32_t p = 0; p < udr.partition_count(); ++p) {
    EXPECT_EQ(udr.partition_map().primary_se(p), masters_before[p]) << p;
  }
  // The aborted copies were discarded: the dead cluster's SEs hold nothing.
  for (size_t i = 6; i < se_count; ++i) {
    EXPECT_EQ(udr.partition_map().se_info(i).se->store().Count(), 0) << i;
  }
  // The source still serves every acknowledged write.
  for (uint64_t i = 0; i < 160; ++i) {
    EXPECT_TRUE(MasterRead(udr, factory.Make(i).ImsiId()).ok()) << i;
  }
}

// ---------------------------------------------------------------------------
// Idempotent planning (satellite: stable move count across repeated calls)
// ---------------------------------------------------------------------------

TEST(BackgroundMigrationTest, RepeatedPlanningIsIdempotent) {
  sim::SimClock clock;
  sim::Network network(sim::Topology(4), &clock);
  udrnf::UdrNf udr(ThrottledConfig(1 << 20, 1024), &network);
  for (uint32_t s = 0; s < 3; ++s) ASSERT_TRUE(udr.AddCluster(s).ok());
  udr.CommissionPartitions();
  clock.AdvanceTo(Seconds(1));
  telecom::SubscriberFactory factory(31);
  Provision(udr, factory, 120);

  clock.Advance(Seconds(5));
  ASSERT_TRUE(udr.AddCluster(3).ok());

  // Planning is pure: two plans over the same state are identical.
  auto plan_a = migration::MigrationPlanner::PlanRebalance(udr.partition_map());
  auto plan_b = migration::MigrationPlanner::PlanRebalance(udr.partition_map());
  ASSERT_EQ(plan_a.tasks.size(), plan_b.tasks.size());
  for (size_t i = 0; i < plan_a.tasks.size(); ++i) {
    EXPECT_EQ(plan_a.tasks[i].partition, plan_b.tasks[i].partition);
    EXPECT_EQ(plan_a.tasks[i].to_se, plan_b.tasks[i].to_se);
  }

  // Starting twice does not duplicate in-flight tasks.
  auto p1 = udr.StartMigration();
  auto p2 = udr.StartMigration();
  EXPECT_EQ(p1.tasks_total, p2.tasks_total);
  EXPECT_EQ(p1.tasks_total, static_cast<int64_t>(plan_a.tasks.size()));

  // Rebalance() over the in-flight plan drains it — the move count equals
  // the one plan, not a re-planned superset.
  auto report = udr.Rebalance();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(static_cast<int64_t>(report->moves.size()), p1.tasks_total);
  EXPECT_LE(udr.partition_map().PrimarySpread(), 1);

  // And a second pass over the balanced map is a stable no-op.
  auto again = udr.Rebalance();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->moves.empty());
  EXPECT_TRUE(udr.partition_map().PlanRebalance().empty());
}

// ---------------------------------------------------------------------------
// Re-home bypass-exception lifecycle (satellite: cleared on cutover)
// ---------------------------------------------------------------------------

TEST(BackgroundMigrationTest, RehomeExceptionsAreClearedOnCutover) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 0;
  o.udr.placement = routing::PlacementKind::kHash;
  o.udr.partitions_per_se = 1;
  o.udr.migration_bandwidth_bps = 64 * 1024;
  o.udr.migration_chunk_bytes = 512;
  workload::Testbed bed(o);
  auto& udr = bed.udr();
  for (int64_t i = 0; i < 120; ++i) {
    auto spec = bed.factory().MakeSpec(static_cast<uint64_t>(i), std::nullopt);
    ASSERT_TRUE(udr.CreateSubscriber(spec, 0).ok()) << i;
  }
  const size_t partitions_before = udr.partition_count();

  // Scale out: the ring grows, ~K/N subscribers now hash to new partitions.
  bed.clock().Advance(Seconds(2));
  ASSERT_TRUE(udr.AddCluster(0).ok());
  udr.CommissionPartitions();
  ASSERT_GT(udr.partition_count(), partitions_before);

  // Throttled: the re-homes are parked as background tasks, and every moving
  // identity carries a bypass exception for its migration window.
  ASSERT_TRUE(udr.MigrationActive());
  const size_t exceptions_during = udr.router().bypass_exception_count();
  ASSERT_GT(exceptions_during, 0u);

  // Mid-window reads resolve via the location stage — correct, just slow.
  ldap::LdapRequest read;
  read.op = ldap::LdapOp::kSearch;
  read.dn = ldap::SubscriberDn("imsi", bed.factory().ImsiOf(0));
  EXPECT_EQ(udr.Submit(read, 0).code, ldap::LdapResultCode::kSuccess);

  DrainByDeadlines(udr, bed.clock());
  ASSERT_FALSE(udr.MigrationActive());
  auto done = udr.MigrationStatus();
  EXPECT_EQ(done.tasks_failed, 0);

  // Cutover cleared every exception — none wait for the next re-home pass.
  EXPECT_EQ(udr.router().bypass_exception_count(), 0u);

  // And every subscriber still reads back correctly (bypass or not).
  for (uint64_t i = 0; i < 120; ++i) {
    ldap::LdapRequest r;
    r.op = ldap::LdapOp::kSearch;
    r.dn = ldap::SubscriberDn("imsi", bed.factory().ImsiOf(i));
    EXPECT_EQ(udr.Submit(r, 0).code, ldap::LdapResultCode::kSuccess) << i;
  }
}

// ---------------------------------------------------------------------------
// Decommissioning: drain one SE's primaries through the same scheduler
// ---------------------------------------------------------------------------

TEST(BackgroundMigrationTest, DecommissionPlanDrainsOneStorageElement) {
  sim::SimClock clock;
  sim::Network network(sim::Topology(3), &clock);
  udrnf::UdrNf udr(ThrottledConfig(1 << 20, 1024), &network);
  for (uint32_t s = 0; s < 3; ++s) ASSERT_TRUE(udr.AddCluster(s).ok());
  udr.CommissionPartitions();
  clock.AdvanceTo(Seconds(1));
  telecom::SubscriberFactory factory(53);
  Provision(udr, factory, 120);
  clock.Advance(Seconds(2));

  auto& map = udr.partition_map();
  const int victim = 0;
  ASSERT_GT(map.PrimariesPerSe()[victim], 0);

  auto plan = migration::MigrationPlanner::PlanDecommission(map, victim);
  ASSERT_EQ(static_cast<int>(plan.tasks.size()), map.PrimariesPerSe()[victim]);
  udr.migration_scheduler().EnqueuePlan(plan);
  DrainByDeadlines(udr, clock);

  auto done = udr.MigrationStatus();
  EXPECT_EQ(done.tasks_failed, 0);
  EXPECT_EQ(map.PrimariesPerSe()[victim], 0);  // Fully drained.
  // The drained load spread instead of piling onto one receiver.
  std::vector<int> counts = map.PrimariesPerSe();
  auto [mn, mx] = std::minmax_element(counts.begin() + 1, counts.end());
  EXPECT_LE(*mx - *mn, 1);
  // Zero loss, as ever.
  for (uint64_t i = 0; i < 120; ++i) {
    EXPECT_TRUE(MasterRead(udr, factory.Make(i).ImsiId()).ok()) << i;
  }
}

// ---------------------------------------------------------------------------
// Priority knob: foreground load displaces migration budget
// ---------------------------------------------------------------------------

TEST(BackgroundMigrationTest, ForegroundLoadDisplacesMigrationBudget) {
  sim::SimClock clock;
  sim::Network network(sim::Topology(4), &clock);
  udrnf::UdrConfig cfg = ThrottledConfig(256 * 1024, 1024);
  cfg.migration_foreground_cost_bytes = 4096;
  udrnf::UdrNf udr(cfg, &network);
  for (uint32_t s = 0; s < 3; ++s) ASSERT_TRUE(udr.AddCluster(s).ok());
  udr.CommissionPartitions();
  clock.AdvanceTo(Seconds(1));
  telecom::SubscriberFactory factory(43);
  Provision(udr, factory, 120);

  clock.Advance(Seconds(5));
  ASSERT_TRUE(udr.AddCluster(3).ok());
  udr.StartMigration();
  migration::MigrationScheduler& sched = udr.migration_scheduler();
  sched.Pump();  // Spend the initial burst; deadlines now track tokens.
  ASSERT_TRUE(udr.MigrationActive());

  MicroTime before = sched.NextDeadline();
  sched.OnForegroundOps(32);
  MicroTime after = sched.NextDeadline();
  EXPECT_GT(after, before) << "foreground ops did not displace budget";
}

// ---------------------------------------------------------------------------
// Traffic driver coupling: procedures run concurrently with a migration
// ---------------------------------------------------------------------------

TEST(BackgroundMigrationTest, TrafficRunsConcurrentlyWithMigration) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 300;
  o.udr.partitions_per_se = 2;
  o.udr.migration_bandwidth_bps = 256 * 1024;
  o.udr.migration_chunk_bytes = 4096;
  workload::Testbed bed(o);
  bed.clock().Advance(Seconds(2));
  ASSERT_TRUE(bed.udr().AddCluster(0).ok());
  auto progress = bed.udr().StartMigration();
  ASSERT_GT(progress.tasks_pending, 0);

  workload::TrafficOptions t;
  t.duration = Seconds(20);
  t.subscriber_count = 300;
  workload::TrafficReport report = workload::RunTraffic(bed, t);

  // The move completed inside the run, foreground traffic flowed throughout,
  // and some procedures overlapped the migration window.
  EXPECT_FALSE(bed.udr().MigrationActive());
  EXPECT_EQ(bed.udr().MigrationStatus().tasks_failed, 0);
  EXPECT_GT(report.fe_during_migration.attempted, 0);
  EXPECT_GT(report.FeAll().availability(), 0.99);
  EXPECT_LE(bed.udr().partition_map().PrimarySpread(), 1);
}

}  // namespace
