// Tests for src/workload: testbed construction and the traffic-mix runner,
// including the paper's partition-availability asymmetry (FE vs PS).

#include <gtest/gtest.h>

#include "workload/testbed.h"
#include "workload/traffic.h"

namespace udr::workload {
namespace {

TEST(TestbedTest, BuildsRequestedDeployment) {
  TestbedOptions o;
  o.sites = 4;
  o.udr.se_per_cluster = 3;
  Testbed bed(o);
  EXPECT_EQ(bed.udr().cluster_count(), 4u);
  EXPECT_EQ(bed.udr().TotalStorageElements(), 12);
  EXPECT_EQ(bed.udr().partition_count(), 12u);
}

TEST(TestbedTest, PreProvisionsPopulation) {
  TestbedOptions o;
  o.sites = 2;
  o.subscribers = 100;
  Testbed bed(o);
  EXPECT_EQ(bed.udr().SubscriberCount(), 100);
  EXPECT_TRUE(bed.udr()
                  .AuthoritativeLookup(bed.factory().Make(50).ImsiId())
                  .ok());
}

TEST(TestbedTest, PinningPlacesSubscribersAtHomeSites) {
  TestbedOptions o;
  o.sites = 3;
  o.subscribers = 30;
  o.pin_home_sites = true;
  Testbed bed(o);
  for (uint64_t i = 0; i < 30; ++i) {
    auto loc = bed.udr().AuthoritativeLookup(bed.factory().Make(i).ImsiId());
    ASSERT_TRUE(loc.ok());
    EXPECT_EQ(bed.udr().partition(loc->partition)->master_site(),
              bed.HomeSiteOf(i))
        << "subscriber " << i;
  }
}

TEST(TestbedTest, DeterministicAcrossInstances) {
  TestbedOptions o;
  o.sites = 2;
  o.subscribers = 10;
  Testbed a(o), b(o);
  EXPECT_EQ(a.factory().Make(3).imsi, b.factory().Make(3).imsi);
  auto la = a.udr().AuthoritativeLookup(a.factory().Make(3).ImsiId());
  auto lb = b.udr().AuthoritativeLookup(b.factory().Make(3).ImsiId());
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  EXPECT_EQ(la->partition, lb->partition);
}

TEST(TrafficTest, HealthyNetworkGivesFullAvailability) {
  TestbedOptions o;
  o.sites = 3;
  o.subscribers = 200;
  o.pin_home_sites = true;
  Testbed bed(o);
  TrafficOptions t;
  t.duration = Seconds(20);
  t.fe_rate_per_sec = 100;
  t.ps_rate_per_sec = 5;
  t.subscriber_count = 200;
  TrafficReport rep = RunTraffic(bed, t);
  EXPECT_GT(rep.fe_read.attempted, 1000);
  EXPECT_GT(rep.ps.attempted, 50);
  EXPECT_DOUBLE_EQ(rep.fe_read.availability(), 1.0);
  EXPECT_DOUBLE_EQ(rep.fe_write.availability(), 1.0);
  EXPECT_DOUBLE_EQ(rep.ps.availability(), 1.0);
  // FE procedures are mostly reads (the §4.1 premise).
  EXPECT_GT(rep.fe_read.attempted, rep.fe_write.attempted);
}

TEST(TrafficTest, PartitionHurtsPsMoreThanFeReads) {
  TestbedOptions o;
  o.sites = 3;
  o.subscribers = 200;
  o.pin_home_sites = true;
  Testbed bed(o);
  // PS at site 0; cut site 0 from sites 1-2 for the middle of the run.
  MicroTime t0 = bed.clock().Now();
  bed.network().partitions().CutBetween({0}, {1, 2}, t0 + Seconds(5),
                                        t0 + Seconds(15));
  TrafficOptions t;
  t.duration = Seconds(20);
  t.fe_rate_per_sec = 100;
  t.ps_rate_per_sec = 20;
  t.subscriber_count = 200;
  TrafficReport rep = RunTraffic(bed, t);
  // FE reads: nearly always served (local replicas).
  EXPECT_GT(rep.fe_read.availability(), 0.95);
  // PS: roughly 2/3 of targets have masters on the far side during 50% of
  // the run => availability clearly below FE reads.
  EXPECT_LT(rep.ps.availability(), 0.85);
  EXPECT_LT(rep.ps.availability(), rep.fe_read.availability());
  // Some writes from FEs also fail (UpdateLocation to remote masters).
  EXPECT_LT(rep.fe_write.availability(), 1.0);
}

TEST(TrafficTest, StaleReadsAppearWithSlaveReads) {
  TestbedOptions o;
  o.sites = 3;
  o.subscribers = 100;
  o.pin_home_sites = true;
  o.udr.fe_slave_reads = true;
  Testbed bed(o);
  TrafficOptions t;
  t.duration = Seconds(10);
  t.fe_rate_per_sec = 200;
  t.ps_rate_per_sec = 50;   // Heavy write rate to create lag windows.
  t.roaming_fraction = 0.5; // Many reads served away from the master.
  t.subscriber_count = 100;
  TrafficReport rep = RunTraffic(bed, t);
  ClassStats fe = rep.FeAll();
  EXPECT_GT(fe.stale_procedures, 0);  // PA/EL: staleness is the price.
}

TEST(TrafficTest, MasterOnlyReadsNeverStale) {
  TestbedOptions o;
  o.sites = 3;
  o.subscribers = 100;
  o.pin_home_sites = true;
  o.udr.fe_slave_reads = false;  // Force master reads for everything.
  Testbed bed(o);
  TrafficOptions t;
  t.duration = Seconds(10);
  t.fe_rate_per_sec = 200;
  t.ps_rate_per_sec = 50;
  t.roaming_fraction = 0.5;
  t.subscriber_count = 100;
  TrafficReport rep = RunTraffic(bed, t);
  EXPECT_EQ(rep.FeAll().stale_procedures, 0);
  EXPECT_EQ(rep.ps.stale_procedures, 0);
}

TEST(TrafficTest, DeterministicGivenSeed) {
  for (int run = 0; run < 2; ++run) {
    TestbedOptions o;
    o.sites = 2;
    o.subscribers = 50;
    static int64_t first_ok = -1;
    Testbed bed(o);
    TrafficOptions t;
    t.duration = Seconds(5);
    t.subscriber_count = 50;
    t.seed = 99;
    TrafficReport rep = RunTraffic(bed, t);
    if (first_ok < 0) {
      first_ok = rep.FeAll().ok;
    } else {
      EXPECT_EQ(rep.FeAll().ok, first_ok);
    }
  }
}

TEST(TrafficTest, SamplerTicksDuringRun) {
  // The sim-loop driver wakes at every sampler tick, inline driver included:
  // a 2 s run at a 100 ms interval takes exactly 20 samples.
  TestbedOptions o;
  o.sites = 3;
  o.subscribers = 200;
  o.udr.obs_sample_interval_us = Millis(100);
  Testbed bed(o);
  ASSERT_NE(bed.udr().sampler(), nullptr);
  TrafficOptions t;
  t.duration = Seconds(2);
  t.subscriber_count = 200;
  t.concurrent_events = 1;
  RunTraffic(bed, t);
  EXPECT_EQ(bed.udr().sampler()->samples_taken(), 20);
}

}  // namespace
}  // namespace udr::workload
