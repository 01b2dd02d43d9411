// Property-based tests: invariants that must hold across randomized inputs
// and configuration sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P).
//
// Covered invariants:
//   * IntervalSet behaves exactly like a naive reference implementation
//     under random insertions;
//   * Histogram percentiles stay within the bucket resolution of exact
//     order statistics for arbitrary distributions;
//   * DN and Filter string forms round-trip;
//   * replicated state converges: after any partition/crash episode heals,
//     every up replica equals the master copy (CP mode), for every sync
//     mode and replication factor;
//   * a storage element's local-recovery loss equals a linear scan of the
//     partition's commit log, at both durability settings;
//   * the UDR data path keeps the identity indexes consistent: every
//     provisioned identity resolves to a record that contains it, from
//     every PoA, under every deployment shape;
//   * traffic conservation: attempted == ok + failed for every class.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/histogram.h"
#include "common/rng.h"
#include "ldap/dn.h"
#include "ldap/filter.h"
#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "sim/network.h"
#include "sim/partition_schedule.h"
#include "workload/testbed.h"
#include "workload/traffic.h"

namespace udr {
namespace {

// ---------------------------------------------------------------------------
// IntervalSet vs naive reference
// ---------------------------------------------------------------------------

class IntervalSetProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalSetProperty, MatchesNaiveReference) {
  Rng rng(GetParam());
  sim::IntervalSet set;
  std::set<int64_t> covered;  // Naive: every covered microsecond.
  for (int i = 0; i < 60; ++i) {
    int64_t begin = static_cast<int64_t>(rng.Uniform(500));
    int64_t len = static_cast<int64_t>(rng.Uniform(40));
    set.Add(begin, begin + len);
    for (int64_t t = begin; t < begin + len; ++t) covered.insert(t);
  }
  for (int64_t t = 0; t < 560; ++t) {
    EXPECT_EQ(set.Covers(t), covered.count(t) > 0) << "t=" << t;
  }
  // NextClear agrees with the naive forward scan.
  for (int64_t t = 0; t < 560; t += 7) {
    int64_t expect = t;
    while (covered.count(expect) > 0) ++expect;
    EXPECT_EQ(set.NextClear(t), expect) << "t=" << t;
  }
  // OutageWithin agrees with counting.
  int64_t total = set.OutageWithin(0, 600);
  EXPECT_EQ(total, static_cast<int64_t>(covered.size()));
  // Intervals are sorted and disjoint.
  const auto& ivs = set.intervals();
  for (size_t i = 1; i < ivs.size(); ++i) {
    EXPECT_GT(ivs[i].begin, ivs[i - 1].end);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Histogram percentile accuracy
// ---------------------------------------------------------------------------

class HistogramProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistogramProperty, PercentilesWithinBucketResolution) {
  Rng rng(GetParam() * 977);
  Histogram h;
  std::vector<int64_t> values;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    int64_t v = 0;
    switch (GetParam() % 3) {
      case 0:
        v = static_cast<int64_t>(rng.Uniform(1000000));
        break;
      case 1:
        v = static_cast<int64_t>(rng.Exponential(5000.0));
        break;
      default:
        v = static_cast<int64_t>(std::max(0.0, rng.Normal(100000, 20000)));
        break;
    }
    h.Record(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    int64_t exact = values[static_cast<size_t>(p / 100.0 * (n - 1))];
    int64_t approx = h.Percentile(p);
    // Log-bucketed storage: <= 12.5% relative error plus one bucket slack.
    EXPECT_LE(approx, exact + exact / 4 + 16) << "p=" << p;
    EXPECT_GE(approx, exact - exact / 4 - 16) << "p=" << p;
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());
}

INSTANTIATE_TEST_SUITE_P(Distributions, HistogramProperty,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// DN / Filter round-trips
// ---------------------------------------------------------------------------

class DnRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(DnRoundTrip, ParseToStringIdentity) {
  auto dn = ldap::Dn::Parse(GetParam());
  ASSERT_TRUE(dn.ok()) << GetParam();
  auto again = ldap::Dn::Parse(dn->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*dn, *again);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DnRoundTrip,
    ::testing::Values("imsi=214050000000001,ou=subscribers,dc=udr",
                      "msisdn=+34600000001,ou=subscribers,dc=udr",
                      "impu=sip:alice@ims.example,ou=subscribers,dc=udr",
                      "cn=Doe\\, John,ou=people,dc=udr", "dc=udr",
                      "impi=user@realm,ou=subscribers,dc=udr"));

class FilterRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(FilterRoundTrip, ParseToStringStable) {
  auto f = ldap::Filter::Parse(GetParam());
  ASSERT_TRUE(f.ok()) << GetParam();
  auto again = ldap::Filter::Parse(f->ToString());
  ASSERT_TRUE(again.ok()) << f->ToString();
  EXPECT_EQ(f->ToString(), again->ToString());
  // Both parse trees agree on a sample record.
  storage::Record r;
  r.Set("msisdn", std::string("+34600000001"), 0, 0);
  r.Set("barred", false, 0, 0);
  r.Set("sqn", int64_t{41}, 0, 0);
  EXPECT_EQ(f->Matches(r), again->Matches(r));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FilterRoundTrip,
    ::testing::Values("(msisdn=+34600000001)", "(barred=*)",
                      "(&(msisdn=+34600000001)(barred=false))",
                      "(|(a=1)(b=2)(c=3))", "(!(barred=true))",
                      "(sqn>=40)", "(sqn<=42)",
                      "(&(|(a=1)(msisdn=+34600000001))(!(ghost=*)))"));

// ---------------------------------------------------------------------------
// Replication convergence under random partition/crash episodes
// ---------------------------------------------------------------------------

struct ConvergenceParam {
  int replicas;
  replication::SyncMode sync;
  uint64_t seed;
};

class ReplicationConvergence
    : public ::testing::TestWithParam<ConvergenceParam> {};

TEST_P(ReplicationConvergence, UpReplicasEqualMasterAfterQuiescence) {
  const ConvergenceParam param = GetParam();
  sim::SimClock clock;
  auto network = std::make_unique<sim::Network>(
      sim::Topology(static_cast<uint32_t>(param.replicas)), &clock);
  std::vector<std::unique_ptr<storage::StorageElement>> ses;
  std::vector<storage::StorageElement*> ptrs;
  for (int s = 0; s < param.replicas; ++s) {
    storage::StorageElementConfig cfg;
    cfg.site = static_cast<sim::SiteId>(s);
    ses.push_back(std::make_unique<storage::StorageElement>(
        cfg, &clock, static_cast<uint32_t>(s)));
    ptrs.push_back(ses.back().get());
  }
  replication::ReplicaSetConfig cfg;
  cfg.sync_mode = param.sync;
  replication::ReplicaSet rs(cfg, ptrs, network.get());
  Rng rng(param.seed);

  clock.AdvanceTo(Seconds(1));
  int accepted = 0;
  for (int step = 0; step < 120; ++step) {
    clock.Advance(Millis(200));
    // Random partition episodes between random site pairs.
    if (rng.Bernoulli(0.08) && param.replicas > 1) {
      sim::SiteId a = static_cast<sim::SiteId>(rng.Uniform(param.replicas));
      sim::SiteId b = static_cast<sim::SiteId>(rng.Uniform(param.replicas));
      network->partitions().CutLink(a, b, clock.Now(),
                                    clock.Now() + Seconds(2));
    }
    replication::WriteBuilder wb;
    wb.Set(rng.Uniform(10), "v", static_cast<int64_t>(step));
    auto w = rs.Write(static_cast<sim::SiteId>(rng.Uniform(param.replicas)),
                      std::move(wb).Build());
    if (w.status.ok()) ++accepted;
  }
  EXPECT_GT(accepted, 0);
  // Quiesce: all partitions heal, everyone catches up.
  clock.Advance(Seconds(30));
  rs.CatchUpAll();
  const storage::RecordStore& master = rs.replica_store(rs.master_id());
  for (uint32_t id = 0; id < rs.replica_count(); ++id) {
    if (!rs.replica_up(id)) continue;
    EXPECT_EQ(rs.applied_seq(id), rs.log().LastSeq()) << "replica " << id;
    for (storage::RecordKey k = 0; k < 10; ++k) {
      const storage::Record* m = master.Find(k);
      const storage::Record* r = rs.replica_store(id).Find(k);
      ASSERT_EQ(m == nullptr, r == nullptr) << "replica " << id << " key " << k;
      if (m != nullptr) {
        EXPECT_TRUE(*m == *r) << "replica " << id << " key " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplicationConvergence,
    ::testing::Values(
        ConvergenceParam{2, replication::SyncMode::kAsync, 101},
        ConvergenceParam{3, replication::SyncMode::kAsync, 102},
        ConvergenceParam{3, replication::SyncMode::kAsync, 103},
        ConvergenceParam{3, replication::SyncMode::kDualSequence, 104},
        ConvergenceParam{5, replication::SyncMode::kAsync, 105},
        ConvergenceParam{5, replication::SyncMode::kQuorum, 106},
        ConvergenceParam{4, replication::SyncMode::kDualSequence, 107}));

// ---------------------------------------------------------------------------
// UDR identity-index consistency across deployment shapes
// ---------------------------------------------------------------------------

struct DeployParam {
  uint32_t sites;
  int se_per_cluster;
  int replication_factor;
  bool pinned;
};

class UdrDeploymentProperty : public ::testing::TestWithParam<DeployParam> {};

TEST_P(UdrDeploymentProperty, EveryIdentityResolvesEverywhere) {
  const DeployParam p = GetParam();
  workload::TestbedOptions o;
  o.sites = p.sites;
  o.udr.se_per_cluster = p.se_per_cluster;
  o.udr.replication_factor = p.replication_factor;
  o.subscribers = 40;
  o.pin_home_sites = p.pinned;
  workload::Testbed bed(o);
  bed.clock().Advance(Seconds(1));
  bed.udr().CatchUpAllPartitions();

  for (uint64_t i = 0; i < 40; ++i) {
    telecom::Subscriber s = bed.factory().Make(i);
    location::LocationEntry first{};
    bool have_first = false;
    for (uint32_t site = 0; site < p.sites; ++site) {
      for (const auto& id :
           {s.ImsiId(), s.MsisdnId(), s.ImpuId(),
            location::Identity{location::IdentityType::kImpi, s.impi}}) {
        auto r = bed.udr().Locate(id, site);
        ASSERT_TRUE(r.status.ok())
            << id.ToString() << " at site " << site;
        if (!have_first) {
          first = r.entry;
          have_first = true;
        } else {
          // All identities of one subscriber map to one record everywhere.
          EXPECT_EQ(r.entry, first) << id.ToString() << " site " << site;
        }
      }
    }
    // The record actually holds the identity attributes.
    auto* rs = bed.udr().partition(first.partition);
    auto rec = rs->ReadRecord(0, first.key,
                              replication::ReadPreference::kMasterOnly);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(storage::ValueToString(*rec->Get("imsi")), s.imsi);
    // Replica count honors the configured factor (capped by SE count).
    EXPECT_LE(rs->replica_count(),
              static_cast<size_t>(p.replication_factor));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UdrDeploymentProperty,
    ::testing::Values(DeployParam{1, 2, 2, false}, DeployParam{2, 1, 2, false},
                      DeployParam{3, 2, 3, true}, DeployParam{4, 2, 3, true},
                      DeployParam{5, 1, 3, false}, DeployParam{3, 4, 2, true}));

// ---------------------------------------------------------------------------
// Storage durability: local-recovery loss == a linear scan of the log
// ---------------------------------------------------------------------------

class CrashRecoveryProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(CrashRecoveryProperty, LossEqualsLinearScanOfTheLog) {
  const auto [seed, wal_sync] = GetParam();
  Rng rng(seed);
  sim::SimClock clock;
  sim::Network network(sim::Topology(1), &clock);
  storage::StorageElementConfig cfg;
  cfg.checkpoint_period = Seconds(30);
  cfg.wal_sync_commit = wal_sync;
  storage::StorageElement se(cfg, &clock);
  replication::ReplicaSet rs(replication::ReplicaSetConfig(), {&se}, &network);

  for (int i = 0; i < 200; ++i) {
    clock.Advance(Millis(static_cast<int64_t>(rng.Uniform(2000)) + 1));
    replication::WriteBuilder wb;
    const int writes = 1 + static_cast<int>(rng.Uniform(3));
    for (int w = 0; w < writes; ++w) {
      const storage::RecordKey key = rng.Uniform(30);
      if (rng.Bernoulli(0.1)) {
        wb.Delete(key);
      } else {
        wb.Set(key, "v", static_cast<int64_t>(rng.Uniform(1000)));
      }
    }
    ASSERT_TRUE(rs.Write(0, std::move(wb).Build()).status.ok());
  }

  // Crash at a random instant after the last commit.
  clock.Advance(Millis(static_cast<int64_t>(rng.Uniform(60000))));
  const MicroTime crash = clock.Now();
  const storage::CrashRecovery rec = se.LocalRecovery(rs.log(), crash);

  // Reference: the disk holds every commit up to the last checkpoint (every
  // commit under wal-sync); commits in (checkpoint, crash] are lost, and the
  // window runs from the first of them to the crash.
  const MicroTime durable_until =
      wal_sync ? crash : crash - crash % cfg.checkpoint_period;
  int64_t committed = 0, lost = 0;
  MicroDuration window = 0;
  for (const storage::LogEntry& e : rs.log().entries()) {
    if (e.commit_time > crash) continue;
    ++committed;
    if (e.commit_time > durable_until) {
      if (lost == 0) window = crash - e.commit_time;
      ++lost;
    }
  }
  EXPECT_EQ(committed, 200);
  EXPECT_EQ(rec.crash_time, crash);
  EXPECT_EQ(rec.last_seq_before_crash, static_cast<uint64_t>(committed));
  EXPECT_EQ(rec.recovered_seq, static_cast<uint64_t>(committed - lost));
  EXPECT_EQ(rec.lost_transactions, lost);
  EXPECT_EQ(rec.data_loss_window, window);
  if (wal_sync) {
    EXPECT_EQ(rec.lost_transactions, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryProperty,
                         ::testing::Combine(::testing::Range<uint64_t>(301, 309),
                                            ::testing::Bool()));

// ---------------------------------------------------------------------------
// Traffic accounting conservation
// ---------------------------------------------------------------------------

class TrafficConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrafficConservation, AttemptedEqualsOkPlusFailed) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 100;
  o.pin_home_sites = true;
  workload::Testbed bed(o);
  // Random partition schedule per seed.
  Rng rng(GetParam());
  MicroTime t0 = bed.clock().Now();
  for (int i = 0; i < 3; ++i) {
    MicroTime cut = t0 + Seconds(rng.UniformRange(1, 25));
    bed.network().partitions().CutLink(
        static_cast<sim::SiteId>(rng.Uniform(3)),
        static_cast<sim::SiteId>(rng.Uniform(3)), cut,
        cut + Seconds(rng.UniformRange(1, 10)));
  }
  workload::TrafficOptions t;
  t.duration = Seconds(30);
  t.fe_rate_per_sec = 80;
  t.ps_rate_per_sec = 10;
  t.subscriber_count = 100;
  t.seed = GetParam();
  auto rep = workload::RunTraffic(bed, t);
  for (const auto* cls : {&rep.fe_read, &rep.fe_write, &rep.ps}) {
    EXPECT_EQ(cls->attempted, cls->ok + cls->failed);
    EXPECT_EQ(cls->latency.count(), cls->ok);
    EXPECT_GE(cls->availability(), 0.0);
    EXPECT_LE(cls->availability(), 1.0);
  }
  // Rates respected: ~30s * 80/s FE procedures.
  auto fe = rep.FeAll();
  EXPECT_NEAR(static_cast<double>(fe.attempted), 30.0 * 80, 81);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficConservation,
                         ::testing::Range<uint64_t>(201, 207));

}  // namespace
}  // namespace udr
