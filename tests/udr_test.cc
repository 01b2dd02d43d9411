// Unit tests for src/udr: blade cluster limits, UDR NF deployment,
// partition commissioning, the LDAP data path (add/search/modify/delete/
// compare), selective placement, scale-out sync windows and capacity
// aggregation.

#include <gtest/gtest.h>

#include <cmath>

#include "ldap/dn.h"
#include "sim/network.h"
#include "udr/capacity_model.h"
#include "udr/udr_nf.h"

namespace udr::udrnf {
namespace {

using ldap::LdapOp;
using ldap::LdapRequest;
using ldap::LdapResult;
using ldap::LdapResultCode;
using location::Identity;
using location::IdentityType;

// ---------------------------------------------------------------------------
// BladeCluster
// ---------------------------------------------------------------------------

TEST(BladeClusterTest, EnforcesSeLimit) {
  sim::SimClock clock;
  BladeCluster cluster(0, 0, &clock);
  storage::StorageElementConfig cfg;
  for (int i = 0; i < kMaxStorageElementsPerCluster; ++i) {
    ASSERT_TRUE(cluster.AddStorageElement(cfg, i).ok());
  }
  EXPECT_TRUE(cluster.AddStorageElement(cfg, 99).status().IsResourceExhausted());
  EXPECT_EQ(cluster.se_count(), 16u);
}

TEST(BladeClusterTest, NamesElementsAfterCluster) {
  sim::SimClock clock;
  BladeCluster cluster(3, 1, &clock);
  storage::StorageElementConfig cfg;
  auto se = cluster.AddStorageElement(cfg, 0);
  ASSERT_TRUE(se.ok());
  EXPECT_EQ((*se)->name(), "c3-se0");
  EXPECT_EQ((*se)->site(), 1u);
}

TEST(BladeClusterTest, EnforcesLdapLimitAndAutoRegisters) {
  sim::SimClock clock;
  BladeCluster cluster(0, 0, &clock);
  ldap::LdapServerConfig cfg;
  for (int i = 0; i < kMaxLdapServersPerCluster; ++i) {
    ASSERT_TRUE(cluster.AddLdapServer(cfg).ok());
  }
  EXPECT_TRUE(cluster.AddLdapServer(cfg).status().IsResourceExhausted());
  EXPECT_EQ(cluster.balancer().server_count(), 32u);
  // 32 servers x 1e6 ops/s each.
  EXPECT_EQ(cluster.LdapOpsPerSecond(), 32'000'000);
}

// ---------------------------------------------------------------------------
// UdrNf deployment
// ---------------------------------------------------------------------------

class UdrNfTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(UdrConfig()); }

  void Build(UdrConfig cfg) {
    cfg.se_per_cluster = 2;
    cfg.ldap_per_cluster = 2;
    sim::LatencyConfig lc;
    lc.lan_one_way = Micros(100);
    lc.backbone_one_way = Millis(15);
    network_ = std::make_unique<sim::Network>(sim::Topology(3, lc), &clock_);
    udr_ = std::make_unique<UdrNf>(cfg, network_.get());
    for (uint32_t s = 0; s < 3; ++s) {
      ASSERT_TRUE(udr_->AddCluster(s).ok());
    }
    udr_->CommissionPartitions();
  }

  UdrNf::CreateSpec SpecFor(const std::string& imsi, const std::string& msisdn) {
    UdrNf::CreateSpec spec;
    spec.identities.push_back({IdentityType::kImsi, imsi});
    spec.identities.push_back({IdentityType::kMsisdn, msisdn});
    spec.profile.Set("imsi", imsi, 0, 0);
    spec.profile.Set("msisdn", msisdn, 0, 0);
    spec.profile.Set("authkey", std::string("deadbeef"), 0, 0);
    spec.profile.Set("odb-premium-barred", false, 0, 0);
    return spec;
  }

  sim::SimClock clock_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<UdrNf> udr_;
};

TEST_F(UdrNfTest, DeploymentShape) {
  EXPECT_EQ(udr_->cluster_count(), 3u);
  EXPECT_EQ(udr_->TotalStorageElements(), 6);
  EXPECT_EQ(udr_->partition_count(), 6u);  // One primary per SE.
  EXPECT_NE(udr_->ClusterAtSite(1), nullptr);
  EXPECT_EQ(udr_->ClusterAtSite(9), nullptr);
}

TEST_F(UdrNfTest, PartitionsHaveGeodisperseSecondaries) {
  for (size_t p = 0; p < udr_->partition_count(); ++p) {
    replication::ReplicaSet* rs = udr_->partition(static_cast<uint32_t>(p));
    ASSERT_EQ(rs->replica_count(), 3u);
    // All three copies on distinct sites.
    std::set<sim::SiteId> sites;
    for (uint32_t r = 0; r < 3; ++r) sites.insert(rs->replica_site(r));
    EXPECT_EQ(sites.size(), 3u) << "partition " << p;
  }
}

TEST_F(UdrNfTest, CreateSubscriberBindsAllIdentities) {
  auto outcome = udr_->CreateSubscriber(SpecFor("214", "+34600"), 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(udr_->AuthoritativeLookup({IdentityType::kImsi, "214"}).ok());
  EXPECT_TRUE(udr_->AuthoritativeLookup({IdentityType::kMsisdn, "+34600"}).ok());
  // Both identities resolve to the same record everywhere.
  for (uint32_t s = 0; s < 3; ++s) {
    auto a = udr_->Locate({IdentityType::kImsi, "214"}, s);
    auto b = udr_->Locate({IdentityType::kMsisdn, "+34600"}, s);
    ASSERT_TRUE(a.status.ok()) << s;
    ASSERT_TRUE(b.status.ok()) << s;
    EXPECT_EQ(a.entry.key, b.entry.key);
  }
  EXPECT_EQ(udr_->SubscriberCount(), 1);
}

TEST_F(UdrNfTest, DuplicateIdentityRejected) {
  ASSERT_TRUE(udr_->CreateSubscriber(SpecFor("214", "+34600"), 0).ok());
  auto dup = udr_->CreateSubscriber(SpecFor("214", "+34601"), 0);
  EXPECT_TRUE(dup.status().IsAlreadyExists());
}

TEST_F(UdrNfTest, SelectivePlacementPinsMaster) {
  UdrNf::CreateSpec spec = SpecFor("214", "+34600");
  spec.home_site = 2;
  auto outcome = udr_->CreateSubscriber(spec, 0);
  ASSERT_TRUE(outcome.ok());
  replication::ReplicaSet* rs = udr_->partition(outcome->entry.partition);
  EXPECT_EQ(rs->master_site(), 2u);
}

TEST_F(UdrNfTest, RoundRobinPlacementBalances) {
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(udr_
                    ->CreateSubscriber(SpecFor("i" + std::to_string(i),
                                               "m" + std::to_string(i)),
                                       0)
                    .ok());
  }
  // 12 subscribers over 6 partitions: 2 each under least-loaded placement.
  std::map<uint32_t, int> per_partition;
  for (int i = 0; i < 12; ++i) {
    auto loc = udr_->AuthoritativeLookup({IdentityType::kImsi,
                                          "i" + std::to_string(i)});
    ASSERT_TRUE(loc.ok());
    ++per_partition[loc->partition];
  }
  EXPECT_EQ(per_partition.size(), 6u);
  for (const auto& [p, n] : per_partition) EXPECT_EQ(n, 2) << "partition " << p;
}

TEST_F(UdrNfTest, DeleteSubscriberUnbindsEverything) {
  ASSERT_TRUE(udr_->CreateSubscriber(SpecFor("214", "+34600"), 0).ok());
  ASSERT_TRUE(udr_->DeleteSubscriber({IdentityType::kImsi, "214"}, 0).ok());
  EXPECT_TRUE(udr_->AuthoritativeLookup({IdentityType::kImsi, "214"})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(udr_->AuthoritativeLookup({IdentityType::kMsisdn, "+34600"})
                  .status()
                  .IsNotFound());
  EXPECT_EQ(udr_->SubscriberCount(), 0);
}

// ---------------------------------------------------------------------------
// LDAP data path
// ---------------------------------------------------------------------------

class UdrLdapTest : public UdrNfTest {
 protected:
  void SetUp() override {
    UdrNfTest::SetUp();
    clock_.AdvanceTo(Seconds(1));
    ASSERT_TRUE(udr_->CreateSubscriber(SpecFor("214", "+34600"), 0).ok());
    clock_.Advance(Seconds(1));
    udr_->CatchUpAllPartitions();
  }

  LdapResult Search(const std::string& dn_attr, const std::string& dn_value,
                    sim::SiteId site, bool master_only = false) {
    LdapRequest req;
    req.op = LdapOp::kSearch;
    req.dn = ldap::SubscriberDn(dn_attr, dn_value);
    req.master_only = master_only;
    return udr_->Submit(req, site);
  }
};

TEST_F(UdrLdapTest, BaseObjectSearchReturnsEntry) {
  LdapResult r = Search("imsi", "214", 0);
  ASSERT_EQ(r.code, LdapResultCode::kSuccess);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_TRUE(r.entries[0].record.Has("authkey"));
  EXPECT_GT(r.latency, 0);
  EXPECT_LT(r.latency, Millis(10));  // The paper's responsiveness target.
}

TEST_F(UdrLdapTest, SearchByAnyIdentityIndex) {
  EXPECT_EQ(Search("msisdn", "+34600", 1).code, LdapResultCode::kSuccess);
  EXPECT_EQ(Search("imsi", "214", 2).code, LdapResultCode::kSuccess);
}

TEST_F(UdrLdapTest, SearchUnknownSubscriberIsNoSuchObject) {
  EXPECT_EQ(Search("imsi", "999", 0).code, LdapResultCode::kNoSuchObject);
}

TEST_F(UdrLdapTest, SingleLevelSearchWithIdentityFilter) {
  LdapRequest req;
  req.op = LdapOp::kSearch;
  req.dn = ldap::SubscribersBase();
  req.scope = ldap::SearchScope::kSingleLevel;
  req.filter = "(msisdn=+34600)";
  LdapResult r = udr_->Submit(req, 0);
  ASSERT_EQ(r.code, LdapResultCode::kSuccess);
  EXPECT_EQ(r.entries.size(), 1u);
}

TEST_F(UdrLdapTest, RequestedAttrsProjection) {
  LdapRequest req;
  req.op = LdapOp::kSearch;
  req.dn = ldap::SubscriberDn("imsi", "214");
  req.requested_attrs = {"msisdn"};
  LdapResult r = udr_->Submit(req, 0);
  ASSERT_EQ(r.code, LdapResultCode::kSuccess);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_TRUE(r.entries[0].record.Has("msisdn"));
  EXPECT_FALSE(r.entries[0].record.Has("authkey"));
}

TEST_F(UdrLdapTest, FilterCanExcludeEntry) {
  LdapRequest req;
  req.op = LdapOp::kSearch;
  req.dn = ldap::SubscriberDn("imsi", "214");
  req.filter = "(odb-premium-barred=true)";
  LdapResult r = udr_->Submit(req, 0);
  EXPECT_EQ(r.code, LdapResultCode::kSuccess);
  EXPECT_TRUE(r.entries.empty());
}

TEST_F(UdrLdapTest, ModifyThenRead) {
  LdapRequest mod;
  mod.op = LdapOp::kModify;
  mod.dn = ldap::SubscriberDn("imsi", "214");
  mod.mods.push_back(
      {ldap::ModType::kReplace, "odb-premium-barred", true});
  ASSERT_EQ(udr_->Submit(mod, 0).code, LdapResultCode::kSuccess);
  LdapResult r = Search("imsi", "214", 0, /*master_only=*/true);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(storage::ValueToString(*r.entries[0].record.Get("odb-premium-barred")),
            "true");
}

TEST_F(UdrLdapTest, ModifyIdentityAttributeRejected) {
  LdapRequest mod;
  mod.op = LdapOp::kModify;
  mod.dn = ldap::SubscriberDn("imsi", "214");
  mod.mods.push_back({ldap::ModType::kReplace, "msisdn", std::string("+1")});
  EXPECT_EQ(udr_->Submit(mod, 0).code, LdapResultCode::kUnwillingToPerform);
}

TEST_F(UdrLdapTest, AddViaLdap) {
  LdapRequest add;
  add.op = LdapOp::kAdd;
  add.dn = ldap::SubscriberDn("imsi", "215");
  add.add_entry.Set("imsi", std::string("215"), 0, 0);
  add.add_entry.Set("msisdn", std::string("+34601"), 0, 0);
  ASSERT_EQ(udr_->Submit(add, 1).code, LdapResultCode::kSuccess);
  // Read through the master copy: the local slave may not have applied the
  // entry yet (async replication).
  EXPECT_EQ(Search("msisdn", "+34601", 1, /*master_only=*/true).code,
            LdapResultCode::kSuccess);
  // Adding the same DN again: entryAlreadyExists.
  EXPECT_EQ(udr_->Submit(add, 1).code, LdapResultCode::kEntryAlreadyExists);
}

TEST_F(UdrLdapTest, AddWithHomesitePinsPlacement) {
  LdapRequest add;
  add.op = LdapOp::kAdd;
  add.dn = ldap::SubscriberDn("imsi", "216");
  add.add_entry.Set("imsi", std::string("216"), 0, 0);
  add.add_entry.Set("homesite", int64_t{1}, 0, 0);
  ASSERT_EQ(udr_->Submit(add, 0).code, LdapResultCode::kSuccess);
  auto loc = udr_->AuthoritativeLookup({IdentityType::kImsi, "216"});
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(udr_->partition(loc->partition)->master_site(), 1u);
}

TEST_F(UdrLdapTest, DeleteViaLdap) {
  LdapRequest del;
  del.op = LdapOp::kDelete;
  del.dn = ldap::SubscriberDn("imsi", "214");
  ASSERT_EQ(udr_->Submit(del, 0).code, LdapResultCode::kSuccess);
  EXPECT_EQ(Search("imsi", "214", 0).code, LdapResultCode::kNoSuchObject);
  EXPECT_EQ(udr_->Submit(del, 0).code, LdapResultCode::kNoSuchObject);
}

TEST_F(UdrLdapTest, CompareTrueFalse) {
  LdapRequest cmp;
  cmp.op = LdapOp::kCompare;
  cmp.dn = ldap::SubscriberDn("imsi", "214");
  cmp.compare_attr = "msisdn";
  cmp.compare_value = "+34600";
  EXPECT_EQ(udr_->Submit(cmp, 0).code, LdapResultCode::kCompareTrue);
  cmp.compare_value = "+39999";
  EXPECT_EQ(udr_->Submit(cmp, 0).code, LdapResultCode::kCompareFalse);
}

TEST_F(UdrLdapTest, HostileFiltersAreProtocolErrors) {
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "(!";
  deep += "(a=b)" + std::string(100000, ')');
  const std::string huge = "(a=" + std::string(1 << 20, 'x') + ")";
  for (const std::string& filter : {deep, huge}) {
    LdapRequest base;
    base.op = LdapOp::kSearch;
    base.dn = ldap::SubscriberDn("imsi", "214");
    base.filter = filter;
    LdapResult r = udr_->Process(base, 0);
    EXPECT_EQ(r.code, LdapResultCode::kProtocolError) << r.diagnostic;
    EXPECT_TRUE(r.entries.empty());

    LdapRequest slf;
    slf.op = LdapOp::kSearch;
    slf.dn = ldap::SubscribersBase();
    slf.scope = ldap::SearchScope::kSingleLevel;
    slf.filter = filter;
    EXPECT_EQ(udr_->Process(slf, 0).code, LdapResultCode::kProtocolError);
  }
}

TEST_F(UdrLdapTest, RemoteSubmitPaysBackboneWhenNoLocalPoa) {
  // Client at a site with a PoA: LAN leg. (All 3 sites have PoAs here, so
  // compare against a request that must reach a remote master instead.)
  LdapResult local_read = Search("imsi", "214", 0);
  LdapRequest mod;
  mod.op = LdapOp::kModify;
  mod.dn = ldap::SubscriberDn("imsi", "214");
  mod.mods.push_back({ldap::ModType::kReplace, "cfu-number", std::string("+1")});
  // The write must travel to the master copy's site from site 2.
  LdapResult remote_write = udr_->Submit(mod, 2);
  EXPECT_EQ(remote_write.code, LdapResultCode::kSuccess);
  EXPECT_GT(remote_write.latency, local_read.latency);
}

TEST_F(UdrLdapTest, SubmitUnreachableEverythingIsUnavailable) {
  // Isolate a site that has no cluster? All sites have clusters; instead cut
  // client site 2 from ALL sites and route from site 2: the local PoA still
  // serves (same-site LAN is never partitioned).
  network_->partitions().IsolateSite(2, 3, clock_.Now(),
                                     clock_.Now() + Seconds(60));
  LdapResult r = Search("imsi", "214", 2);  // Local slave read still works.
  EXPECT_EQ(r.code, LdapResultCode::kSuccess);
}

TEST_F(UdrLdapTest, NoHealthyLdapServerIsUnavailableOnEveryEntry) {
  // The PoA stays in the router's rotation (no SetClusterServing), but its
  // whole LDAP farm is down: every entry turns the message away at the
  // balancer and counts it once, as unavailable.
  for (ldap::LdapServer* server : udr_->cluster(0)->balancer().servers()) {
    server->set_healthy(false);
  }
  LdapRequest req;
  req.op = LdapOp::kSearch;
  req.dn = ldap::SubscriberDn("imsi", "214");
  const MicroDuration leg =
      network_->topology().Rtt(0, 0) + network_->topology().HopOverhead();

  LdapResult single = udr_->Submit(req, 0);
  EXPECT_EQ(single.code, LdapResultCode::kUnavailable);
  EXPECT_EQ(single.latency, leg);

  ldap::LdapBatchResult batch = udr_->SubmitBatch({req, req}, 0);
  ASSERT_EQ(batch.results.size(), 2u);
  for (const LdapResult& r : batch.results) {
    EXPECT_EQ(r.code, LdapResultCode::kUnavailable);
  }
  EXPECT_EQ(batch.latency, leg);

  EXPECT_TRUE(udr_->SubmitEvent({req}, 0).status().IsUnavailable());

  EXPECT_EQ(udr_->metrics().Get("udr.submit.unavailable"), 3);
  EXPECT_EQ(udr_->metrics().Get("udr.submit.failed"), 0);
  EXPECT_EQ(udr_->metrics().Get("udr.submit.ok"), 0);
  for (ldap::LdapServer* server : udr_->cluster(0)->balancer().servers()) {
    EXPECT_EQ(server->ops_served(), 0);
  }
}

// ---------------------------------------------------------------------------
// Scale-out (§3.4.2)
// ---------------------------------------------------------------------------

TEST_F(UdrNfTest, ScaleOutSyncWindowBlocksNewPoa) {
  clock_.AdvanceTo(Seconds(1));
  // Provision some subscribers so the identity maps are non-trivial.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(udr_
                    ->CreateSubscriber(SpecFor("i" + std::to_string(i),
                                               "m" + std::to_string(i)),
                                       0)
                    .ok());
  }
  // Scale out: deploy another cluster (site 2 gets a second one). The new
  // provisioned location stage must copy all identity-map entries from a
  // peer, and the copy duration is recorded as the §3.4.2 sync window.
  auto before = udr_->metrics().HistOrEmpty("scaleout.sync_window_us").count();
  auto cluster = udr_->AddCluster(2);
  ASSERT_TRUE(cluster.ok());
  auto& hist = udr_->metrics().HistOrEmpty("scaleout.sync_window_us");
  EXPECT_EQ(hist.count(), before + 1);
  // 500 subscribers x 2 identities each = 1000 entries; window scales with
  // the provisioned base (2 µs per entry by default).
  EXPECT_GE(hist.max(), 1000 * Micros(2));
  // During the window the new PoA's stage refuses to resolve.
  auto r = (*cluster)->location_stage()->Resolve({IdentityType::kImsi, "i0"},
                                                 clock_.Now());
  EXPECT_TRUE(r.status.IsUnavailable());
}

TEST_F(UdrNfTest, ScaleOutStageResolvesFromTheSharedIndex) {
  // Every provisioned stage reads the router's one identity index. The
  // scale-out PoA is Unavailable for EntryCount x sync_per_entry, then
  // resolves every bound identity to its binding at the per-type modelled
  // cost; after a Delete no PoA resolves the subscriber.
  clock_.AdvanceTo(Seconds(1));
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(udr_
                    ->CreateSubscriber(SpecFor("i" + std::to_string(i),
                                               "m" + std::to_string(i)),
                                       0)
                    .ok());
  }
  const location::IdentityIndex& index = *udr_->router().identity_index();
  ASSERT_EQ(index.size(), 600);
  const location::LocationCostModel model = udr_->config().location_model;
  const MicroTime start = clock_.Now();
  auto cluster = udr_->AddCluster(2);
  ASSERT_TRUE(cluster.ok());
  location::LocationStage* fresh = (*cluster)->location_stage();
  const MicroDuration window = 600 * model.sync_per_entry;
  const Identity probe{IdentityType::kImsi, "i0"};
  EXPECT_TRUE(fresh->Resolve(probe, start).status.IsUnavailable());
  EXPECT_TRUE(fresh->Resolve(probe, start + window - 1).status.IsUnavailable());

  const MicroTime done = start + window;
  std::vector<location::LocationStage*> stages;
  for (uint32_t c = 0; c < udr_->cluster_count(); ++c) {
    stages.push_back(udr_->cluster(c)->location_stage());
  }
  for (const auto& [id, entry] : udr_->router().bindings()) {
    const MicroDuration expected_cost =
        model.map_base +
        model.map_per_log2 *
            static_cast<MicroDuration>(std::ceil(
                std::log2(static_cast<double>(index.CountOf(id.type)))));
    for (location::LocationStage* stage : stages) {
      location::ResolveResult r = stage->Resolve(id, done);
      ASSERT_TRUE(r.status.ok()) << id.ToString();
      EXPECT_EQ(r.entry, entry) << id.ToString();
      EXPECT_EQ(r.cost, expected_cost) << id.ToString();
    }
  }
  EXPECT_EQ(fresh->EntryCount(), 600);

  LdapRequest del;
  del.op = LdapOp::kDelete;
  del.dn = ldap::SubscriberDn("imsi", "i0");
  clock_.AdvanceTo(done);
  ASSERT_EQ(udr_->Process(del, 0).code, LdapResultCode::kSuccess);
  for (location::LocationStage* stage : stages) {
    EXPECT_TRUE(stage->Resolve(probe, clock_.Now()).status.IsNotFound());
    EXPECT_TRUE(stage->Resolve({IdentityType::kMsisdn, "m0"}, clock_.Now())
                    .status.IsNotFound());
    EXPECT_EQ(stage->EntryCount(), 598);
  }
}

TEST_F(UdrNfTest, CachedLocationStageHasNoSyncWindow) {
  UdrConfig cfg;
  cfg.location_kind = LocationKind::kCached;
  Build(cfg);
  clock_.AdvanceTo(Seconds(1));
  ASSERT_TRUE(udr_->CreateSubscriber(SpecFor("214", "+34600"), 0).ok());
  auto cluster = udr_->AddCluster(1);  // Second cluster at an existing site.
  ASSERT_TRUE(cluster.ok());
  // New cluster's stage can resolve immediately (via broadcast).
  auto r = (*cluster)->location_stage()->Resolve({IdentityType::kImsi, "214"},
                                                 clock_.Now());
  EXPECT_TRUE(r.status.ok());
  EXPECT_TRUE(r.cache_miss);
  EXPECT_EQ(udr_->metrics().HistOrEmpty("scaleout.sync_window_us").count(), 0);
}

// ---------------------------------------------------------------------------
// Capacity model (§3.5 figures)
// ---------------------------------------------------------------------------

TEST(CapacityModelTest, PaperFigures) {
  CapacityModel m;
  EXPECT_EQ(m.BytesPerSubscriber(), 100'000);  // 200 GB / 2e6.
  EXPECT_EQ(m.SubscribersPerCluster(), 32'000'000);
  EXPECT_EQ(m.SubscribersPerNf(), 512'000'000);
  EXPECT_EQ(m.LdapOpsPerClusterStrict(), 32'000'000);
  EXPECT_EQ(m.LdapOpsPerClusterPaper(), 36'000'000);
  EXPECT_EQ(m.LdapOpsPerNfPaper(), 9'216'000'000);
  EXPECT_NEAR(m.OpsPerSubscriberPaper(), 18.0, 0.01);
}

TEST_F(UdrNfTest, AggregateCapacityReflectsDeployment) {
  // 6 SEs x default 200 GiB, 6 LDAP servers x 1e6 ops/s.
  EXPECT_EQ(udr_->TotalLdapOpsPerSecond(), 6'000'000);
  int64_t capacity = udr_->TotalSubscriberCapacity(100 * 1000);
  EXPECT_GT(capacity, 6LL * 2'000'000);  // GiB vs GB rounding.
}

}  // namespace
}  // namespace udr::udrnf
