// Example: disaster recovery drill.
//
// Walks an operator through what the paper's durability choices mean when a
// storage element actually dies (§3.1, §3.3.1, §4.2, §5):
//   1. a slave SE fails — nobody notices (redundancy absorbs it);
//   2. the MASTER SE fails right after a commit — failover restores service
//      but the last acknowledged transactions are gone (async replication);
//   3. the same crash under dual-in-sequence commits — nothing is lost,
//      commits got slower;
//   4. local-disk checkpoint recovery of a standalone SE: everything after
//      the last checkpoint is lost unless a replica had it.
//
// Run: ./build/examples/disaster_recovery

#include <cstdio>

#include "replication/write_builder.h"
#include "telecom/front_end.h"
#include "telecom/provisioning.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

workload::TestbedOptions Options(replication::SyncMode mode) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = 10;
  o.pin_home_sites = true;
  o.udr.sync_mode = mode;
  return o;
}

/// Returns the premium-barring flag currently stored for subscriber 0.
std::string BarringOf(workload::Testbed& bed) {
  ldap::LdapRequest req;
  req.op = ldap::LdapOp::kSearch;
  req.dn = ldap::SubscriberDn("imsi", bed.factory().Make(0).imsi);
  req.master_only = true;
  auto r = bed.udr().Submit(req, 0);
  if (!r.ok() || r.entries.empty()) return "<unavailable>";
  auto v = r.entries[0].record.Get(telecom::attr::kOdbPremium);
  return v.has_value() ? storage::ValueToString(*v) : "<missing>";
}

}  // namespace

int main() {
  std::printf("=== Disaster recovery drill ===\n\n");

  // --- 1. Slave SE failure -----------------------------------------------------
  {
    workload::Testbed bed(Options(replication::SyncMode::kAsync));
    bed.clock().Advance(Seconds(1));
    bed.udr().CatchUpAllPartitions();
    auto loc = bed.udr().AuthoritativeLookup(bed.factory().Make(0).ImsiId());
    auto* rs = bed.udr().partition(loc->partition);
    rs->CrashReplica((rs->master_id() + 1) % 3);  // A slave copy dies.
    telecom::HlrFe fe(0, &bed.udr());
    auto r = fe.Authenticate(bed.factory().Make(0).ImsiId());
    std::printf("1. slave SE crash:    service %s (%s) — redundancy absorbed it\n",
                r.ok() ? "OK" : "LOST", FormatDuration(r.latency).c_str());
  }

  // --- 2. Master SE failure, async replication ---------------------------------
  {
    workload::Testbed bed(Options(replication::SyncMode::kAsync));
    bed.clock().Advance(Seconds(1));
    bed.udr().CatchUpAllPartitions();
    telecom::ProvisioningSystem ps({0, 0}, &bed.udr(), &bed.factory());
    (void)ps.SetPremiumBarring(0, true);  // Acknowledged to the operator!
    auto loc = bed.udr().AuthoritativeLookup(bed.factory().Make(0).ImsiId());
    auto* rs = bed.udr().partition(loc->partition);
    rs->CrashReplica(rs->master_id());    // Dies before shipping the entry.
    bed.clock().Advance(Seconds(10));     // Failover detection + promote.
    std::printf("2. master SE crash (ASYNC):    barring flag now '%s' — the\n"
                "   acknowledged write was lost in the failover (§3.3.1)\n",
                BarringOf(bed).c_str());
  }

  // --- 3. Same crash, dual-in-sequence -----------------------------------------
  {
    workload::Testbed bed(Options(replication::SyncMode::kDualSequence));
    bed.clock().Advance(Seconds(1));
    bed.udr().CatchUpAllPartitions();
    telecom::ProvisioningSystem ps({0, 0}, &bed.udr(), &bed.factory());
    auto w = ps.SetPremiumBarring(0, true);
    auto loc = bed.udr().AuthoritativeLookup(bed.factory().Make(0).ImsiId());
    auto* rs = bed.udr().partition(loc->partition);
    rs->CrashReplica(rs->master_id());
    bed.clock().Advance(Seconds(10));
    std::printf("3. master SE crash (DUAL-SEQ): barring flag now '%s' — the\n"
                "   commit had already reached a slave (cost: %s per write)\n",
                BarringOf(bed).c_str(), FormatDuration(w.latency).c_str());
  }

  // --- 4. Standalone SE: checkpoint recovery -----------------------------------
  {
    sim::SimClock clock;
    sim::Network network(sim::Topology(1), &clock);
    storage::StorageElementConfig cfg;
    cfg.name = "standalone-se";
    cfg.checkpoint_period = Minutes(5);
    storage::StorageElement se(cfg, &clock);
    // A single-copy partition: no peer can hold what the disk lacks.
    replication::ReplicaSet rs(replication::ReplicaSetConfig(), {&se},
                               &network);
    // Commits at t=1min (inside checkpoint 0..5min) and t=6min (after the
    // 5-min checkpoint).
    clock.AdvanceTo(Minutes(1));
    {
      replication::WriteBuilder wb;
      wb.Set(1, "cfu-number", std::string("+34911"));
      (void)rs.Write(0, std::move(wb).Build());
    }
    clock.AdvanceTo(Minutes(6));
    {
      replication::WriteBuilder wb;
      wb.Set(2, "cfu-number", std::string("+34922"));
      (void)rs.Write(0, std::move(wb).Build());
    }
    clock.AdvanceTo(Minutes(8));
    auto rec = se.LocalRecovery(rs.log(), clock.Now());
    // What the SE reloads from disk: the log prefix the checkpoint captured.
    storage::RecordStore disk;
    rs.log().ReplayRange(&disk, 0, rec.recovered_seq);
    std::printf("4. standalone SE crash at t=8min (checkpoint every 5min):\n"
                "   recovered to seq %llu of %llu — lost %lld txns spanning %s\n"
                "   record 1 (pre-checkpoint): %s, record 2 (post): %s\n",
                static_cast<unsigned long long>(rec.recovered_seq),
                static_cast<unsigned long long>(rec.last_seq_before_crash),
                static_cast<long long>(rec.lost_transactions),
                FormatDuration(rec.data_loss_window).c_str(),
                disk.Contains(1) ? "survived" : "lost",
                disk.Contains(2) ? "survived" : "lost");
  }

  std::printf("\ndone.\n");
  return 0;
}
