// Ablations over the paper's design decisions (DESIGN.md calls these out):
//   A1. replication factor: 2 vs 3 vs 5 copies — write latency (quorum),
//       read availability under one-site loss, RAM amplification;
//   A2. failover detection timeout: write-unavailability window after a
//       master crash;
//   A4. replication strategy head-to-head: master/slave async (CP and AP)
//       vs QUORUM — write availability through a partition where the master
//       sits on the minority side, plus loss on crash.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/table.h"
#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

// ---------------------------------------------------------------------------
// A1: replication factor
// ---------------------------------------------------------------------------

void PrintReplicationFactorTable() {
  Table t("ABL-1: replication factor (quorum commits, 5 sites)",
          {"copies", "quorum write latency", "survives one-site loss",
           "RAM amplification"});
  for (int factor : {2, 3, 5}) {
    sim::SimClock clock;
    auto network = std::make_unique<sim::Network>(sim::Topology(5), &clock);
    std::vector<std::unique_ptr<storage::StorageElement>> ses;
    std::vector<storage::StorageElement*> ptrs;
    for (int s = 0; s < factor; ++s) {
      storage::StorageElementConfig cfg;
      cfg.site = static_cast<sim::SiteId>(s);
      ses.push_back(std::make_unique<storage::StorageElement>(
          cfg, &clock, static_cast<uint32_t>(s)));
      ptrs.push_back(ses.back().get());
    }
    replication::ReplicaSetConfig cfg;
    cfg.sync_mode = replication::SyncMode::kQuorum;
    replication::ReplicaSet rs(cfg, ptrs, network.get());
    clock.AdvanceTo(Seconds(1));
    replication::WriteBuilder wb;
    wb.Set(1, "v", int64_t{1});
    auto w = rs.Write(0, std::move(wb).Build());
    bool survives = factor >= 3;  // Majority still exists with 1 site gone.
    t.AddRow({Table::Num(factor), Table::Dur(w.latency),
              survives ? "yes" : "NO (majority = all)",
              Table::Dbl(static_cast<double>(factor), 0) + "x"});
  }
  t.Print();
}

// ---------------------------------------------------------------------------
// A2: failover detection timeout
// ---------------------------------------------------------------------------

void PrintFailoverTimeoutTable() {
  Table t("ABL-2: failover detection timeout vs write-unavailability window "
          "after a master SE crash (writes every 100ms)",
          {"detection timeout", "writes rejected", "unavailability window"});
  for (MicroDuration detect : {Seconds(1), Seconds(5), Seconds(30)}) {
    sim::SimClock clock;
    auto network = std::make_unique<sim::Network>(sim::Topology(3), &clock);
    std::vector<std::unique_ptr<storage::StorageElement>> ses;
    std::vector<storage::StorageElement*> ptrs;
    for (int s = 0; s < 3; ++s) {
      storage::StorageElementConfig cfg;
      cfg.site = static_cast<sim::SiteId>(s);
      ses.push_back(std::make_unique<storage::StorageElement>(
          cfg, &clock, static_cast<uint32_t>(s)));
      ptrs.push_back(ses.back().get());
    }
    replication::ReplicaSetConfig cfg;
    cfg.failover_detection = detect;
    replication::ReplicaSet rs(cfg, ptrs, network.get());
    clock.AdvanceTo(Seconds(1));
    replication::WriteBuilder seed;
    seed.Set(1, "v", int64_t{0});
    rs.Write(0, std::move(seed).Build());
    clock.Advance(Seconds(1));
    rs.CatchUpAll();
    rs.CrashReplica(rs.master_id());
    MicroTime crash = clock.Now();
    int64_t rejected = 0;
    MicroTime first_ok = 0;
    for (int i = 0; i < 1000; ++i) {
      clock.Advance(Millis(100));
      replication::WriteBuilder wb;
      wb.Set(1, "v", static_cast<int64_t>(i));
      auto w = rs.Write(1, std::move(wb).Build());
      if (w.status.ok()) {
        first_ok = clock.Now();
        break;
      }
      ++rejected;
    }
    t.AddRow({FormatDuration(detect), Table::Num(rejected),
              Table::Dur(first_ok - crash)});
  }
  t.Print();
}

// ---------------------------------------------------------------------------
// A4: replication strategy head-to-head
// ---------------------------------------------------------------------------

struct StrategyResult {
  double write_availability = 0;
  int64_t lost_on_crash = 0;
  MicroDuration steady_latency = 0;
};

StrategyResult RunMasterSlave(replication::PartitionMode pmode,
                              replication::SyncMode smode) {
  sim::SimClock clock;
  auto network = std::make_unique<sim::Network>(sim::Topology(3), &clock);
  std::vector<std::unique_ptr<storage::StorageElement>> ses;
  std::vector<storage::StorageElement*> ptrs;
  for (int s = 0; s < 3; ++s) {
    storage::StorageElementConfig cfg;
    cfg.site = static_cast<sim::SiteId>(s);
    ses.push_back(std::make_unique<storage::StorageElement>(
        cfg, &clock, static_cast<uint32_t>(s)));
    ptrs.push_back(ses.back().get());
  }
  replication::ReplicaSetConfig cfg;
  cfg.partition_mode = pmode;
  cfg.sync_mode = smode;
  cfg.async_ship_delay = Millis(10);
  replication::ReplicaSet rs(cfg, ptrs, network.get());
  StrategyResult out;
  clock.AdvanceTo(Seconds(1));
  {
    replication::WriteBuilder wb;
    wb.Set(1, "v", int64_t{0});
    out.steady_latency = rs.Write(0, std::move(wb).Build()).latency;
  }
  // Master's site isolated for 60s; writes arrive at site 1 every 100ms.
  network->partitions().IsolateSite(0, 3, clock.Now(),
                                    clock.Now() + Seconds(60));
  int64_t ok = 0, total = 0;
  for (int i = 0; i < 600; ++i) {
    clock.Advance(Millis(100));
    replication::WriteBuilder wb;
    wb.Set(1 + i % 10, "v", static_cast<int64_t>(i));
    if (rs.Write(1, std::move(wb).Build()).status.ok()) ++ok;
    ++total;
  }
  out.write_availability = static_cast<double>(ok) / total;
  // Crash-loss probe: fresh commits then master crash.
  clock.Advance(Seconds(60));
  for (int i = 0; i < 10; ++i) {
    replication::WriteBuilder wb;
    wb.Set(50, "v", static_cast<int64_t>(i));
    rs.Write(rs.master_site(), std::move(wb).Build());
  }
  rs.CrashReplica(rs.master_id());
  clock.Advance(Seconds(10));
  auto fo = rs.FailOver();
  if (fo.ok()) out.lost_on_crash = fo->lost_transactions;
  return out;
}

void PrintStrategyTable() {
  Table t("ABL-4: replication strategy head-to-head (master site isolated "
          "60s, writes from the surviving side)",
          {"strategy", "steady write latency", "write avail during cut",
           "acked txns lost on crash"});
  auto cp = RunMasterSlave(replication::PartitionMode::kPreferConsistency,
                           replication::SyncMode::kAsync);
  t.AddRow({"master/slave async, CP (paper)", Table::Dur(cp.steady_latency),
            Table::Pct(cp.write_availability, 1), Table::Num(cp.lost_on_crash)});
  auto ap = RunMasterSlave(replication::PartitionMode::kPreferAvailability,
                           replication::SyncMode::kAsync);
  t.AddRow({"master/slave async, AP (§5)", Table::Dur(ap.steady_latency),
            Table::Pct(ap.write_availability, 1),
            Table::Num(ap.lost_on_crash) + " (+divergence)"});
  auto qr = RunMasterSlave(replication::PartitionMode::kPreferConsistency,
                           replication::SyncMode::kQuorum);
  t.AddRow({"master/slave quorum", Table::Dur(qr.steady_latency),
            Table::Pct(qr.write_availability, 1), Table::Num(qr.lost_on_crash)});
  t.Print();

  Table t2("ABL-4 expected shape", {"check", "result"});
  t2.AddRow({"CP loses write availability during the cut",
             cp.write_availability < 0.5 ? "PASS" : "FAIL"});
  t2.AddRow({"quorum loses no acked write on master crash",
             qr.lost_on_crash == 0 ? "PASS" : "FAIL"});
  t2.AddRow({"AP keeps writing during the cut",
             ap.write_availability > 0.9 ? "PASS" : "FAIL"});
  t2.Print();
}

}  // namespace

int main(int argc, char** argv) {
  PrintReplicationFactorTable();
  PrintFailoverTimeoutTable();
  PrintStrategyTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
