// E3 — the F-R link (Figure 5, §3.1): RAM-based storage vs resilience.
//
// Sweep the checkpoint period and compare:
//   * engine service time (checkpointing steals cycles: shorter period =>
//     slower engine, the "slightly slowed down" of §3.1);
//   * transactions lost when an SE crashes (shorter period => smaller loss
//     window);
//   * the footnote-6 extreme: force-to-disk-before-commit (wal-sync) loses
//     nothing but "would slow down storage elements too much".
//
// Commits take the data path's write path: ReplicaSet::Write on a
// single-copy replica set (one SE on a one-site network), so no peer holds
// the log suffix and the SE's durability model alone decides the loss.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "replication/replica_set.h"
#include "replication/write_builder.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "storage/storage_element.h"

using namespace udr;

namespace {

struct CrashTrial {
  int64_t committed = 0;
  int64_t lost = 0;
  MicroDuration loss_window = 0;
  MicroDuration write_cost = 0;
};

/// Writes at `rate` for `run_for`, crashes at a random point, reports loss.
CrashTrial RunCrashTrial(MicroDuration checkpoint_period, bool wal_sync,
                         double writes_per_sec, MicroDuration run_for,
                         uint64_t seed) {
  sim::SimClock clock;
  sim::Network network(sim::Topology(1), &clock);
  storage::StorageElementConfig cfg;
  cfg.checkpoint_period = checkpoint_period;
  cfg.wal_sync_commit = wal_sync;
  storage::StorageElement se(cfg, &clock);
  replication::ReplicaSet rs(replication::ReplicaSetConfig(), {&se}, &network);
  Rng rng(seed);

  MicroDuration gap = static_cast<MicroDuration>(1e6 / writes_per_sec);
  MicroTime crash_at =
      run_for / 2 + static_cast<MicroTime>(rng.Uniform(run_for / 2));

  CrashTrial trial;
  trial.write_cost = se.WriteServiceTime();
  while (clock.Now() + gap < crash_at) {
    clock.Advance(gap);
    const storage::RecordKey vlr_key = rng.Uniform(1000);
    const auto area = static_cast<int64_t>(rng.Uniform(100));
    const storage::RecordKey area_key = rng.Uniform(1000);
    replication::WriteBuilder wb;
    wb.Set(vlr_key, "serving-vlr", std::string("vlr"));
    wb.Set(area_key, "location-area", area);
    if (rs.Write(0, std::move(wb).Build()).status.ok()) ++trial.committed;
  }
  clock.AdvanceTo(crash_at);
  storage::CrashRecovery rec = se.LocalRecovery(rs.log(), clock.Now());
  trial.lost = rec.lost_transactions;
  trial.loss_window = rec.data_loss_window;
  return trial;
}

void PrintFrTables() {
  Table t("E3a: checkpoint period sweep (SE crash mid-run, 200 writes/s, "
          "10 min; avg of 5 trials)",
          {"checkpoint period", "write svc time", "committed", "lost txns",
           "loss window", "durable fraction"});
  const MicroDuration periods[] = {Seconds(10), Seconds(30), Minutes(1),
                                   Minutes(5), Minutes(15)};
  for (MicroDuration period : periods) {
    CrashTrial sum;
    for (uint64_t s = 0; s < 5; ++s) {
      CrashTrial tr = RunCrashTrial(period, false, 200, Minutes(10), 100 + s);
      sum.committed += tr.committed;
      sum.lost += tr.lost;
      sum.loss_window += tr.loss_window;
      sum.write_cost = tr.write_cost;
    }
    double durable = 1.0 - static_cast<double>(sum.lost) /
                               static_cast<double>(sum.committed);
    t.AddRow({FormatDuration(period), Table::Dur(sum.write_cost),
              Table::Num(sum.committed / 5), Table::Num(sum.lost / 5),
              Table::Dur(sum.loss_window / 5), Table::Pct(durable, 3)});
  }
  t.Print();

  // The wal-sync extreme (footnote 6).
  CrashTrial sync_trial = RunCrashTrial(Minutes(5), true, 200, Minutes(10), 7);
  CrashTrial async_trial = RunCrashTrial(Minutes(5), false, 200, Minutes(10), 7);
  Table t2("E3b: footnote-6 mode — dump transactions to disk before commit",
           {"mode", "write svc time", "lost txns", "note"});
  t2.AddRow({"periodic checkpoint (paper default)",
             Table::Dur(async_trial.write_cost), Table::Num(async_trial.lost),
             "loss window bounded by checkpoint period"});
  t2.AddRow({"wal-sync before commit", Table::Dur(sync_trial.write_cost),
             Table::Num(sync_trial.lost),
             "100% durable; F-R point slides too far to R"});
  t2.Print();

  Table t3("E3c: expected shape", {"check", "result"});
  std::vector<MicroDuration> windows;  // Seed 55, one per period.
  for (MicroDuration period : periods) {
    windows.push_back(
        RunCrashTrial(period, false, 200, Minutes(10), 55).loss_window);
  }
  t3.AddRow({"loss window never shrinks with the period; 15 min > 10 s "
             "(seed 55)",
             std::is_sorted(windows.begin(), windows.end()) &&
                     windows.back() > windows.front()
                 ? "PASS"
                 : "FAIL"});
  t3.AddRow({"wal-sync loses nothing",
             sync_trial.lost == 0 ? "PASS" : "FAIL"});
  t3.AddRow({"wal-sync write cost > 100x periodic",
             sync_trial.write_cost > 100 * async_trial.write_cost ? "PASS"
                                                                  : "FAIL"});
  t3.Print();
}

void BM_CommitPeriodicCheckpoint(benchmark::State& state) {
  sim::SimClock clock;
  sim::Network network(sim::Topology(1), &clock);
  storage::StorageElement se(storage::StorageElementConfig(), &clock);
  replication::ReplicaSet rs(replication::ReplicaSetConfig(), {&se}, &network);
  uint64_t i = 0;
  for (auto _ : state) {
    clock.Advance(1);
    replication::WriteBuilder wb;
    wb.Set(i % 1000, "a", static_cast<int64_t>(i));
    auto w = rs.Write(0, std::move(wb).Build());
    benchmark::DoNotOptimize(w);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitPeriodicCheckpoint);

}  // namespace

int main(int argc, char** argv) {
  PrintFrTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
