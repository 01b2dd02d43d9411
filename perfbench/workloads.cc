#include "workloads.h"

#include <sstream>
#include <utility>

#include "common.h"
#include "common/rng.h"
#include "workload/traffic.h"
#include "workload/zipf.h"

namespace perfbench {

namespace {

using udr::Histogram;
using udr::workload::ClassStats;

void AppendClass(std::ostringstream& out, const char* name,
                 const ClassStats& c) {
  out << name << " attempted=" << c.attempted << " ok=" << c.ok
      << " failed=" << c.failed << " ldap_ops=" << c.ldap_ops
      << " stale=" << c.stale_procedures << " n=" << c.latency.count()
      << " sum=" << c.latency.sum() << " p50=" << c.latency.P50()
      << " p99=" << c.latency.P99() << " p999=" << c.latency.P999()
      << " max=" << c.latency.max() << "\n";
}

/// Fills the modelled FE latency fields from a procedure histogram.
void SetModelLatency(const Histogram& h, EndToEnd* r) {
  r->model_n = h.count();
  r->model_p50_us = static_cast<double>(h.P50());
  r->model_p99_us = static_cast<double>(h.P99());
}

/// The deployment shape both single-threaded workloads share: three sites,
/// RF 3, 2 SEs per cluster, 2 partitions per SE, subscribers pinned to
/// their home sites, FE reads allowed on slave copies.
udr::workload::TestbedOptions BaseBed(uint64_t seed, int64_t subscribers) {
  udr::workload::TestbedOptions o;
  o.sites = 3;
  o.seed = seed;
  o.subscribers = subscribers;
  o.pin_home_sites = true;
  o.udr.replication_factor = 3;
  o.udr.se_per_cluster = 2;
  o.udr.partitions_per_se = 2;
  o.udr.fe_slave_reads = true;
  return o;
}

/// Lazy replica catch-up: lets every shipped log entry arrive, then applies
/// it on every slave copy (what exec::Shard::Provision does for a shard).
void CatchUp(udr::workload::Testbed& bed) {
  bed.clock().Advance(udr::Seconds(1));
  bed.udr().CatchUpAllPartitions();
}

EndToEnd RunFeReads(uint64_t seed, LiveBed* live) {
  EndToEnd r;
  const int64_t rss0 = RssBytes();
  const int64_t t0 = NowNs();
  auto bed = std::make_unique<udr::workload::Testbed>(BaseBed(seed, 0));
  const int64_t created = bed->ProvisionDirect(0, kFeSubscribers);
  const int64_t t1 = NowNs();
  CatchUp(*bed);
  const int64_t t2 = NowNs();
  r.setup_s = (t2 - t0) / 1e9;
  r.catchup_s = (t2 - t1) / 1e9;
  r.subscribers = created;
  r.rss_growth_b = RssBytes() - rss0;
  if (created != kFeSubscribers) {
    r.check_failures.push_back("provisioned " + std::to_string(created) +
                               " of " + std::to_string(kFeSubscribers));
  }

  udr::workload::TrafficOptions t;
  t.duration = udr::Seconds(kFeSimSeconds);
  t.fe_rate_per_sec = kFeRate;
  t.ps_rate_per_sec = kFePsRate;
  t.ims_fraction = 0.15;
  t.roaming_fraction = 0.05;
  t.subscriber_count = kFeSubscribers;
  t.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  const int64_t t3 = NowNs();
  udr::workload::TrafficReport rep = udr::workload::RunTraffic(*bed, t);
  const int64_t t4 = NowNs();
  r.timed_s = (t4 - t3) / 1e9;

  ClassStats fe = rep.FeAll();
  r.ldap_ops = fe.ldap_ops + rep.ps.ldap_ops;
  r.attempted = fe.attempted + rep.ps.attempted;
  r.failed = fe.failed + rep.ps.failed;
  r.stale = fe.stale_procedures;
  r.stale_base = fe.attempted;
  SetModelLatency(fe.latency, &r);
  if (r.failed != 0) {
    r.check_failures.push_back(std::to_string(r.failed) +
                               " failed procedures");
  }
  std::ostringstream digest;
  AppendClass(digest, "fe.read", rep.fe_read);
  AppendClass(digest, "fe.write", rep.fe_write);
  AppendClass(digest, "ps", rep.ps);
  r.digest_text = digest.str();

  if (live != nullptr) {
    live->registry.MergeFrom(bed->udr().metrics());
    live->udrs = {&bed->udr()};
    live->bed = std::move(bed);
  }
  return r;
}

udr::scenario::ScenarioSpec StormSpec(uint64_t seed) {
  using udr::Micros;
  using udr::Millis;
  using udr::Seconds;
  using udr::scenario::SloCheck;
  using udr::scenario::SloKind;
  udr::scenario::ScenarioSpec spec;
  spec.name = "storm_mix";
  spec.testbed = BaseBed(seed, kStormSubscribers);
  auto& u = spec.testbed.udr;
  u.coalesce_window_us = Micros(200);
  u.coalesce_max_ops = 64;
  u.partition_mode = udr::replication::PartitionMode::kPreferAvailability;
  u.merge_policy = udr::replication::MergePolicy::kFieldMergeLww;
  u.rebalance_weight = udr::routing::RebalanceWeight::kPopulation;
  u.migration_bandwidth_bps = 4 * 1024 * 1024;
  u.migration_chunk_bytes = 32 * 1024;
  spec.duration = Seconds(kStormSimSeconds);
  spec.fe_rate_per_sec = kStormFeRate;
  spec.ps_rate_per_sec = kStormPsRate;
  spec.ims_fraction = 0.15;
  spec.zipf_theta = kStormZipf;
  spec.ps_site = 0;
  // The storm covers most of the horizon. Sites 1 and 2 lose each other for
  // two seconds: log shipping between them stalls and the heal catches the
  // copies up. Site 0, where the PS runs, keeps both links and FE
  // procedures are served at their home sites, so every procedure still
  // reaches its master and none is refused. The rebalance onto a scaled-out
  // cluster runs after the heal.
  spec.script.AttachStorm(Seconds(1), Seconds(kStormSimSeconds - 2),
                          kStormEventsPerTick);
  spec.script.PartitionLink(Seconds(3), Seconds(5), {1}, {2});
  spec.script.HealLink(Seconds(5) + Millis(50));
  spec.script.ScaleOut(Seconds(6), 2);
  spec.script.StartRebalance(Seconds(6) + Millis(500));
  const udr::MicroTime at = spec.duration + Millis(1);
  spec.script.AssertSlo(
      at, SloCheck{SloKind::kZeroAckedWriteLoss, "zero-acked-write-loss", 0, -1});
  spec.script.AssertSlo(at,
                        SloCheck{SloKind::kPerKeyOrder, "per-key-order", 0, -1});
  spec.script.AssertSlo(at,
                        SloCheck{SloKind::kPsStaleZero, "ps-stale-zero", 0, -1});
  spec.script.AssertSlo(at, SloCheck{SloKind::kConverged, "converged", 0, -1});
  spec.script.AssertSlo(
      at, SloCheck{SloKind::kMigrationComplete, "migration-complete", 0, -1});
  return spec;
}

EndToEnd RunStormMix(uint64_t seed, LiveBed* live) {
  EndToEnd r;
  const udr::scenario::ScenarioSpec spec = StormSpec(seed);
  const int64_t rss0 = RssBytes();
  const int64_t t0 = NowNs();
  auto engine = std::make_unique<udr::scenario::Engine>(spec);
  const int64_t t1 = NowNs();
  CatchUp(engine->testbed());
  const int64_t t2 = NowNs();
  r.setup_s = (t2 - t0) / 1e9;
  r.catchup_s = (t2 - t1) / 1e9;
  r.subscribers = engine->testbed().udr().SubscriberCount();
  r.rss_growth_b = RssBytes() - rss0;
  if (r.subscribers != kStormSubscribers) {
    r.check_failures.push_back("provisioned " + std::to_string(r.subscribers) +
                               " of " + std::to_string(kStormSubscribers));
  }

  const int64_t t3 = NowNs();
  udr::scenario::ScenarioReport rep = engine->Run();
  const int64_t t4 = NowNs();
  r.timed_s = (t4 - t3) / 1e9;

  ClassStats fe = rep.stats.FeAll();
  r.ldap_ops = fe.ldap_ops + rep.stats.ps.ldap_ops;
  r.attempted = fe.attempted + rep.stats.ps.attempted;
  r.failed = fe.failed + rep.stats.ps.failed;
  r.stale = fe.stale_procedures;
  r.stale_base = fe.attempted;
  SetModelLatency(fe.latency, &r);
  if (r.failed != 0) {
    r.check_failures.push_back(std::to_string(r.failed) +
                               " failed procedures");
  }
  if (rep.audit.lost_writes != 0 || rep.audit.unreadable != 0) {
    r.check_failures.push_back(
        "audit: lost=" + std::to_string(rep.audit.lost_writes) +
        " unreadable=" + std::to_string(rep.audit.unreadable));
  }
  if (rep.audit.order_violations != 0) {
    r.check_failures.push_back("audit: order_violations=" +
                               std::to_string(rep.audit.order_violations));
  }
  for (const auto& slo : rep.slos) {
    if (!slo.pass) {
      r.check_failures.push_back("slo " + slo.check.label + " failed (actual " +
                                 std::to_string(slo.actual) + ")");
    }
  }
  if (!rep.Passed()) r.check_failures.push_back("scenario did not pass");
  r.digest_text = rep.Serialize();

  if (live != nullptr) {
    live->registry.MergeFrom(engine->testbed().udr().metrics());
    live->udrs = {&engine->testbed().udr()};
    live->engine = std::move(engine);
  }
  return r;
}

EndToEnd RunShardedRw(uint64_t seed, LiveBed* live) {
  EndToEnd r;
  udr::exec::ShardRuntimeOptions ro;
  ro.num_shards = kShards;
  ro.shard.total_subscribers = kShardSubscribers;
  ro.shard.seed = seed;
  auto runtime = std::make_unique<udr::exec::ShardRuntime>(ro);

  ShardPlan plan = PlanShardOps(*runtime, kShardSubscribers, kShardOps,
                                kShardWriteShare, 0.0, seed);

  const int64_t rss0 = RssBytes();
  const int64_t t0 = NowNs();
  runtime->Start();
  const int64_t t1 = NowNs();
  r.setup_s = (t1 - t0) / 1e9;
  r.rss_growth_b = RssBytes() - rss0;

  const int64_t t2 = NowNs();
  for (auto& [shard, batch] : plan.handoffs) {
    runtime->Submit(std::move(batch), shard);
  }
  const udr::exec::ShardRuntimeReport& rep = runtime->Finish();
  const int64_t t3 = NowNs();
  r.timed_s = (t3 - t2) / 1e9;

  int64_t provisioned = 0;
  for (const auto& s : rep.shards) provisioned += s.provisioned;
  r.subscribers = provisioned;
  r.ldap_ops = rep.ops_done;
  r.attempted = rep.ops_submitted;
  r.failed = rep.ops_failed;

  int64_t seq_mismatches = 0;
  for (int64_t sub = 0; sub < kShardSubscribers; ++sub) {
    const uint64_t expected = plan.last_write[sub];
    if (expected == 0) continue;
    auto stored = runtime->shard(runtime->ShardOf(sub)).ReadSeq(sub);
    if (!stored || static_cast<uint64_t>(*stored) != expected) {
      ++seq_mismatches;
    }
  }
  if (provisioned != kShardSubscribers) {
    r.check_failures.push_back("provisioned " + std::to_string(provisioned) +
                               " of " + std::to_string(kShardSubscribers));
  }
  if (rep.ops_done != kShardOps) {
    r.check_failures.push_back("ops done " + std::to_string(rep.ops_done));
  }
  if (rep.order_violations != 0) {
    r.check_failures.push_back("order_violations=" +
                               std::to_string(rep.order_violations));
  }
  if (seq_mismatches != 0) {
    r.check_failures.push_back("seq_mismatches=" +
                               std::to_string(seq_mismatches));
  }
  if (rep.ops_failed != 0) {
    r.check_failures.push_back("ops_failed=" + std::to_string(rep.ops_failed));
  }

  // The sharded runtime exposes no per-op latency; its modelled latency is
  // the dispatch-window queueing delay of each handoff batch.
  udr::Metrics merged;
  runtime->MergeMetricsInto(&merged);
  SetModelLatency(merged.HistOrEmpty("coalescer.queue_delay_us"), &r);
  int64_t stale = 0;
  int64_t served = 0;
  for (int i = 0; i < kShards; ++i) {
    udr::udrnf::UdrNf& u = runtime->shard(i).udr();
    for (size_t p = 0; p < u.partition_count(); ++p) {
      stale += u.partition(static_cast<uint32_t>(p))->stale_reads();
      served += u.partition(static_cast<uint32_t>(p))->reads_served();
    }
  }
  r.stale = stale;
  r.stale_base = served;

  std::ostringstream digest;
  digest << "submitted=" << rep.ops_submitted << " done=" << rep.ops_done
         << " failed=" << rep.ops_failed << "\n";
  for (const auto& s : rep.shards) {
    digest << "shard ops=" << s.ops << " ok=" << s.ok << " batches="
           << s.batches << " provisioned=" << s.provisioned << "\n";
  }
  digest << merged.Dump();
  r.digest_text = digest.str();

  if (live != nullptr) {
    live->registry.MergeFrom(merged);
    for (int i = 0; i < kShards; ++i) {
      live->udrs.push_back(&runtime->shard(i).udr());
    }
    live->shard_factory =
        std::make_unique<udr::telecom::SubscriberFactory>(seed);
    live->runtime = std::move(runtime);
  }
  return r;
}

}  // namespace

ShardPlan PlanShardOps(const udr::exec::ShardRuntime& runtime,
                       int64_t population, int64_t ops, double write_share,
                       double zipf_theta, uint64_t seed) {
  ShardPlan plan;
  std::vector<uint64_t> next_seq(population, 0);
  plan.last_write.assign(population, 0);
  std::vector<udr::exec::ShardBatch> open(kShards);
  udr::Rng rng(seed ^ 0x5ca1ab1eULL);
  udr::workload::ZipfGenerator pick(static_cast<uint64_t>(population),
                                    zipf_theta);
  for (int64_t i = 0; i < ops; ++i) {
    udr::exec::ShardOp op;
    op.subscriber = pick.Next(rng);
    op.seq = ++next_seq[op.subscriber];
    op.write = rng.NextDouble() < write_share;
    if (op.write) plan.last_write[op.subscriber] = op.seq;
    const int shard = runtime.ShardOf(op.subscriber);
    open[shard].ops.push_back(op);
    if (open[shard].ops.size() >= static_cast<size_t>(kShardBatchOps)) {
      plan.handoffs.emplace_back(shard, std::move(open[shard]));
      open[shard] = udr::exec::ShardBatch{};
    }
  }
  for (int shard = 0; shard < kShards; ++shard) {
    if (!open[shard].ops.empty()) {
      plan.handoffs.emplace_back(shard, std::move(open[shard]));
    }
  }
  return plan;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fe_reads", "storm_mix",
                                                  "sharded_rw"};
  return kNames;
}

EndToEnd RunEndToEnd(const std::string& workload, uint64_t seed,
                     LiveBed* live) {
  EndToEnd r;
  if (workload == "fe_reads") {
    r = RunFeReads(seed, live);
  } else if (workload == "storm_mix") {
    r = RunStormMix(seed, live);
  } else {
    r = RunShardedRw(seed, live);
  }
  r.workload = workload;
  r.seed = seed;
  return r;
}

}  // namespace perfbench
