// The benchmark's three workloads: how each one is set up, driven through the
// simulator's own entry points (workload::RunTraffic, scenario::Engine::Run,
// exec::ShardRuntime) and checked, plus the state the traced run replays on.

#ifndef UDR_PERFBENCH_WORKLOADS_H_
#define UDR_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "exec/shard_runtime.h"
#include "scenario/engine.h"
#include "telecom/subscriber.h"
#include "udr/udr_nf.h"
#include "workload/testbed.h"

namespace perfbench {

// fe_reads: the paper's dominant FE read traffic on a population far larger
// than the last-level cache.
constexpr int64_t kFeSubscribers = 100000;
constexpr int64_t kFeSimSeconds = 60;
constexpr double kFeRate = 2000.0;
constexpr double kFePsRate = 50.0;

// storm_mix: write-dominated attach storm with a partition, a heal and a
// throttled rebalance on a Zipf-skewed population that fits in cache.
constexpr int64_t kStormSubscribers = 20000;
constexpr int64_t kStormSimSeconds = 30;
constexpr double kStormFeRate = 300.0;
constexpr double kStormPsRate = 200.0;
constexpr int kStormEventsPerTick = 8;
constexpr double kStormZipf = 0.99;

// sharded_rw: the threaded runtime, 3 worker shards behind SPSC rings.
constexpr int kShards = 3;
constexpr int64_t kShardSubscribers = 40000;
constexpr int64_t kShardOps = 1500000;
constexpr double kShardWriteShare = 0.3;
constexpr int kShardBatchOps = 8;

/// Outcome of one end-to-end run: host timings, memory, the modelled
/// outputs and the output checks.
struct EndToEnd {
  std::string workload;
  uint64_t seed = 0;
  double setup_s = 0.0;
  double catchup_s = 0.0;  ///< Lazy replica catch-up share of setup_s.
  double timed_s = 0.0;
  int64_t subscribers = 0;
  int64_t rss_growth_b = 0;  ///< Resident-set growth across setup.
  int64_t ldap_ops = 0;      ///< LDAP ops (ShardOps) in the timed phase.
  int64_t attempted = 0;     ///< Procedures (ShardOps) attempted.
  int64_t failed = 0;
  int64_t model_n = 0;
  double model_p50_us = 0.0;
  double model_p99_us = 0.0;
  int64_t stale = 0;           ///< Stale FE procedures (stale reads).
  int64_t stale_base = 0;      ///< FE procedures attempted (reads served).
  std::string digest_text;     ///< Deterministic modelled outputs.
  std::vector<std::string> check_failures;

  double ops_per_s() const { return timed_s > 0 ? ldap_ops / timed_s : 0.0; }
  double rss_per_sub_b() const {
    return subscribers > 0 ? static_cast<double>(rss_growth_b) / subscribers
                           : 0.0;
  }
};

/// Everything one workload built, kept alive for the traced replay.
struct LiveBed {
  std::unique_ptr<udr::workload::Testbed> bed;        ///< fe_reads.
  std::unique_ptr<udr::scenario::Engine> engine;      ///< storm_mix.
  std::unique_ptr<udr::exec::ShardRuntime> runtime;   ///< sharded_rw.
  std::unique_ptr<udr::telecom::SubscriberFactory> shard_factory;

  /// Merged view of the program's metric registries after the run.
  udr::Metrics registry;
  /// Every UdrNf the run used (one per shard in sharded_rw).
  std::vector<udr::udrnf::UdrNf*> udrs;
};

/// A sharded op stream, stamped with per-subscriber sequence numbers and cut
/// into per-shard handoff batches before anything is timed.
struct ShardPlan {
  std::vector<std::pair<int, udr::exec::ShardBatch>> handoffs;
  std::vector<uint64_t> last_write;  ///< Seq the master copy must end on.
};

/// `ops` reads/writes over [0, population), uniform (zipf_theta 0) or
/// Zipf-skewed, batched kShardBatchOps per handoff.
ShardPlan PlanShardOps(const udr::exec::ShardRuntime& runtime,
                       int64_t population, int64_t ops, double write_share,
                       double zipf_theta, uint64_t seed);

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds, runs and checks one workload. With `live` set, the deployment
/// stays alive for the traced replay.
EndToEnd RunEndToEnd(const std::string& workload, uint64_t seed,
                     LiveBed* live);

}  // namespace perfbench

#endif  // UDR_PERFBENCH_WORKLOADS_H_
