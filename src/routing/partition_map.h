// PartitionMap: the authoritative partition layer of the UDR data path.
//
// It owns what used to be scattered through the UdrNf god-object:
//   * the registry of storage elements (with cluster affinity and
//     secondary-copy load, the inputs to replica placement);
//   * the partition -> replica-set assignment, including commissioning new
//     partitions with geographically disperse secondary copies (§3.1
//     decision 2) and per-partition subscriber population accounting;
//   * key -> partition resolution via a consistent-hash ring with virtual
//     nodes (shared HashRing primitive), so hash-routed lookups move only
//     ~K/N keys when the map grows by one partition;
//   * live rebalancing: after a scale-out adds storage elements, Rebalance()
//     migrates primary copies onto them through the commit-log resync
//     machinery (replication::ReplicaSet::MigratePrimaryTo) until the
//     per-SE primary-count spread is <= 1, losing no acknowledged write.

#ifndef UDR_ROUTING_PARTITION_MAP_H_
#define UDR_ROUTING_PARTITION_MAP_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/hash_ring.h"
#include "common/status.h"
#include "common/time.h"
#include "location/identity.h"
#include "replication/replica_set.h"
#include "sim/network.h"
#include "storage/storage_element.h"

namespace udr::routing {

/// What Rebalance() balances across storage elements.
enum class RebalanceWeight {
  kPrimaryCount,  ///< Primary copies hosted per SE (spread <= 1).
  kPopulation,    ///< Subscriber population primary-hosted per SE.
};

/// Static configuration of the partition layer.
struct PartitionMapConfig {
  /// Copies per partition (1 primary + N-1 secondaries).
  int replication_factor = 3;
  /// Partitions commissioned per storage element. Values > 1 give the
  /// rebalancer finer-grained units to move on scale-out.
  int partitions_per_se = 1;
  /// Ring smoothness for key -> partition hashing.
  int vnodes_per_partition = 64;
  /// Balancing criterion for Rebalance(). Population weighting uses the
  /// per-partition subscriber accounting, so SEs end up with similar served
  /// populations even when partitions are unevenly filled.
  RebalanceWeight rebalance_weight = RebalanceWeight::kPrimaryCount;
  /// Template for every partition's replica set; `name` is overridden with
  /// "partition-<id>" per partition.
  replication::ReplicaSetConfig replica_template;
};

/// One registered storage element and its placement bookkeeping.
struct SeInfo {
  storage::StorageElement* se = nullptr;
  uint32_t cluster = 0;
  int secondary_load = 0;  ///< Secondary copies hosted (placement input).
  /// Commissioning-quota marker: partitions this SE was given as primary,
  /// whether commissioned here or received through rebalancing. Never
  /// decremented — a donor SE keeps its quota so Commission() does not
  /// re-create partitions on SEs a rebalance drained.
  int commissioned = 0;
};

/// One primary-copy move performed by Rebalance().
struct PartitionMove {
  uint32_t partition = 0;
  sim::SiteId from_site = 0;
  sim::SiteId to_site = 0;
  replication::MigrationReport migration;
};

/// One move of a rebalancing *plan*: computed against current state without
/// executing anything. PlanRebalance() is the single placement brain — the
/// inline Rebalance() pass and the background migration scheduler both
/// execute deltas it produced, so repeated planning over a balanced (or
/// already-planned) map is a stable no-op instead of a from-scratch
/// recomputation.
struct PlannedPrimaryMove {
  uint32_t partition = 0;
  int from_se = -1;  ///< Registry index of the current primary's SE.
  int to_se = -1;    ///< Registry index of the receiving SE.
};

/// Aggregate outcome of a rebalancing pass.
struct RebalanceReport {
  std::vector<PartitionMove> moves;
  int spread_before = 0;  ///< max-min primaries per SE before the pass.
  int spread_after = 0;
  int64_t population_spread_before = 0;  ///< max-min population per SE.
  int64_t population_spread_after = 0;
  int64_t entries_replayed = 0;
  int64_t bytes_moved = 0;
  MicroDuration duration = 0;  ///< Modelled total migration time.
};

class PartitionMap {
 public:
  PartitionMap(PartitionMapConfig config, sim::Network* network);

  const PartitionMapConfig& config() const { return config_; }

  // -- Storage-element registry -----------------------------------------------

  void RegisterStorageElement(storage::StorageElement* se, uint32_t cluster);
  size_t se_count() const { return ses_.size(); }
  const SeInfo& se_info(size_t idx) const { return ses_[idx]; }
  /// Registry index of an SE; -1 when unknown.
  int IndexOfSe(const storage::StorageElement* se) const;

  // -- Commissioning -----------------------------------------------------------

  /// Creates replica sets until every registered SE primary-hosts
  /// `partitions_per_se` partitions, picking geographically disperse,
  /// least-loaded secondaries. Idempotent; called lazily by the data path.
  void Commission();

  // -- Partition access --------------------------------------------------------

  size_t partition_count() const { return partitions_.size(); }
  replication::ReplicaSet* partition(uint32_t id) {
    return partitions_[id].get();
  }
  const replication::ReplicaSet* partition(uint32_t id) const {
    return partitions_[id].get();
  }
  /// SE currently holding the partition's primary copy (tracks failovers and
  /// migrations, since it reads the live replica-set state).
  storage::StorageElement* primary_se(uint32_t id) {
    return partitions_[id]->replica_se(partitions_[id]->master_id());
  }
  sim::SiteId master_site(uint32_t id) const {
    return partitions_[id]->master_site();
  }

  // -- Population accounting ---------------------------------------------------

  int64_t population(uint32_t id) const { return population_[id]; }
  void AddPopulation(uint32_t id, int64_t delta) { population_[id] += delta; }

  // -- Key -> partition resolution ---------------------------------------------

  /// Ring owner of a pre-hashed key. Requires a commissioned map.
  uint32_t PartitionOfKey(uint64_t hash) const { return ring_.NodeOfHash(hash); }
  uint32_t PartitionOfIdentity(const location::Identity& id) const;

  // -- Rebalancing -------------------------------------------------------------

  /// Primary copies hosted per registered SE, from live replica-set state.
  std::vector<int> PrimariesPerSe() const;
  /// max - min of PrimariesPerSe() (0 for an empty map).
  int PrimarySpread() const;
  /// Subscriber population primary-hosted per registered SE.
  std::vector<int64_t> PopulationPerSe() const;
  /// max - min of PopulationPerSe() (0 for an empty map).
  int64_t PopulationSpread() const;

  /// Computes the ordered delta that balances the map under the configured
  /// weight — primary-count spread <= 1 (kPrimaryCount) or no population-
  /// improving move left (kPopulation) — without touching any state.
  /// Deterministic: the same map state always yields the same plan, and a
  /// balanced map yields an empty one.
  std::vector<PlannedPrimaryMove> PlanRebalance() const;

  /// Executes PlanRebalance() inline: migrates each planned primary copy via
  /// the commit-log handoff machinery. Planned handoffs ship the full commit
  /// log before switching ownership, so no acknowledged write is lost.
  StatusOr<RebalanceReport> Rebalance();

  /// Post-cutover bookkeeping for an externally executed primary move (the
  /// background migration scheduler performs the chunked handoff itself and
  /// reports it here): secondary-load accounting and the commissioning-quota
  /// transfer that keeps a later lazy Commission() off drained SEs.
  void NotePrimaryMoved(uint32_t partition, int from_se, int to_se,
                        const replication::MigrationReport& migration);

  // -- Maintenance fan-out -----------------------------------------------------

  void CatchUpAll();
  replication::RestorationReport RestoreAll();

 private:
  /// Migrates partition `partition`'s primary copy onto SE `to_idx`,
  /// recording the move and bookkeeping into `report`.
  Status MovePrimary(size_t partition, size_t to_idx, RebalanceReport* report);

  /// One greedy planning pass per weight mode, simulated over `owner`
  /// (partition -> SE registry index); both append to `plan`.
  void PlanByPrimaryCount(std::vector<int>* owner,
                          std::vector<PlannedPrimaryMove>* plan) const;
  void PlanByPopulation(std::vector<int>* owner,
                        std::vector<PlannedPrimaryMove>* plan) const;

  PartitionMapConfig config_;
  sim::Network* network_;
  std::vector<SeInfo> ses_;
  std::unordered_map<const storage::StorageElement*, int> se_index_;
  std::vector<std::unique_ptr<replication::ReplicaSet>> partitions_;
  std::vector<int64_t> population_;
  HashRing ring_;
};

}  // namespace udr::routing

#endif  // UDR_ROUTING_PARTITION_MAP_H_
