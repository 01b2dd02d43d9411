// MigrationPlanner: turns a PartitionMap delta into an ordered set of
// migration task specifications for the MigrationScheduler to execute.
//
// Two kinds of bulk data movement exist in the UDR and both are planned
// here, so every mover in the system drains through the one throttled
// scheduler instead of its own ad-hoc synchronous loop:
//   * primary-copy moves — the rebalancing delta after AddCluster /
//     Rebalance (the placement decisions themselves come from
//     routing::PartitionMap::PlanRebalance, the single placement brain);
//   * hash-keyed subscriber re-homes — after the consistent-hash ring grew,
//     the ~K/N subscribers whose ring owner changed must ship to their new
//     partition before the location bypass can serve them again.
//
// Plans are deterministic: the same map/router state yields the same task
// list, which is what makes repeated planning calls idempotent (an already
// balanced map plans nothing; the scheduler additionally refuses duplicate
// in-flight tasks).

#ifndef UDR_MIGRATION_PLANNER_H_
#define UDR_MIGRATION_PLANNER_H_

#include <cstdint>
#include <vector>

#include "location/identity.h"
#include "routing/partition_map.h"
#include "routing/router.h"

namespace udr::migration {

/// What a migration task moves.
enum class TaskKind {
  kPrimaryMove,  ///< A partition's primary copy to another storage element.
  kRehome,       ///< One hash-keyed subscriber record to its ring owner.
};

/// One planned unit of data movement.
struct MigrationTaskSpec {
  TaskKind kind = TaskKind::kPrimaryMove;
  // -- kPrimaryMove ------------------------------------------------------------
  uint32_t partition = 0;
  int from_se = -1;  ///< PartitionMap registry index of the donor SE.
  int to_se = -1;    ///< Registry index of the receiving SE.
  // -- kRehome -----------------------------------------------------------------
  location::Identity identity;
  uint32_t from_partition = 0;
  uint32_t to_partition = 0;
  // -- Common ------------------------------------------------------------------
  /// Planner's transfer-size estimate (the bandwidth model budgets against
  /// it; the bench checks actual bytes land within 5% of it).
  int64_t estimated_bytes = 0;
};

/// An ordered set of tasks plus planning byproducts.
struct MigrationPlan {
  std::vector<MigrationTaskSpec> tasks;
  int64_t estimated_bytes = 0;
  /// Re-home planning only: identities whose ring owner agrees with their
  /// provisioned location again — any bypass exception left from an earlier
  /// failed re-home is obsolete and the caller should clear it.
  std::vector<location::Identity> already_homed;

  bool empty() const { return tasks.empty(); }
};

class MigrationPlanner {
 public:
  /// Plans the primary-copy delta that balances `map` under its configured
  /// rebalance weight. Estimates each move's transfer size from the
  /// partition's replication stream (delta-only when the target already
  /// hosts a secondary copy).
  static MigrationPlan PlanRebalance(const routing::PartitionMap& map);

  /// Plans the re-home of every bound identity of `type` whose ring owner
  /// differs from its provisioned partition, ordered by identity for
  /// determinism.
  static MigrationPlan PlanRehome(const routing::Router& router,
                                  const routing::PartitionMap& map,
                                  location::IdentityType type);

  /// Plans the decommissioning of one storage element: every partition it
  /// primary-hosts moves to the least-loaded remaining SE (spread-aware, so
  /// the drained load lands evenly). The SE keeps its secondary copies —
  /// replica membership changes are a follow-on.
  static MigrationPlan PlanDecommission(const routing::PartitionMap& map,
                                        int se_index);

};

}  // namespace udr::migration

#endif  // UDR_MIGRATION_PLANNER_H_
