#include "migration/planner.h"

#include <algorithm>

namespace udr::migration {

using location::Identity;
using replication::ReplicaSet;

namespace {

/// Builds one primary-move spec with the transfer estimate mirroring the
/// stream's Begin-time accounting: a target already hosting an up secondary
/// receives only the delta beyond its applied prefix; anyone else receives
/// the whole replication stream.
MigrationTaskSpec PrimaryMoveSpec(const routing::PartitionMap& map,
                                  uint32_t partition, int from_se, int to_se) {
  MigrationTaskSpec spec;
  spec.kind = TaskKind::kPrimaryMove;
  spec.partition = partition;
  spec.from_se = from_se;
  spec.to_se = to_se;
  const ReplicaSet* rs = map.partition(partition);
  const storage::StorageElement* target =
      map.se_info(static_cast<size_t>(to_se)).se;
  storage::CommitSeq base = 0;
  for (uint32_t r = 0; r < rs->replica_count(); ++r) {
    if (rs->replica_se(r) == target && rs->replica_up(r)) {
      base = rs->applied_seq(r);
    }
  }
  spec.estimated_bytes = rs->ApproxStreamBytes(base);
  return spec;
}

/// Builds one subscriber re-home spec, estimating the transfer from the
/// master copy of the record being moved.
MigrationTaskSpec RehomeSpec(const routing::PartitionMap& map,
                             location::IdentityView id,
                             const location::LocationEntry& entry,
                             uint32_t owner) {
  MigrationTaskSpec spec;
  spec.kind = TaskKind::kRehome;
  spec.identity = id.ToIdentity();
  spec.from_partition = entry.partition;
  spec.to_partition = owner;
  const ReplicaSet* rs = map.partition(entry.partition);
  const storage::Record* rec =
      rs->replica_store(rs->master_id()).Find(entry.key);
  spec.estimated_bytes = rec != nullptr ? rec->ApproxBytes() : 64;
  return spec;
}

/// Ring owner of a bound identity.
uint32_t OwnerOf(const routing::PartitionMap& map, location::IdentityView id) {
  return map.PartitionOfKey(location::HashIdentity(id.type, id.value));
}

/// Deterministic task order: the identity index iterates in slot order, so
/// every re-home planner sorts by identity before returning.
void FinalizeRehomePlan(MigrationPlan* plan) {
  std::sort(plan->tasks.begin(), plan->tasks.end(),
            [](const MigrationTaskSpec& a, const MigrationTaskSpec& b) {
              return a.identity < b.identity;
            });
  std::sort(plan->already_homed.begin(), plan->already_homed.end());
  for (const MigrationTaskSpec& spec : plan->tasks) {
    plan->estimated_bytes += spec.estimated_bytes;
  }
}

}  // namespace

MigrationPlan MigrationPlanner::PlanRebalance(const routing::PartitionMap& map) {
  MigrationPlan plan;
  for (const routing::PlannedPrimaryMove& move : map.PlanRebalance()) {
    plan.tasks.push_back(
        PrimaryMoveSpec(map, move.partition, move.from_se, move.to_se));
    plan.estimated_bytes += plan.tasks.back().estimated_bytes;
  }
  return plan;
}

MigrationPlan MigrationPlanner::PlanDecommission(
    const routing::PartitionMap& map, int se_index) {
  MigrationPlan plan;
  if (se_index < 0 || static_cast<size_t>(se_index) >= map.se_count()) {
    return plan;
  }
  // Simulated primary counts over the remaining SEs, so the drained
  // partitions spread instead of piling onto one receiver.
  std::vector<int64_t> counts(map.se_count(), 0);
  std::vector<uint32_t> draining;
  for (uint32_t p = 0; p < map.partition_count(); ++p) {
    if (map.partition_retired(p)) continue;  // Holds nothing to drain.
    const ReplicaSet* rs = map.partition(p);
    int owner = map.IndexOfSe(rs->replica_se(rs->master_id()));
    if (owner == se_index) {
      draining.push_back(p);
    } else if (owner >= 0) {
      ++counts[owner];
    }
  }
  for (uint32_t p : draining) {
    int best = -1;
    for (size_t i = 0; i < map.se_count(); ++i) {
      if (static_cast<int>(i) == se_index) continue;
      if (best < 0 || counts[i] < counts[best]) best = static_cast<int>(i);
    }
    if (best < 0) break;  // Nowhere to drain to.
    ++counts[best];
    plan.tasks.push_back(PrimaryMoveSpec(map, p, se_index, best));
    plan.estimated_bytes += plan.tasks.back().estimated_bytes;
  }
  return plan;
}

MigrationPlan MigrationPlanner::PlanRehome(const routing::Router& router,
                                           const routing::PartitionMap& map,
                                           location::IdentityType type) {
  MigrationPlan plan;
  if (map.partition_count() == 0) return plan;
  router.identity_index()->ForEach(
      type, [&](location::IdentityView id, const location::LocationEntry& entry) {
        uint32_t owner = OwnerOf(map, id);
        if (owner == entry.partition) {
          plan.already_homed.push_back(id.ToIdentity());
          return;
        }
        plan.tasks.push_back(RehomeSpec(map, id, entry, owner));
      });
  FinalizeRehomePlan(&plan);
  return plan;
}

MigrationPlan MigrationPlanner::PlanSplit(const routing::Router& router,
                                          const routing::PartitionMap& map,
                                          location::IdentityType type,
                                          uint32_t parent, uint32_t sibling) {
  MigrationPlan plan;
  if (map.partition_count() == 0) return plan;
  router.identity_index()->ForEach(
      type, [&](location::IdentityView id, const location::LocationEntry& entry) {
        if (entry.partition != parent) return;
        uint32_t owner = OwnerOf(map, id);
        if (owner != sibling) return;  // The split did not claim this arc half.
        plan.tasks.push_back(RehomeSpec(map, id, entry, owner));
      });
  FinalizeRehomePlan(&plan);
  return plan;
}

MigrationPlan MigrationPlanner::PlanMerge(const routing::Router& router,
                                          const routing::PartitionMap& map,
                                          location::IdentityType type,
                                          uint32_t sibling) {
  MigrationPlan plan;
  if (map.partition_count() == 0) return plan;
  router.identity_index()->ForEach(
      type, [&](location::IdentityView id, const location::LocationEntry& entry) {
        if (entry.partition != sibling) return;
        uint32_t owner = OwnerOf(map, id);
        if (owner == sibling) return;  // Defensive: points should be gone.
        plan.tasks.push_back(RehomeSpec(map, id, entry, owner));
      });
  FinalizeRehomePlan(&plan);
  return plan;
}

}  // namespace udr::migration
