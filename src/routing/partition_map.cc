#include "routing/partition_map.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <string>

namespace udr::routing {

using replication::MigrationReport;
using replication::ReplicaSet;
using replication::ReplicaSetConfig;

PartitionMap::PartitionMap(PartitionMapConfig config, sim::Network* network)
    : config_(std::move(config)),
      network_(network),
      ring_(config_.vnodes_per_partition) {}

void PartitionMap::RegisterStorageElement(storage::StorageElement* se,
                                          uint32_t cluster) {
  assert(se_index_.count(se) == 0 && "storage element registered twice");
  se_index_[se] = static_cast<int>(ses_.size());
  SeInfo info;
  info.se = se;
  info.cluster = cluster;
  ses_.push_back(info);
}

int PartitionMap::IndexOfSe(const storage::StorageElement* se) const {
  auto it = se_index_.find(se);
  return it == se_index_.end() ? -1 : it->second;
}

void PartitionMap::Commission() {
  for (int round = 0; round < config_.partitions_per_se; ++round) {
    for (size_t i = 0; i < ses_.size(); ++i) {
      SeInfo& primary = ses_[i];
      if (primary.commissioned > round) continue;

      // Secondary copies: prefer SEs in other clusters (geographic
      // dispersion, §3.1 decision 2), least-loaded first; fall back to
      // same-cluster SEs.
      std::vector<size_t> candidates;
      for (size_t j = 0; j < ses_.size(); ++j) {
        if (j != i) candidates.push_back(j);
      }
      std::stable_sort(candidates.begin(), candidates.end(),
                       [&](size_t a, size_t b) {
                         bool a_other = ses_[a].cluster != primary.cluster;
                         bool b_other = ses_[b].cluster != primary.cluster;
                         if (a_other != b_other) return a_other;
                         if (ses_[a].secondary_load != ses_[b].secondary_load) {
                           return ses_[a].secondary_load <
                                  ses_[b].secondary_load;
                         }
                         return a < b;
                       });

      std::vector<storage::StorageElement*> members;
      members.push_back(primary.se);
      std::vector<uint32_t> used_clusters = {primary.cluster};
      for (size_t j : candidates) {
        if (static_cast<int>(members.size()) >= config_.replication_factor) {
          break;
        }
        // First pass: one copy per cluster where possible.
        if (std::count(used_clusters.begin(), used_clusters.end(),
                       ses_[j].cluster) > 0 &&
            candidates.size() + 1 >
                static_cast<size_t>(config_.replication_factor)) {
          int remaining =
              config_.replication_factor - static_cast<int>(members.size());
          int distinct_left = 0;
          for (size_t k : candidates) {
            if (std::count(used_clusters.begin(), used_clusters.end(),
                           ses_[k].cluster) == 0) {
              ++distinct_left;
            }
          }
          if (distinct_left >= remaining) continue;
        }
        members.push_back(ses_[j].se);
        used_clusters.push_back(ses_[j].cluster);
        ++ses_[j].secondary_load;
      }

      uint32_t id = static_cast<uint32_t>(partitions_.size());
      ReplicaSetConfig rs_cfg = config_.replica_template;
      rs_cfg.name = "partition-" + std::to_string(id);
      partitions_.push_back(
          std::make_unique<ReplicaSet>(rs_cfg, std::move(members), network_));
      population_.push_back(0);
      ring_.AddNode(id);
      ++primary.commissioned;
    }
  }
}

uint32_t PartitionMap::PartitionOfIdentity(const location::Identity& id) const {
  return PartitionOfKey(location::HashIdentity(id));
}

std::vector<int> PartitionMap::PrimariesPerSe() const {
  std::vector<int> counts(ses_.size(), 0);
  for (size_t p = 0; p < partitions_.size(); ++p) {
    const ReplicaSet* rs = partitions_[p].get();
    int idx = IndexOfSe(rs->replica_se(rs->master_id()));
    if (idx >= 0) ++counts[idx];
  }
  return counts;
}

int PartitionMap::PrimarySpread() const {
  if (ses_.empty() || partitions_.empty()) return 0;
  std::vector<int> counts = PrimariesPerSe();
  auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  return *mx - *mn;
}

std::vector<int64_t> PartitionMap::PopulationPerSe() const {
  std::vector<int64_t> pops(ses_.size(), 0);
  for (size_t p = 0; p < partitions_.size(); ++p) {
    const ReplicaSet* rs = partitions_[p].get();
    int idx = IndexOfSe(rs->replica_se(rs->master_id()));
    if (idx >= 0) pops[idx] += population_[p];
  }
  return pops;
}

int64_t PartitionMap::PopulationSpread() const {
  if (ses_.empty() || partitions_.empty()) return 0;
  std::vector<int64_t> pops = PopulationPerSe();
  auto [mn, mx] = std::minmax_element(pops.begin(), pops.end());
  return *mx - *mn;
}

void PartitionMap::NotePrimaryMoved(uint32_t partition, int from_se, int to_se,
                                    const replication::MigrationReport& migration) {
  (void)partition;
  // Secondary-load bookkeeping: a promoted secondary frees its slot on the
  // target and the demoted primary now hosts a secondary copy.
  if (migration.promoted_existing) {
    --ses_[to_se].secondary_load;
    ++ses_[from_se].secondary_load;
  }
  // A received primary counts toward the target's commissioning quota; the
  // donor keeps its quota so a later lazy Commission() never re-creates
  // partitions on the SEs a rebalance drained (which would churn the ring
  // and undo the balance the migration paid for).
  ++ses_[to_se].commissioned;
}

Status PartitionMap::MovePrimary(size_t partition, size_t to_idx,
                                 RebalanceReport* report) {
  ReplicaSet* rs = partitions_[partition].get();
  int from_idx = IndexOfSe(rs->replica_se(rs->master_id()));
  sim::SiteId from_site = rs->master_site();
  auto migration = rs->MigratePrimaryTo(ses_[to_idx].se);
  if (!migration.ok()) return migration.status();

  NotePrimaryMoved(static_cast<uint32_t>(partition), from_idx,
                   static_cast<int>(to_idx), *migration);

  PartitionMove move;
  move.partition = static_cast<uint32_t>(partition);
  move.from_site = from_site;
  move.to_site = ses_[to_idx].se->site();
  move.migration = *migration;
  report->entries_replayed += migration->entries_replayed;
  report->bytes_moved += migration->bytes_moved;
  report->duration += migration->duration;
  report->moves.push_back(std::move(move));
  return Status::Ok();
}

void PartitionMap::PlanByPrimaryCount(
    std::vector<int>* owner, std::vector<PlannedPrimaryMove>* plan) const {
  // Greedy: repeatedly move the cheapest primary (smallest population) off
  // the most-loaded SE onto the least-loaded one. Each move shrinks the
  // imbalance, so the loop terminates.
  while (true) {
    std::vector<int> counts(ses_.size(), 0);
    for (int se : *owner) {
      if (se >= 0) ++counts[se];
    }
    size_t max_i = 0, min_i = 0;
    for (size_t i = 1; i < counts.size(); ++i) {
      if (counts[i] > counts[max_i]) max_i = i;
      if (counts[i] < counts[min_i]) min_i = i;
    }
    if (counts[max_i] - counts[min_i] <= 1) break;

    int best = -1;
    for (size_t p = 0; p < partitions_.size(); ++p) {
      if ((*owner)[p] != static_cast<int>(max_i)) continue;
      if (best < 0 || population_[p] < population_[best]) {
        best = static_cast<int>(p);
      }
    }
    if (best < 0) break;  // Defensive: counts said otherwise.
    plan->push_back({static_cast<uint32_t>(best), static_cast<int>(max_i),
                     static_cast<int>(min_i)});
    (*owner)[best] = static_cast<int>(min_i);
  }
}

void PartitionMap::PlanByPopulation(
    std::vector<int>* owner, std::vector<PlannedPrimaryMove>* plan) const {
  // Greedy: move a primary from the most- to the least-populated SE when a
  // candidate strictly shrinks their gap (0 < population < gap), preferring
  // the one closest to half the gap. Each move strictly decreases the sum of
  // squared per-SE populations, so the loop terminates; the cap is defensive.
  const size_t max_moves = 4 * partitions_.size() + 8;
  while (plan->size() < max_moves) {
    std::vector<int64_t> pops(ses_.size(), 0);
    for (size_t p = 0; p < owner->size(); ++p) {
      if ((*owner)[p] >= 0) pops[(*owner)[p]] += population_[p];
    }
    size_t max_i = 0, min_i = 0;
    for (size_t i = 1; i < pops.size(); ++i) {
      if (pops[i] > pops[max_i]) max_i = i;
      if (pops[i] < pops[min_i]) min_i = i;
    }
    int64_t gap = pops[max_i] - pops[min_i];
    if (gap <= 0) break;

    int best = -1;
    int64_t best_off_center = 0;
    for (size_t p = 0; p < partitions_.size(); ++p) {
      if ((*owner)[p] != static_cast<int>(max_i)) continue;
      int64_t w = population_[p];
      if (w <= 0 || w >= gap) continue;  // Would not shrink the gap.
      int64_t off_center = std::abs(2 * w - gap);
      if (best < 0 || off_center < best_off_center) {
        best = static_cast<int>(p);
        best_off_center = off_center;
      }
    }
    if (best < 0) break;  // No improving move left.
    plan->push_back({static_cast<uint32_t>(best), static_cast<int>(max_i),
                     static_cast<int>(min_i)});
    (*owner)[best] = static_cast<int>(min_i);
  }
}

std::vector<PlannedPrimaryMove> PartitionMap::PlanRebalance() const {
  std::vector<PlannedPrimaryMove> plan;
  if (partitions_.empty() || ses_.empty()) return plan;
  // Simulated assignment the greedy passes mutate instead of live state.
  std::vector<int> owner(partitions_.size(), -1);
  for (size_t p = 0; p < partitions_.size(); ++p) {
    const ReplicaSet* rs = partitions_[p].get();
    owner[p] = IndexOfSe(rs->replica_se(rs->master_id()));
  }
  if (config_.rebalance_weight == RebalanceWeight::kPopulation) {
    PlanByPopulation(&owner, &plan);
  } else {
    PlanByPrimaryCount(&owner, &plan);
  }
  return plan;
}

StatusOr<RebalanceReport> PartitionMap::Rebalance() {
  RebalanceReport report;
  report.spread_before = PrimarySpread();
  report.spread_after = report.spread_before;
  report.population_spread_before = PopulationSpread();
  report.population_spread_after = report.population_spread_before;
  if (partitions_.empty()) return report;

  for (const PlannedPrimaryMove& move : PlanRebalance()) {
    UDR_RETURN_IF_ERROR(MovePrimary(move.partition,
                                    static_cast<size_t>(move.to_se), &report));
  }
  report.spread_after = PrimarySpread();
  report.population_spread_after = PopulationSpread();
  return report;
}

void PartitionMap::CatchUpAll() {
  for (auto& rs : partitions_) rs->CatchUpAll();
}

replication::RestorationReport PartitionMap::RestoreAll() {
  replication::RestorationReport agg;
  for (auto& rs : partitions_) {
    replication::RestorationReport r = rs->RestoreConsistency();
    agg.divergent_entries += r.divergent_entries;
    agg.applied_ops += r.applied_ops;
    agg.conflicting_ops += r.conflicting_ops;
    agg.dropped_ops += r.dropped_ops;
    agg.manual_ops += r.manual_ops;
  }
  return agg;
}

}  // namespace udr::routing
