// The data location stage: resolves subscriber identities to the partition
// (replica set) and record key holding the subscriber's data.
//
// The paper discusses three realizations (§3.3.1, §3.4.2, §3.5):
//   * ProvisionedLocationStage — identity-location maps provisioned by the
//     PS. State-full, O(log N) lookups, supports multiple indexes and
//     selective placement; on scale-out a new stage instance must copy every
//     map entry from a peer, during which its PoA cannot serve (S-R link).
//     The O(log N) lookup and the per-instance copy are the *modelled* cost;
//     on the host every instance resolves by hash against one shared
//     IdentityIndex (the router's authoritative bindings).
//   * CachedLocationStage — maps built on the fly: a miss broadcasts a
//     location query to every storage element (cost grows with #SE), but
//     scale-out needs no sync window.
//   * consistent hashing — O(1) lookups, but each identity type needs its
//     own ring/replica of the data and selective placement is impossible;
//     the paper deems it impractical. It is no stage here: under hash
//     placement the router's bypass resolves reads straight through
//     routing::PartitionMap (PartitionOfIdentity + HashIdentity) at
//     LocationCostModel::hash_lookup.

#ifndef UDR_LOCATION_LOCATION_STAGE_H_
#define UDR_LOCATION_LOCATION_STAGE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "location/identity.h"
#include "storage/record.h"

namespace udr::location {

/// Where one subscriber's data lives.
struct LocationEntry {
  storage::RecordKey key = 0;  ///< Record key inside the partition.
  uint32_t partition = 0;      ///< Data partition / replica-set id.

  bool operator==(const LocationEntry& o) const {
    return key == o.key && partition == o.partition;
  }
};

/// The identity -> location bindings of one UDR: one hash map over every
/// identity type plus per-type counts (the modelled tree depth of each
/// type's index) and the summed identity-value bytes (the modelled RAM).
/// The router owns the authoritative instance; ProvisionedLocationStage
/// instances resolve against it instead of keeping copies of their own.
class IdentityIndex {
 public:
  using Map = std::unordered_map<Identity, LocationEntry, IdentityHasher>;

  /// Inserts or overwrites a binding.
  void Bind(const Identity& id, const LocationEntry& entry);
  /// Removes a binding; false when `id` was not bound.
  bool Unbind(const Identity& id);

  /// The binding of `id`; nullptr when unbound.
  const LocationEntry* Find(const Identity& id) const {
    auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Bound identities of one type / of every type.
  int64_t CountOf(IdentityType type) const {
    return counts_[static_cast<int>(type)];
  }
  int64_t size() const { return static_cast<int64_t>(map_.size()); }
  /// Sum of the bound identity values' lengths.
  int64_t value_bytes() const { return value_bytes_; }

  /// Every binding (container and insertion order are those of the map).
  const Map& map() const { return map_; }

 private:
  Map map_;
  int64_t counts_[kIdentityTypeCount] = {};
  int64_t value_bytes_ = 0;
};

/// Cost-model constants for the location stage realizations.
struct LocationCostModel {
  MicroDuration map_base = Micros(2);        ///< Fixed per-lookup cost.
  MicroDuration map_per_log2 = Micros(1);    ///< Per-comparison (tree descent).
  MicroDuration hash_lookup = Micros(2);     ///< O(1) hash-bypass ring lookup.
  MicroDuration broadcast_per_se = Micros(40); ///< Per-SE cost of a miss probe.
  MicroDuration broadcast_rtt = Millis(30);  ///< Worst backbone RTT of a probe.
  int64_t bytes_per_entry = 64;              ///< RAM per identity-map entry.
  MicroDuration sync_per_entry = Micros(2);  ///< Scale-out copy cost per entry.
};

/// Result of a resolution, including the modelled processing cost.
struct ResolveResult {
  Status status;
  LocationEntry entry;
  MicroDuration cost = 0;
  bool cache_miss = false;
};

/// Abstract data location stage.
class LocationStage {
 public:
  virtual ~LocationStage() = default;

  /// Resolves an identity at virtual time `now`.
  virtual ResolveResult Resolve(const Identity& id, MicroTime now) = 0;

  /// Registers an identity -> location binding (provisioning path).
  virtual Status Bind(const Identity& id, const LocationEntry& entry) = 0;

  /// Removes a binding.
  virtual Status Unbind(const Identity& id) = 0;

  /// Number of bound identities.
  virtual int64_t EntryCount() const = 0;

  /// Approximate RAM consumed by the stage (paper: identity-location maps
  /// "deprive storage elements from memory they could use to store data").
  virtual int64_t ApproxBytes() const = 0;

  /// True when the stage honors explicitly provisioned placements (§3.5).
  virtual bool SupportsSelectivePlacement() const = 0;

  /// Human-readable realization name.
  virtual std::string Name() const = 0;
};

/// Identity-location maps, one index per identity type. The modelled lookup
/// is an ordered-tree descent (O(log N) in the type's entry count) and the
/// modelled RAM one entry per binding per instance; the host lookup is one
/// hash probe into the shared IdentityIndex the stage reads.
class ProvisionedLocationStage : public LocationStage {
 public:
  /// `index` must outlive the stage.
  explicit ProvisionedLocationStage(const IdentityIndex* index,
                                    LocationCostModel model = LocationCostModel());

  ResolveResult Resolve(const Identity& id, MicroTime now) override;
  /// No-ops: the bindings live in the shared index, and its owner writes
  /// them there once for every stage that reads it.
  Status Bind(const Identity&, const LocationEntry&) override {
    return Status::Ok();
  }
  Status Unbind(const Identity&) override { return Status::Ok(); }
  int64_t EntryCount() const override;
  int64_t ApproxBytes() const override;
  bool SupportsSelectivePlacement() const override { return true; }
  std::string Name() const override { return "provisioned-maps"; }

  // -- Scale-out synchronization (§3.4.2) -------------------------------------

  /// Starts copying all entries from `peer`; the stage is unavailable until
  /// the modelled copy completes (`peer.EntryCount() x sync_per_entry`).
  /// On the host the stage simply reads the peer's index from now on.
  /// Returns the sync window duration.
  MicroDuration BeginSyncFrom(const ProvisionedLocationStage& peer,
                              MicroTime now);

  /// True while the initial sync is still running at `now`.
  bool Syncing(MicroTime now) const { return now < sync_done_at_; }
  MicroTime sync_done_at() const { return sync_done_at_; }

 private:
  const IdentityIndex* index_;
  LocationCostModel model_;
  MicroTime sync_done_at_ = 0;
};

/// Cache-on-miss stage: a miss broadcasts a probe to every storage element.
class CachedLocationStage : public LocationStage {
 public:
  /// `authoritative` answers what the broadcast would discover (the union of
  /// all SE contents); `se_count_fn` reports how many SEs a probe must visit.
  CachedLocationStage(
      std::function<StatusOr<LocationEntry>(const Identity&)> authoritative,
      std::function<int()> se_count_fn,
      LocationCostModel model = LocationCostModel());

  ResolveResult Resolve(const Identity& id, MicroTime now) override;
  Status Bind(const Identity& id, const LocationEntry& entry) override;
  Status Unbind(const Identity& id) override;
  int64_t EntryCount() const override;
  int64_t ApproxBytes() const override;
  bool SupportsSelectivePlacement() const override { return true; }
  std::string Name() const override { return "cached-maps"; }

  int64_t cache_hits() const { return hits_; }
  int64_t cache_misses() const { return misses_; }
  /// Drops the whole cache (e.g. a freshly deployed stage instance).
  void InvalidateAll();

 private:
  std::function<StatusOr<LocationEntry>(const Identity&)> authoritative_;
  std::function<int()> se_count_fn_;
  LocationCostModel model_;
  std::unordered_map<Identity, LocationEntry, IdentityHasher> cache_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace udr::location

#endif  // UDR_LOCATION_LOCATION_STAGE_H_
