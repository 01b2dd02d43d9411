// Router: carries a request from the Point of Access through identity
// location to the replica set owning the subscriber's partition — the data
// location stage of the paper's three-tier PoA / location / storage split,
// extracted from UdrNf.
//
// Responsibilities:
//   * PoA selection: nearest reachable Point of Access for a client site;
//   * identity resolution at a PoA's data location stage instance (§3.3.1
//     decision 1: resolution never leaves the PoA);
//   * the authoritative identity -> location index (what a broadcast over
//     all SEs would answer) — the one identity index of the UDR: every
//     provisioned location stage resolves against it — and bind/unbind
//     fan-out to the PoA stages that keep state of their own;
//   * the final hop: LocationEntry -> owning replication::ReplicaSet via the
//     PartitionMap.
//
// Location entries name a partition id, not a storage element, so they stay
// valid across primary-copy migrations and failovers — rebalancing needs no
// location-stage rebind.

#ifndef UDR_ROUTING_ROUTER_H_
#define UDR_ROUTING_ROUTER_H_

#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "location/identity.h"
#include "location/location_stage.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "routing/batch.h"
#include "routing/partition_map.h"
#include "sim/network.h"

namespace udr::routing {

/// Outcome of routing one request to its owning replica set.
struct RouteResult {
  Status status;
  replication::ReplicaSet* rs = nullptr;
  storage::RecordKey key = 0;
  uint32_t partition = 0;
  MicroDuration resolve_cost = 0;  ///< Location-stage processing cost.
  bool bypassed_location = false;  ///< Served by the hash fast path.
};

/// What a single-op Route call will do with the replica set. Reads are
/// eligible for the hash-routed location bypass; writes always resolve
/// through the location stage (a bypassed write on an unprovisioned identity
/// would silently materialize a record).
enum class RouteIntent { kRead, kWrite };

/// Hash-routed location bypass (deployed under PlacementKind::kHash): read
/// resolution short-circuits via PartitionMap::PartitionOfIdentity and the
/// identity-hash record key, skipping the location stage entirely. Only
/// identities of `identity_type` are eligible — under hash placement the
/// record is keyed and placed by that identity, and routing any *other*
/// identity type by hash would land on the wrong ring (the paper's
/// one-ring-per-identity-type limitation, §3.5).
struct HashBypassConfig {
  bool enabled = false;
  location::IdentityType identity_type = location::IdentityType::kImsi;
  /// O(1) ring-lookup cost, mirroring LocationCostModel::hash_lookup.
  MicroDuration lookup_cost = Micros(2);
};

class Router {
 public:
  Router(PartitionMap* map, sim::Network* network, Metrics* metrics);

  // -- PoA registry ------------------------------------------------------------

  /// Registers a blade cluster's Point of Access and its data location stage
  /// instance. Called by the deployment layer as clusters come up.
  void RegisterPoa(uint32_t cluster_id, sim::SiteId site,
                   location::LocationStage* stage);

  /// Nearest reachable, serving PoA for a client; returns its cluster id.
  StatusOr<uint32_t> FindPoaCluster(sim::SiteId client_site) const;

  /// Takes a PoA out of (or back into) client rotation. A non-serving PoA —
  /// its site lost, its LDAP farm drained — is skipped by FindPoaCluster, so
  /// clients transparently fail over to the next-nearest PoA while the data
  /// path keeps resolving through surviving location-stage instances.
  void SetPoaServing(uint32_t cluster_id, bool serving);
  bool PoaServing(uint32_t cluster_id) const;

  /// Location stage serving `site`; nullptr when no PoA is deployed there.
  location::LocationStage* StageAtSite(sim::SiteId site) const;

  // -- Identity binding --------------------------------------------------------

  /// Authoritative lookup (what a broadcast over all SEs returns).
  StatusOr<location::LocationEntry> AuthoritativeLookup(
      const location::Identity& id) const;
  bool IsBound(const location::Identity& id) const {
    return authoritative_.Find(id).has_value();
  }

  /// The authoritative index provisioned location stages resolve against
  /// (and the deployment layer walks to re-home hash-keyed subscribers
  /// after the ring grows).
  const location::IdentityIndex* identity_index() const {
    return &authoritative_;
  }

  /// Records a binding in the identity index and at every PoA stage (a
  /// provisioned stage reads the index and ignores the call).
  void Bind(const location::Identity& id, const location::LocationEntry& entry);

  /// Removes a binding everywhere.
  void Unbind(const location::Identity& id);

  // -- Resolution and routing --------------------------------------------------

  /// Resolves an identity at the location stage local to `poa_site`.
  location::ResolveResult ResolveAt(const location::Identity& id,
                                    sim::SiteId poa_site);

  /// Full data-path hop: identity -> location entry -> owning replica set.
  /// The same resolution RouteBatch runs per op; reads may take the hash
  /// bypass when it is enabled.
  RouteResult Route(const location::Identity& id, sim::SiteId poa_site,
                    RouteIntent intent = RouteIntent::kWrite);

  // -- Batched pipeline --------------------------------------------------------

  /// Configures the hash-routed location bypass (see HashBypassConfig).
  void SetHashBypass(HashBypassConfig config) { bypass_ = config; }
  const HashBypassConfig& hash_bypass() const { return bypass_; }

  /// Excludes one identity from the bypass: its reads fall back to the
  /// location stage until cleared. Used by the deployment layer when a
  /// subscriber's record could not be re-homed to its ring owner (the stage
  /// still knows the true location; the hash would misroute). The entry's
  /// lifetime is tied to the binding: Unbind drops it, so a deleted
  /// subscriber cannot leak an exception.
  void AddBypassException(const location::Identity& id) {
    bypass_exceptions_.insert(id);
  }
  void ClearBypassException(const location::Identity& id) {
    bypass_exceptions_.erase(id);
  }
  size_t bypass_exception_count() const { return bypass_exceptions_.size(); }

  /// The staged batch pipeline: (1) resolve all identities at the PoA,
  /// (2) group ops by owning partition, (3) dispatch one grouped
  /// ReplicaSet::WriteBatch / ReadBatch per partition-group run. Per-key op
  /// order is preserved (grouping is stable and runs within a group execute
  /// in request order); a failed op never poisons the rest of the batch.
  BatchResult RouteBatch(const BatchRequest& batch, sim::SiteId poa_site);

  PartitionMap* partition_map() { return map_; }

  // -- Observability -----------------------------------------------------------

  /// Installs the tracer the pipeline records spans into (nullptr = off).
  /// The coalescer and other front ends reach the tracer through here so
  /// one sink covers the whole data path of this router.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() { return tracer_; }

  /// Installs the flight recorder resolve failures are logged to.
  void set_flight_recorder(obs::FlightRecorder* flight) { flight_ = flight; }

 private:
  struct Poa {
    uint32_t cluster_id = 0;
    sim::SiteId site = 0;
    location::LocationStage* stage = nullptr;
    bool serving = true;  ///< In client rotation (false: site lost/drained).
  };

  /// Resolves one op: hash bypass when eligible, location stage otherwise.
  RouteResult ResolveOne(const location::Identity& id, sim::SiteId poa_site,
                         bool read_intent);

  /// Stage 3 helper: dispatches one partition-group — every resolved op on
  /// `partition`, from its first op `first` on — walking its ops in request
  /// order and flushing consecutive same-kind runs as one grouped
  /// ReplicaSet call. Returns the group's modelled latency.
  MicroDuration DispatchGroup(const BatchRequest& batch,
                              uint32_t partition, size_t first,
                              sim::SiteId poa_site, BatchResult* result,
                              const obs::TraceContext& span_parent,
                              MicroTime dispatch_start);

  PartitionMap* map_;
  sim::Network* network_;
  Metrics* metrics_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  // Pre-registered handles for the pipeline's hot-path metrics (the string
  // Add/Observe API stays for cold call sites).
  Metrics::Counter routed_;
  Metrics::Counter bypass_hits_;
  Metrics::Counter batch_count_;
  Metrics::Counter batch_ops_;
  Metrics::HistHandle batch_size_;
  Metrics::HistHandle batch_groups_;
  HashBypassConfig bypass_;
  std::unordered_set<location::Identity, location::IdentityHasher>
      bypass_exceptions_;
  std::vector<Poa> poas_;
  location::IdentityIndex authoritative_;
};

}  // namespace udr::routing

#endif  // UDR_ROUTING_ROUTER_H_
