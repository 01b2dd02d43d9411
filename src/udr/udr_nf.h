// UdrNf: the complete User Data Repository network function (paper §2.3).
//
// Composition — a layered data path:
//   * blade clusters at geographic sites (scale-out unit), each with storage
//     elements, stateless LDAP servers behind an L4 balancer (the PoA), and
//     a data location stage instance;
//   * routing::PartitionMap — partition -> replica-set assignment,
//     commissioning, population accounting and live rebalancing;
//   * routing::PlacementPolicy — where a new subscription's primary copy
//     goes (least-loaded, round-robin, hash, selective/home-site §3.5);
//   * routing::Router — PoA selection, identity resolution and the hop to
//     the owning replication::ReplicaSet;
//   * the northbound LDAP interface (UDC-mandated): one client leg (nearest
//     serving PoA, one balancer pick, the picked server's protocol cost)
//     shared by Submit, SubmitBatch and SubmitEvent, then the LDAP verb
//     adapter over the router.
//
// UdrNf itself is deployment orchestration (AddCluster / Rebalance /
// maintenance fan-out) plus the front door and the LDAP verb adapter; all
// placement and partition-selection logic lives in src/routing/.

#ifndef UDR_UDR_UDR_NF_H_
#define UDR_UDR_UDR_NF_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "ldap/filter.h"
#include "ldap/message.h"
#include "location/identity.h"
#include "location/location_stage.h"
#include "migration/bandwidth_model.h"
#include "migration/planner.h"
#include "migration/scheduler.h"
#include "obs/flight_recorder.h"
#include "obs/time_series.h"
#include "obs/trace.h"
#include "replication/replica_set.h"
#include "routing/coalescer.h"
#include "routing/partition_map.h"
#include "routing/placement_policy.h"
#include "routing/router.h"
#include "sim/network.h"
#include "udr/blade_cluster.h"

namespace udr::udrnf {

/// Which data location stage realization the NF deploys (§3.5).
enum class LocationKind { kProvisioned, kCached };

/// NF-wide configuration.
struct UdrConfig {
  /// Copies per partition (1 primary + N-1 geographically disperse
  /// secondaries; the paper uses 2-3).
  int replication_factor = 3;
  replication::SyncMode sync_mode = replication::SyncMode::kAsync;
  replication::PartitionMode partition_mode =
      replication::PartitionMode::kPreferConsistency;
  replication::MergePolicy merge_policy = replication::MergePolicy::kFieldMergeLww;
  MicroDuration failover_detection = Seconds(5);
  /// Async log-shipper batching window (see ReplicaSetConfig).
  MicroDuration async_ship_delay = 0;
  /// §3.3.2 decision 2: front-end reads may be served by slave copies.
  bool fe_slave_reads = true;
  LocationKind location_kind = LocationKind::kProvisioned;
  int se_per_cluster = 2;
  int ldap_per_cluster = 2;
  /// Partitions commissioned per storage element; > 1 gives the rebalancer
  /// finer-grained migration units on scale-out.
  int partitions_per_se = 1;
  /// What Rebalance() balances: primary-copy count (default) or primary-
  /// hosted subscriber population per storage element.
  routing::RebalanceWeight rebalance_weight =
      routing::RebalanceWeight::kPrimaryCount;
  /// Fallback placement policy under selective placement. kHash disables the
  /// selective wrapper (§3.5: hashing cannot honor a home site) and keys
  /// records by identity hash, enabling the router's location bypass.
  routing::PlacementKind placement = routing::PlacementKind::kLeastLoaded;
  /// Under kHash placement: let reads skip the location stage via the
  /// router's hash bypass (ROADMAP: hash-routed reads).
  bool hash_routed_reads = true;
  /// Identity type hash placement keys records by (and the only type the
  /// bypass may route — any other type would hash onto the wrong ring).
  location::IdentityType hash_identity_type = location::IdentityType::kImsi;
  /// Cross-event coalescing at the PoA: events enqueued via SubmitEvent are
  /// parked in a per-cluster dispatch window and flushed as ONE grouped
  /// pipeline batch when this window elapses on the sim clock (or the size
  /// cap below fills). 0 = disabled: enqueued events execute immediately,
  /// byte-identical to the inline SubmitBatch path.
  MicroDuration coalesce_window_us = 0;
  /// Closes an open window early once this many ops are parked across the
  /// in-flight events (0 = deadline-only close).
  int coalesce_max_ops = 0;
  /// Background migration: cap on migration traffic per SE-pair link,
  /// bytes/second. 0 = unthrottled — every planned move (scale-out
  /// rebalance, weighted rebalance, hash re-homing) drains inline, the
  /// pre-subsystem behavior. > 0 turns those moves into background tasks
  /// paced by the migration scheduler's token bucket and drained by
  /// PumpEvents.
  int64_t migration_bandwidth_bps = 0;
  /// Transfer unit of the background scheduler: a migration step ships at
  /// most this many bytes before yielding to foreground traffic.
  int64_t migration_chunk_bytes = 64 * 1024;
  /// Token-bucket burst window of the migration scheduler (the bucket holds
  /// at most one window's worth of bytes at the effective link rate).
  MicroDuration migration_window_us = Millis(1);
  /// Priority knob: each foreground operation displaces this many bytes of
  /// migration budget from the window, so foreground load shrinks
  /// background throughput (0 = no displacement).
  int64_t migration_foreground_cost_bytes = 0;
  // -- Observability (src/obs) -------------------------------------------------
  /// Fraction of signaling events traced end to end, in [0, 1]. The decision
  /// is a pure function of (trace_seed, trace id), so the same seed traces
  /// the same events on every replay. 0 = tracing off (no tracer allocated,
  /// zero data-path overhead).
  double trace_sample_rate = 0.0;
  uint64_t trace_seed = 42;
  /// Hard cap on retained spans (the excess is counted, not stored).
  int64_t trace_max_spans = 1 << 20;
  /// Perfetto lane (tid) of this NF's spans; the sharded execution mode sets
  /// it to the shard index so merged traces keep one row per shard.
  uint32_t trace_lane = 0;
  /// Time-series sampler tick: snapshot registered counters / histogram
  /// quantiles every this much sim time. 0 = sampler off.
  MicroDuration obs_sample_interval_us = 0;
  /// Points retained per sampled series.
  int obs_ring_capacity = 256;
  /// Control-plane events retained per component by the flight recorder
  /// (0 = recorder off).
  int flight_recorder_capacity = 256;
  storage::StorageElementConfig se_template;
  ldap::LdapServerConfig ldap_template;
  location::LocationCostModel location_model;
};

/// The UDR network function.
class UdrNf {
 public:
  UdrNf(UdrConfig config, sim::Network* network);
  ~UdrNf();

  const UdrConfig& config() const { return config_; }
  sim::Network* network() const { return network_; }
  MicroTime Now() const { return network_->Now(); }
  Metrics& metrics() { return metrics_; }

  routing::PartitionMap& partition_map() { return map_; }
  routing::Router& router() { return router_; }

  // -- Observability -----------------------------------------------------------

  /// The NF's tracer; nullptr when trace_sample_rate == 0.
  obs::Tracer* tracer() { return tracer_.get(); }
  /// The control-plane flight recorder; nullptr when its capacity is 0.
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  /// The time-series sampler; nullptr when obs_sample_interval_us == 0.
  obs::TimeSeriesSampler* sampler() { return sampler_.get(); }

  // -- Deployment / scale-out (§3.4) -------------------------------------------

  /// Deploys a new blade cluster at `site` with the configured number of SEs
  /// and LDAP servers. For the provisioned location stage, scale-out incurs
  /// the identity-map sync window of §3.4.2 during which the new PoA cannot
  /// serve.
  StatusOr<BladeCluster*> AddCluster(sim::SiteId site);

  /// Creates replica sets until every storage element primary-hosts the
  /// configured number of partitions. Called lazily by CreateSubscriber;
  /// call explicitly after initial deployment for deterministic layouts.
  /// Under hash placement a grown ring re-homes the ~K/N subscribers whose
  /// ring owner changed, keeping the location bypass correct.
  void CommissionPartitions() { Commission(); }

  /// Live rebalancing after scale-out: plans the primary-copy delta via the
  /// migration planner and drains it synchronously through the background
  /// scheduler (chunked copy -> catch-up -> atomic cutover per partition).
  /// No acknowledged write is lost. Idempotent: a rebalance already in
  /// flight is drained instead of re-planned, and a balanced map plans an
  /// empty delta.
  StatusOr<routing::RebalanceReport> Rebalance();

  // -- Background migration (src/migration) -------------------------------------

  /// Plans the current rebalancing delta and enqueues it for background,
  /// bandwidth-throttled execution (no-op when a rebalance is already in
  /// flight). The move proceeds as PumpEvents drains it; foreground
  /// traffic keeps flowing, protected by the bandwidth model. Returns the
  /// scheduler's progress snapshot after planning.
  migration::MigrationProgress StartMigration();

  /// Decommissions one storage element's primary copies in ONE planner call:
  /// every partition it primary-hosts becomes a background migration task
  /// toward the least-loaded remaining SE (spread-aware). The drain proceeds
  /// as PumpEvents affords it — throttled under a bandwidth cap, inline
  /// when unthrottled — and no acknowledged write is lost at any cutover.
  /// The SE keeps its secondary copies (replica-membership changes are a
  /// follow-on). Returns the scheduler's progress snapshot after planning.
  migration::MigrationProgress StartDecommission(int se_index);

  /// Progress snapshot of the background migration scheduler.
  migration::MigrationProgress MigrationStatus() const {
    return migration_->Progress();
  }
  /// Any migration task still pending (copy, catch-up, or queued).
  bool MigrationActive() const { return migration_->HasWork(); }

  /// The background scheduler (introspection for tests and benches).
  migration::MigrationScheduler& migration_scheduler() { return *migration_; }

  size_t cluster_count() const { return clusters_.size(); }
  BladeCluster* cluster(uint32_t id) { return clusters_[id].get(); }
  /// Cluster whose PoA serves `site`, nullptr when none is deployed there.
  BladeCluster* ClusterAtSite(sim::SiteId site);

  size_t partition_count() const { return map_.partition_count(); }
  replication::ReplicaSet* partition(uint32_t id) { return map_.partition(id); }

  int TotalStorageElements() const;
  int64_t TotalLdapOpsPerSecond() const;
  int64_t TotalSubscriberCapacity(int64_t avg_record_bytes) const;
  int64_t SubscriberCount() const { return subscriber_count_; }

  // -- Client entry point --------------------------------------------------------

  /// Submits an LDAP request from a client at `client_site`: the client leg
  /// (nearest reachable PoA, one stateless LDAP server picked by its
  /// balancer), then the data path as a batch of one. The returned latency
  /// covers the whole client-observed path. A PoA that is unreachable or has
  /// no healthy server answers kUnavailable.
  ldap::LdapResult Submit(const ldap::LdapRequest& request,
                          sim::SiteId client_site);

  /// Submits a multi-op request (one signaling event's LDAP ops) as a single
  /// northbound message: one client<->PoA round trip, then the staged batch
  /// pipeline (resolve all, group by partition, grouped dispatch).
  ldap::LdapBatchResult SubmitBatch(const std::vector<ldap::LdapRequest>& requests,
                                    sim::SiteId client_site);

  // -- Cross-event coalescing (PoA dispatch window) ------------------------------

  /// Enqueues one signaling event into the PoA's cross-event dispatch
  /// window: the same client leg as SubmitBatch, then the event parks in
  /// the cluster's routing::Coalescer instead of executing inline. The
  /// result is collected with TakeEvent once the window flushes (PumpEvents
  /// when the sim clock passes the deadline, FlushEvents as a barrier). With
  /// `coalesce_window_us == 0` the event executes immediately and TakeEvent
  /// succeeds right away with a result identical to SubmitBatch. Unavailable
  /// when no PoA serves the client or its LDAP farm has no healthy server.
  StatusOr<uint64_t> SubmitEvent(const std::vector<ldap::LdapRequest>& requests,
                                 sim::SiteId client_site);

  /// The one pump: flushes every PoA window whose deadline has passed
  /// (completing its events), takes the migration steps the bandwidth budget
  /// affords and takes a due sampler tick.
  void PumpEvents();

  /// Closes all open windows now (end-of-run barrier).
  void FlushEvents();

  /// When PumpEvents next has work: the earliest open window deadline,
  /// migration chunk deadline ("now" when work is ready) or sampler tick;
  /// kTimeInfinity when there is none.
  MicroTime NextWakeup() const;

  /// Claims a completed event's result (client RTT included); nullopt while
  /// the event is still parked in its window.
  std::optional<ldap::LdapBatchResult> TakeEvent(uint64_t handle);

  /// The dispatch window of one cluster's PoA (introspection for tests and
  /// benches); nullptr for an unknown cluster.
  routing::Coalescer* coalescer(uint32_t cluster_id) {
    return cluster_id < coalescers_.size() ? coalescers_[cluster_id].get()
                                           : nullptr;
  }

  // -- Request semantics (behind the client leg) ---------------------------------

  /// Request semantics, entered at the PoA of `poa_site`: a batch of one
  /// through the same pipeline as ProcessBatch. The result's latency is the
  /// whole message's.
  ldap::LdapResult Process(const ldap::LdapRequest& request,
                           uint32_t poa_site);

  /// Multi-op request semantics: batchable verbs (search, compare, modify)
  /// ride the routing::Router::RouteBatch pipeline; Delete rides it too, as
  /// a master-only read plus a delete-record write sharing the grouped
  /// windows (population/bind bookkeeping applied from the outcomes); Add
  /// flushes the pending run and executes in place, preserving request
  /// order. An unknown verb fails inline with kProtocolError.
  ldap::LdapBatchResult ProcessBatch(const std::vector<ldap::LdapRequest>& requests,
                                     uint32_t poa_site);

  // -- Internal administration -----------------------------------------------------

  /// Specification of a new subscription.
  struct CreateSpec {
    std::vector<location::Identity> identities;
    storage::Record profile;
    /// Selective placement: pin the primary copy to this site (§3.5).
    std::optional<sim::SiteId> home_site;
  };
  struct CreateOutcome {
    location::LocationEntry entry;
    replication::WriteResult write;
  };

  /// Creates a subscription: places the record via the placement policy,
  /// writes the profile through the replication layer and provisions the
  /// identity-location maps.
  StatusOr<CreateOutcome> CreateSubscriber(const CreateSpec& spec,
                                           sim::SiteId origin_site);

  /// Removes a subscription and all its identity bindings.
  Status DeleteSubscriber(const location::Identity& id, sim::SiteId origin_site);

  /// Resolves an identity at the location stage local to `poa_site`
  /// (§3.3.1 decision 1: resolution never leaves the PoA).
  location::ResolveResult Locate(const location::Identity& id,
                                 sim::SiteId poa_site) {
    return router_.ResolveAt(id, poa_site);
  }

  /// Authoritative identity lookup (what a broadcast over all SEs returns).
  StatusOr<location::LocationEntry> AuthoritativeLookup(
      const location::Identity& id) const {
    return router_.AuthoritativeLookup(id);
  }

  // -- Maintenance ------------------------------------------------------------------

  /// Takes a whole cluster's front end out of (or back into) service: its
  /// PoA leaves the router's client rotation and its LDAP farm goes
  /// unhealthy, so clients transparently fail over to the next-nearest PoA.
  /// Storage replica state is untouched — a full site loss pairs this with
  /// CrashReplica on every copy the cluster's SEs host (and the replica
  /// sets' own failover detection promotes surviving secondaries).
  void SetClusterServing(uint32_t cluster_id, bool serving);

  /// Lets every slave copy apply all deliverable replication entries.
  void CatchUpAllPartitions() { map_.CatchUpAll(); }

  /// Runs the §5 consistency-restoration process on every partition,
  /// aggregating the merge report.
  replication::RestorationReport RestoreAllPartitions() {
    return map_.RestoreAll();
  }

 private:
  static bool IsIdentityAttr(const std::string& attr);
  static std::optional<location::IdentityType> IdentityTypeForAttr(
      const std::string& attr);

  std::vector<location::Identity> IdentitiesOfRecord(
      const storage::Record& record) const;
  std::unique_ptr<location::LocationStage> MakeLocationStage();

  /// Commission() plus, under PlacementKind::kHash, re-homing of every
  /// subscriber whose ring owner changed when new partitions joined — the
  /// consistent-hashing data migration that keeps {partition, key} a pure
  /// function of the identity (and so the location bypass correct).
  /// Re-homes ride the migration scheduler: inline when unthrottled,
  /// as paced background tasks (each identity bypass-excepted for its
  /// migration window) when a bandwidth cap is configured.
  void Commission();
  void RehomeHashKeyed();

  /// Executes one re-home task for the scheduler: ships the record to its
  /// live ring owner, rebinds every identity, keeps population bookkeeping.
  /// Returns the bytes moved (0 when the binding vanished or already
  /// agrees — the task is then a successful no-op).
  StatusOr<int64_t> RehomeOne(const migration::MigrationTaskSpec& spec);

  /// The one inline verb: creates the subscription the Add names.
  ldap::LdapResult DoAdd(const ldap::LdapRequest& request, uint32_t poa_site);

  /// Resolves the identity named by a request's DN, or by the equality
  /// `filter` of a single-level Search (nullptr: no parsed filter).
  StatusOr<location::Identity> RequestIdentity(
      const ldap::LdapRequest& request, const ldap::Filter* filter) const;

  replication::ReadPreference ReadPrefFor(const ldap::LdapRequest& request) const;

  /// A Search translated once at the LDAP boundary: its filter parsed and
  /// its requested attribute names resolved to ids.
  struct CompiledSearch {
    std::optional<ldap::Filter> filter;  ///< nullopt: `filter_error` says why.
    Status filter_error;
    /// Ids of the requested attributes (sorted, unique); complete when
    /// `requested_resolved` (every requested name was interned).
    std::vector<storage::AttrId> requested;
    bool requested_resolved = false;
  };

  /// Compiles `request` (a Search) into `out`. Returns the ids the replica
  /// must copy: the requested attributes plus every attribute the filter
  /// tests (sorted, unique). Empty means the whole record: no attribute
  /// list, or a name no record holds yet (not interned), which a coalesced
  /// write could intern before the read runs.
  std::vector<storage::AttrId> CompileSearch(const ldap::LdapRequest& request,
                                             CompiledSearch* out) const;

  /// Filter match + attribute projection over a fetched record (the verb
  /// semantics of Search after the data path returned the record, which may
  /// already be projected to the ids CompileSearch returned). Latency and
  /// staleness are the caller's to fill.
  ldap::LdapResult SearchResultFor(const ldap::LdapRequest& request,
                                   const CompiledSearch& search,
                                   storage::Record&& record) const;

  /// Translates a Modify request into pipeline mutations; FailedPrecondition
  /// when it touches an immutable identity attribute.
  StatusOr<std::vector<routing::Mutation>> MutationsFrom(
      const ldap::LdapRequest& request) const;

  /// Translates one batchable request into a pipeline operation; a Search
  /// is compiled into `search` on the way.
  StatusOr<routing::Operation> OperationFrom(const ldap::LdapRequest& request,
                                             CompiledSearch* search) const;

  /// Maps one pipeline outcome back onto the request's LDAP result and
  /// counts the per-verb metrics. A fetched record moves into the result.
  ldap::LdapResult ResultFromOutcome(const ldap::LdapRequest& request,
                                     const CompiledSearch& search,
                                     routing::OpOutcome& outcome);

  /// How one request of a multi-op event maps onto the pipeline batch.
  struct RequestSlot {
    enum class Kind {
      kPipeline,  ///< One batchable op at index `op`.
      kDelete,    ///< Master-only read at `op` + delete-record write at `write_op`.
      kInline,    ///< Outside the pipeline: an error result already final,
                  ///< or an Add the caller runs (DoAdd).
    };
    Kind kind = Kind::kInline;
    size_t op = 0;
    size_t write_op = 0;
    location::Identity identity;     ///< kDelete: DN identity to unbind.
    ldap::LdapResult inline_result;  ///< kInline.
    CompiledSearch search;           ///< kPipeline Search.
  };

  /// Completes a pipeline-routed Delete from its two outcomes: maps failures
  /// per op and, on success, applies the same population/bind bookkeeping as
  /// DeleteSubscriber (unbind every identity, which also drops any bypass
  /// exception; decrement population and the subscriber count).
  ldap::LdapResult FinishBatchedDelete(const location::Identity& id,
                                       const routing::OpOutcome& read,
                                       const routing::OpOutcome& write);

  /// The final LDAP result of one slot once its batch has been routed.
  ldap::LdapResult FinishSlot(const ldap::LdapRequest& request,
                              RequestSlot& slot,
                              std::vector<routing::OpOutcome>& outcomes);

  /// Translates one request of an event into a slot, appending pipeline ops
  /// to `batch`. Batchable verbs map 1:1; Delete maps to its read + write
  /// pair. A translation failure or unknown verb is a kInline slot with its
  /// error result final; an Add is a kInline slot the caller executes
  /// (flush the pending run, then DoAdd).
  RequestSlot SlotFor(const ldap::LdapRequest& request,
                      routing::BatchRequest* batch) const;

  /// The pipeline behind Process and ProcessBatch: one signaling event of
  /// `n` requests, routed as one batch split only at Adds.
  ldap::LdapBatchResult RunEvent(const ldap::LdapRequest* requests, size_t n,
                                 uint32_t poa_site);

  /// Per-event accounting shared by the inline and coalesced paths: batch
  /// counters, and one foreground op per request for migration pacing.
  void CountEvent(const ldap::LdapBatchResult& out);

  /// The client leg of one northbound message, shared by Submit, SubmitBatch
  /// and SubmitEvent.
  struct ClientLeg {
    sim::SiteId client_site = 0;
    BladeCluster* cluster = nullptr;  ///< The PoA's; null when none serves.
    MicroDuration protocol_cost = 0;  ///< The picked LDAP server's charge.
    /// Unavailable when no PoA serves the client or none of its LDAP
    /// servers is healthy.
    Status status;
  };

  /// Enters the nearest serving PoA: one balancer pick, then admission of
  /// `ops` ops on the picked server. A turned-away message is counted once,
  /// in udr.submit.unavailable.
  ClientLeg EnterPoa(sim::SiteId client_site, size_t ops);

  /// Latency the leg adds to the message: protocol cost plus one
  /// client <-> PoA round trip (LAN when co-located, §3.3.2 measure 1); the
  /// RPC timeout when no PoA serves the client.
  MicroDuration LegLatency(const ClientLeg& leg) const;

  /// Parks a multi-op request in cluster `cluster_id`'s cross-event dispatch
  /// window (Adds and untranslatable requests resolve inline at enqueue
  /// time) and returns its handle. With coalescing disabled the event runs
  /// at once and its result is ready immediately.
  uint64_t EnqueueBatch(const std::vector<ldap::LdapRequest>& requests,
                        uint32_t cluster_id);

  /// One event parked in a cluster's dispatch window, waiting for its flush.
  struct PendingEvent {
    uint32_t cluster = 0;
    routing::EventId event = 0;
    std::vector<ldap::LdapRequest> requests;
    std::vector<RequestSlot> slots;  ///< 1:1 with `requests`.
  };

  /// Builds the LdapBatchResult of a flushed event from its demuxed outcome.
  ldap::LdapBatchResult FinalizeEvent(PendingEvent& event,
                                      routing::EventOutcome& outcome);

  /// Moves every completed event of one cluster's coalescer into the
  /// ready-result map.
  void DrainCoalescer(uint32_t cluster_id);

  UdrConfig config_;
  sim::Network* network_;
  Metrics metrics_;
  // Data-path counters, registered once so the hot path skips name lookup.
  Metrics::Counter batch_count_;
  Metrics::Counter batch_ops_;
  Metrics::Counter batch_failed_ops_;
  Metrics::Counter search_ok_;
  Metrics::Counter modify_ok_;
  Metrics::Counter modify_failed_;
  Metrics::Counter delete_ok_;
  Metrics::Counter submit_ok_;
  Metrics::Counter submit_failed_;
  Metrics::Counter submit_unavailable_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;

  routing::PartitionMap map_;
  routing::Router router_;
  std::unique_ptr<routing::PlacementPolicy> placement_;
  migration::BandwidthModel bandwidth_model_;
  std::unique_ptr<migration::MigrationScheduler> migration_;

  std::vector<std::unique_ptr<BladeCluster>> clusters_;
  /// One cross-event dispatch window per cluster's PoA (1:1 with clusters_).
  std::vector<std::unique_ptr<routing::Coalescer>> coalescers_;
  /// Events parked in a window, keyed by enqueue handle.
  std::unordered_map<uint64_t, PendingEvent> pending_events_;
  /// Completed events awaiting TakeEvent.
  std::unordered_map<uint64_t, ldap::LdapBatchResult> ready_events_;
  /// Client leg of each in-flight SubmitEvent.
  std::unordered_map<uint64_t, ClientLeg> event_clients_;
  uint64_t next_event_handle_ = 1;
  storage::RecordKey next_key_ = 1;
  int64_t subscriber_count_ = 0;
};

}  // namespace udr::udrnf

#endif  // UDR_UDR_UDR_NF_H_
