#include "udr/udr_nf.h"

#include <algorithm>

#include "ldap/filter.h"
#include "replication/write_builder.h"

namespace udr::udrnf {

using ldap::LdapBatchResult;
using ldap::LdapRequest;
using ldap::LdapResult;
using ldap::LdapResultCode;
using ldap::StatusToLdapCode;
using location::Identity;
using location::IdentityType;
using location::LocationEntry;
using replication::ReadPreference;
using replication::ReplicaSet;
using replication::WriteBuilder;
using storage::Record;

namespace {

routing::PartitionMapConfig MapConfigFrom(const UdrConfig& config) {
  routing::PartitionMapConfig mc;
  mc.replication_factor = config.replication_factor;
  mc.partitions_per_se = config.partitions_per_se;
  mc.rebalance_weight = config.rebalance_weight;
  mc.replica_template.sync_mode = config.sync_mode;
  mc.replica_template.partition_mode = config.partition_mode;
  mc.replica_template.merge_policy = config.merge_policy;
  mc.replica_template.failover_detection = config.failover_detection;
  mc.replica_template.async_ship_delay = config.async_ship_delay;
  return mc;
}

}  // namespace

UdrNf::UdrNf(UdrConfig config, sim::Network* network)
    : config_(std::move(config)),
      network_(network),
      batch_count_(metrics_.RegisterCounter("udr.batch.count")),
      batch_ops_(metrics_.RegisterCounter("udr.batch.ops")),
      batch_failed_ops_(metrics_.RegisterCounter("udr.batch.failed_ops")),
      search_ok_(metrics_.RegisterCounter("udr.search.ok")),
      modify_ok_(metrics_.RegisterCounter("udr.modify.ok")),
      modify_failed_(metrics_.RegisterCounter("udr.modify.failed")),
      delete_ok_(metrics_.RegisterCounter("udr.delete.ok")),
      submit_ok_(metrics_.RegisterCounter("udr.submit.ok")),
      submit_failed_(metrics_.RegisterCounter("udr.submit.failed")),
      submit_unavailable_(metrics_.RegisterCounter("udr.submit.unavailable")),
      map_(MapConfigFrom(config_), network),
      router_(&map_, network, &metrics_),
      placement_(routing::MakePlacementPolicy(config_.placement)),
      bandwidth_model_(
          migration::BandwidthModelConfig{config_.migration_bandwidth_bps,
                                          config_.migration_chunk_bytes},
          &network->topology()),
      migration_(std::make_unique<migration::MigrationScheduler>(
          migration::MigrationSchedulerConfig{
              config_.migration_window_us,
              config_.migration_foreground_cost_bytes},
          &map_, &router_, &bandwidth_model_, network, &metrics_)) {
  migration_->set_rehome_executor(
      [this](const migration::MigrationTaskSpec& spec) {
        return RehomeOne(spec);
      });
  if (config_.placement == routing::PlacementKind::kHash &&
      config_.hash_routed_reads) {
    routing::HashBypassConfig bypass;
    bypass.enabled = true;
    bypass.identity_type = config_.hash_identity_type;
    bypass.lookup_cost = config_.location_model.hash_lookup;
    router_.SetHashBypass(bypass);
  }
  if (config_.trace_sample_rate > 0) {
    obs::Tracer::Options topt;
    topt.sample_rate = config_.trace_sample_rate;
    topt.seed = config_.trace_seed;
    topt.max_spans = config_.trace_max_spans > 0
                         ? static_cast<size_t>(config_.trace_max_spans)
                         : 0;
    topt.lane = config_.trace_lane;
    tracer_ = std::make_unique<obs::Tracer>(topt, network_->clock());
    router_.set_tracer(tracer_.get());
    migration_->set_tracer(tracer_.get());
  }
  if (config_.flight_recorder_capacity > 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(
        static_cast<size_t>(config_.flight_recorder_capacity));
    router_.set_flight_recorder(flight_.get());
    migration_->set_flight_recorder(flight_.get());
  }
  if (config_.obs_sample_interval_us > 0) {
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(
        obs::TimeSeriesConfig{
            config_.obs_sample_interval_us,
            config_.obs_ring_capacity > 0
                ? static_cast<size_t>(config_.obs_ring_capacity)
                : 0},
        &metrics_, network_->clock());
    // Default series: the signals the ROADMAP control-plane loop consumes —
    // arrival/throughput rates for window sizing, queueing/batch quantiles
    // for the latency budget.
    sampler_->TrackCounter("router.routed");
    sampler_->TrackCounter("udr.batch.ops");
    sampler_->TrackCounter("coalescer.events");
    sampler_->TrackQuantile("router.batch.size", 50);
    sampler_->TrackQuantile("coalescer.queue_delay_us", 99);
  }
}

UdrNf::~UdrNf() = default;

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

std::unique_ptr<location::LocationStage> UdrNf::MakeLocationStage() {
  if (config_.location_kind == LocationKind::kProvisioned) {
    return std::make_unique<location::ProvisionedLocationStage>(
        router_.identity_index(), config_.location_model);
  }
  return std::make_unique<location::CachedLocationStage>(
      [this](const Identity& id) { return router_.AuthoritativeLookup(id); },
      [this]() { return TotalStorageElements(); }, config_.location_model);
}

StatusOr<BladeCluster*> UdrNf::AddCluster(sim::SiteId site) {
  if (clusters_.size() >= kMaxClustersPerNf) {
    return Status::ResourceExhausted("UDR NF already at 256 blade clusters");
  }
  auto cluster = std::make_unique<BladeCluster>(
      static_cast<uint32_t>(clusters_.size()), site, network_->clock());

  // Build every fallible piece before registering anything with the routing
  // layer: an early return destroys the cluster, and the map must never be
  // left holding pointers into it.
  std::vector<storage::StorageElement*> new_ses;
  for (int i = 0; i < config_.se_per_cluster; ++i) {
    storage::StorageElementConfig se_cfg = config_.se_template;
    auto se = cluster->AddStorageElement(
        se_cfg, static_cast<uint32_t>(map_.se_count() + new_ses.size()));
    if (!se.ok()) return se.status();
    new_ses.push_back(*se);
  }
  for (int i = 0; i < config_.ldap_per_cluster; ++i) {
    auto server = cluster->AddLdapServer(config_.ldap_template);
    if (!server.ok()) return server.status();
  }
  for (storage::StorageElement* se : new_ses) {
    map_.RegisterStorageElement(se, cluster->id());
  }

  auto stage = MakeLocationStage();
  if (config_.location_kind == LocationKind::kProvisioned && !clusters_.empty()) {
    // §3.4.2: the new data location stage instance syncs its identity maps
    // from a peer; the new PoA cannot serve until the copy completes.
    auto* self = static_cast<location::ProvisionedLocationStage*>(stage.get());
    auto* peer = static_cast<location::ProvisionedLocationStage*>(
        clusters_.front()->location_stage());
    if (peer != nullptr) {
      MicroDuration window = self->BeginSyncFrom(*peer, Now());
      metrics_.Observe("scaleout.sync_window_us", window);
    }
  }
  cluster->SetLocationStage(std::move(stage));
  router_.RegisterPoa(cluster->id(), site, cluster->location_stage());

  // The PoA's cross-event dispatch window. With coalesce_window_us == 0 the
  // coalescer is a passthrough and an enqueued event runs at once, so
  // deployments without the knob pay nothing.
  routing::CoalescerConfig cc;
  cc.window = config_.coalesce_window_us;
  cc.max_ops = config_.coalesce_max_ops > 0
                   ? static_cast<size_t>(config_.coalesce_max_ops)
                   : 0;
  cc.poa_site = site;
  coalescers_.push_back(std::make_unique<routing::Coalescer>(
      cc, &router_, network_->clock(), &metrics_));

  clusters_.push_back(std::move(cluster));
  return clusters_.back().get();
}

StatusOr<routing::RebalanceReport> UdrNf::Rebalance() {
  routing::RebalanceReport report;
  report.spread_before = map_.PrimarySpread();
  report.spread_after = report.spread_before;
  report.population_spread_before = map_.PopulationSpread();
  report.population_spread_after = report.population_spread_before;

  // Plan (unless a rebalance is already in flight — repeated calls drain the
  // existing delta instead of recomputing placement from scratch), then run
  // the primary moves to completion through the one migration scheduler.
  // Queued re-home tasks keep their throttle: the synchronous barrier is for
  // the rebalance delta only.
  StartMigration();
  const auto& tasks = migration_->tasks();
  std::vector<size_t> live;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!tasks[i].terminal() &&
        tasks[i].spec.kind == migration::TaskKind::kPrimaryMove) {
      live.push_back(i);
    }
  }
  migration_->DrainPrimaryMoves();

  for (size_t i : live) {
    const migration::MigrationTask& task = tasks[i];
    if (task.state == migration::TaskState::kFailed) {
      metrics_.Add("rebalance.failed");
      return task.error;
    }
    routing::PartitionMove move;
    move.partition = task.spec.partition;
    move.from_site =
        map_.se_info(static_cast<size_t>(task.spec.from_se)).se->site();
    move.to_site =
        map_.se_info(static_cast<size_t>(task.spec.to_se)).se->site();
    move.migration = task.report;
    report.entries_replayed += task.report.entries_replayed;
    report.bytes_moved += task.report.bytes_moved;
    report.duration += task.report.duration;
    report.moves.push_back(std::move(move));
  }
  report.spread_after = map_.PrimarySpread();
  report.population_spread_after = map_.PopulationSpread();

  metrics_.Add("rebalance.passes");
  metrics_.Add("rebalance.moves", static_cast<int64_t>(report.moves.size()));
  metrics_.Observe("rebalance.duration_us", report.duration);
  metrics_.Observe("rebalance.bytes_moved", report.bytes_moved);
  metrics_.Observe("rebalance.population_spread_after",
                   report.population_spread_after);
  return report;
}

migration::MigrationProgress UdrNf::StartMigration() {
  if (!migration_->RebalanceInFlight()) {
    migration::MigrationPlan plan =
        migration::MigrationPlanner::PlanRebalance(map_);
    if (!plan.empty()) {
      migration_->EnqueuePlan(plan);
      metrics_.Add("migration.plans");
      if (flight_ != nullptr) {
        flight_->Record(Now(), "migration", "plan.rebalance",
                        "tasks=" + std::to_string(plan.tasks.size()));
      }
    }
  }
  return migration_->Progress();
}

migration::MigrationProgress UdrNf::StartDecommission(int se_index) {
  migration::MigrationPlan plan =
      migration::MigrationPlanner::PlanDecommission(map_, se_index);
  if (!plan.empty()) {
    migration_->EnqueuePlan(plan);
    metrics_.Add("migration.decommission_plans");
    if (flight_ != nullptr) {
      flight_->Record(Now(), "migration", "plan.decommission",
                      "se=" + std::to_string(se_index) +
                          " tasks=" + std::to_string(plan.tasks.size()));
    }
  }
  return migration_->Progress();
}

void UdrNf::SetClusterServing(uint32_t cluster_id, bool serving) {
  if (cluster_id >= clusters_.size()) return;
  router_.SetPoaServing(cluster_id, serving);
  for (ldap::LdapServer* server : clusters_[cluster_id]->balancer().servers()) {
    server->set_healthy(serving);
  }
  metrics_.Add(serving ? "cluster.restored" : "cluster.drained");
  if (flight_ != nullptr) {
    flight_->Record(Now(), "cluster", serving ? "restored" : "drained",
                    "cluster=" + std::to_string(cluster_id));
  }
}

BladeCluster* UdrNf::ClusterAtSite(sim::SiteId site) {
  for (auto& c : clusters_) {
    if (c->site() == site) return c.get();
  }
  return nullptr;
}

int UdrNf::TotalStorageElements() const {
  int total = 0;
  for (const auto& c : clusters_) total += static_cast<int>(c->se_count());
  return total;
}

int64_t UdrNf::TotalLdapOpsPerSecond() const {
  int64_t total = 0;
  for (const auto& c : clusters_) total += c->LdapOpsPerSecond();
  return total;
}

int64_t UdrNf::TotalSubscriberCapacity(int64_t avg_record_bytes) const {
  int64_t total = 0;
  for (const auto& c : clusters_) {
    total += c->SubscriberCapacity(avg_record_bytes);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Identity helpers
// ---------------------------------------------------------------------------

bool UdrNf::IsIdentityAttr(const std::string& attr) {
  return IdentityTypeForAttr(attr).has_value();
}

std::optional<IdentityType> UdrNf::IdentityTypeForAttr(const std::string& attr) {
  if (attr == "imsi") return IdentityType::kImsi;
  if (attr == "msisdn") return IdentityType::kMsisdn;
  if (attr == "impu") return IdentityType::kImpu;
  if (attr == "impi") return IdentityType::kImpi;
  return std::nullopt;
}

std::vector<Identity> UdrNf::IdentitiesOfRecord(const Record& record) const {
  std::vector<Identity> out;
  for (const char* attr : {"imsi", "msisdn", "impi"}) {
    auto v = record.Get(attr);
    if (v.has_value()) {
      if (const auto* s = std::get_if<std::string>(&*v)) {
        out.push_back(Identity{*IdentityTypeForAttr(attr), *s});
      }
    }
  }
  auto impus = record.Get("impu");
  if (impus.has_value()) {
    if (const auto* xs = std::get_if<std::vector<std::string>>(&*impus)) {
      for (const auto& x : *xs) {
        out.push_back(Identity{IdentityType::kImpu, x});
      }
    } else if (const auto* s = std::get_if<std::string>(&*impus)) {
      out.push_back(Identity{IdentityType::kImpu, *s});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Subscriber administration
// ---------------------------------------------------------------------------

void UdrNf::Commission() {
  const size_t before = map_.partition_count();
  map_.Commission();
  if (config_.placement == routing::PlacementKind::kHash &&
      map_.partition_count() > before) {
    RehomeHashKeyed();
  }
}

void UdrNf::RehomeHashKeyed() {
  // The ring grew: ~K/N hash-keyed subscribers now hash to a new partition.
  // Each one becomes a re-home task through the migration scheduler; its
  // identity resolves through the location stage (bypass exception, added at
  // enqueue) for the whole migration window and goes back to the fast path
  // at cutover. Unthrottled deployments drain inline — the pre-subsystem
  // synchronous behavior; throttled ones drain through PumpEvents.
  migration::MigrationPlan plan = migration::MigrationPlanner::PlanRehome(
      router_, map_, config_.hash_identity_type);
  for (const Identity& id : plan.already_homed) {
    // The ring owner agrees with the provisioned location again (e.g. a
    // later ring change undid the split that once stranded this subscriber):
    // any bypass exception left from a failed re-home is obsolete and would
    // pin the slow path forever.
    router_.ClearBypassException(id);
  }
  if (plan.empty()) return;
  migration_->EnqueuePlan(plan);
  if (config_.migration_bandwidth_bps <= 0) migration_->DrainAll();
}

StatusOr<int64_t> UdrNf::RehomeOne(const migration::MigrationTaskSpec& spec) {
  // Revalidate against live state: the binding may have moved, vanished, or
  // been re-homed by a later ring change while the task sat in the queue.
  auto lookup = router_.AuthoritativeLookup(spec.identity);
  if (!lookup.ok()) return int64_t{0};  // Deleted meanwhile; nothing to move.
  const LocationEntry from_entry = *lookup;
  uint32_t owner = map_.PartitionOfIdentity(spec.identity);
  if (owner == from_entry.partition) return int64_t{0};  // Already homed.

  ReplicaSet* from = map_.partition(from_entry.partition);
  ReplicaSet* to = map_.partition(owner);
  auto record = from->ReadRecord(from->master_site(), from_entry.key,
                                 ReadPreference::kMasterOnly);
  replication::WriteResult write;
  if (record.ok()) {
    WriteBuilder put;
    put.PutRecord(from_entry.key, *record);
    write = to->Write(to->master_site(), std::move(put).Build());
  }
  if (!record.ok() || !write.status.ok()) {
    // The move failed; the old partition keeps the record and the binding,
    // and the enqueue-time bypass exception keeps routing this identity
    // through the location stage until a later ring change re-plans it.
    metrics_.Add("hash.rehome.failed");
    return record.ok() ? write.status : record.status();
  }
  // Partitions overlay a shared SE fleet (partitions_per_se > 1 puts several
  // partitions' copies on one SE), and each SE keeps ONE physical row per
  // record key. A
  // replicated delete through the old partition would therefore race the new
  // partition's put on every SE hosting copies of BOTH sides, erasing the
  // row the move just landed once the delete stream applies. Remove the old
  // copies surgically instead, and only from SEs exclusive to the old
  // partition — on shared SEs the row simply changes owners (the
  // destination's replication stream overwrites it in place).
  for (uint32_t r = 0; r < from->replica_count(); ++r) {
    storage::StorageElement* se = from->replica_se(r);
    bool shared = false;
    for (uint32_t d = 0; d < to->replica_count(); ++d) {
      if (to->replica_se(d) == se) {
        shared = true;
        break;
      }
    }
    if (!shared) se->store().DeleteRecord(from_entry.key);
  }

  LocationEntry entry;
  entry.key = from_entry.key;
  entry.partition = owner;
  for (const Identity& sub_id : IdentitiesOfRecord(*record)) {
    router_.Bind(sub_id, entry);
  }
  router_.Bind(spec.identity, entry);
  map_.AddPopulation(from_entry.partition, -1);
  map_.AddPopulation(owner, 1);
  metrics_.Add("hash.rehome.moved");
  return record->ApproxBytes();
}

StatusOr<UdrNf::CreateOutcome> UdrNf::CreateSubscriber(const CreateSpec& spec,
                                                       sim::SiteId origin_site) {
  if (spec.identities.empty()) {
    return Status::InvalidArgument("subscription needs at least one identity");
  }
  for (const Identity& id : spec.identities) {
    if (router_.IsBound(id)) {
      return Status::AlreadyExists("identity " + id.ToString() +
                                   " already provisioned");
    }
  }
  Commission();
  routing::PlacementRequest preq;
  preq.home_site = spec.home_site;
  preq.identity = &spec.identities.front();

  // Hash placement keys the record by identity hash, making {partition, key}
  // a pure function of the hash identity — that is what lets the router's
  // location bypass resolve reads without the location stage. The hash
  // identity is the first identity of the configured bypass type, so bypass
  // routing and placement always agree.
  const bool hash_keyed = config_.placement == routing::PlacementKind::kHash;
  if (hash_keyed) {
    const Identity* hash_id = nullptr;
    for (const Identity& id : spec.identities) {
      if (id.type != config_.hash_identity_type) continue;
      if (hash_id != nullptr) {
        // Two identities of the bypass type would each hash-route to their
        // own ring position while only one can key the record — bypassed
        // reads on the other would miss. Keep the placement function total.
        return Status::InvalidArgument(
            "hash placement allows one " +
            std::string(location::IdentityTypeName(
                config_.hash_identity_type)) +
            " per subscription");
      }
      hash_id = &id;
    }
    if (hash_id != nullptr) preq.identity = hash_id;
  }
  UDR_ASSIGN_OR_RETURN(uint32_t pidx, placement_->PickPartition(map_, preq));
  ReplicaSet* rs = map_.partition(pidx);

  // Capacity admission on the primary copy's storage element. (All copies
  // grow by the same amount; admission uses the primary.)
  int64_t bytes = spec.profile.ApproxBytes();
  UDR_RETURN_IF_ERROR(map_.primary_se(pidx)->CheckCapacity(bytes));

  storage::RecordKey key =
      hash_keyed ? location::HashIdentity(*preq.identity) : next_key_++;
  WriteBuilder wb;
  wb.PutRecord(key, spec.profile);
  replication::WriteResult write = rs->Write(origin_site, std::move(wb).Build());
  if (!write.status.ok()) {
    metrics_.Add("udr.create.rejected");
    return write.status;
  }


  LocationEntry entry;
  entry.key = key;
  entry.partition = pidx;
  for (const Identity& id : spec.identities) {
    router_.Bind(id, entry);
  }
  map_.AddPopulation(pidx, 1);
  ++subscriber_count_;
  metrics_.Add("udr.create.ok");

  CreateOutcome out;
  out.entry = entry;
  out.write = write;
  return out;
}

Status UdrNf::DeleteSubscriber(const Identity& id, sim::SiteId origin_site) {
  UDR_ASSIGN_OR_RETURN(LocationEntry entry, router_.AuthoritativeLookup(id));
  ReplicaSet* rs = map_.partition(entry.partition);
  auto record = rs->ReadRecord(origin_site, entry.key,
                               ReadPreference::kMasterOnly, nullptr);
  if (!record.ok()) return record.status();

  WriteBuilder wb;
  wb.Delete(entry.key);
  replication::WriteResult write = rs->Write(origin_site, std::move(wb).Build());
  if (!write.status.ok()) return write.status;

  // Unbind drops every identity's bypass exception too, so a subscriber that
  // landed on the exception list during a failed re-home does not leak an
  // entry past its own deletion.
  for (const Identity& sub_id : IdentitiesOfRecord(*record)) {
    router_.Unbind(sub_id);
  }
  router_.Unbind(id);  // Defensive: DN identity may not appear in attrs.
  map_.AddPopulation(entry.partition, -1);
  --subscriber_count_;
  delete_ok_.Add();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// LDAP front door
// ---------------------------------------------------------------------------

UdrNf::ClientLeg UdrNf::EnterPoa(sim::SiteId client_site, size_t ops) {
  ClientLeg leg;
  leg.client_site = client_site;
  auto poa = router_.FindPoaCluster(client_site);
  if (poa.ok()) {
    leg.cluster = clusters_[*poa].get();
    auto server = leg.cluster->balancer().Pick();
    if (server.ok()) {
      leg.protocol_cost = (*server)->Admit(ops);
      return leg;
    }
    leg.status = server.status();
  } else {
    leg.status = poa.status();
  }
  submit_unavailable_.Add();
  return leg;
}

MicroDuration UdrNf::LegLatency(const ClientLeg& leg) const {
  if (leg.cluster == nullptr) return network_->rpc_timeout();
  return leg.protocol_cost +
         network_->topology().Rtt(leg.client_site, leg.cluster->site()) +
         network_->topology().HopOverhead();
}

LdapResult UdrNf::Submit(const LdapRequest& request, sim::SiteId client_site) {
  const ClientLeg leg = EnterPoa(client_site, 1);
  if (!leg.status.ok()) {
    LdapResult r;
    r.code = LdapResultCode::kUnavailable;
    r.diagnostic = leg.status.message();
    r.latency = LegLatency(leg);
    return r;
  }
  LdapResult result = Process(request, leg.cluster->site());
  result.latency += LegLatency(leg);
  (result.ok() ? submit_ok_ : submit_failed_).Add();
  return result;
}

LdapBatchResult UdrNf::SubmitBatch(const std::vector<LdapRequest>& requests,
                                   sim::SiteId client_site) {
  const ClientLeg leg = EnterPoa(client_site, requests.size());
  LdapBatchResult out;
  if (leg.status.ok()) {
    out = RunEvent(requests.data(), requests.size(), leg.cluster->site());
    (out.ok() ? submit_ok_ : submit_failed_).Add();
  } else {
    out.results.resize(requests.size());
    for (LdapResult& r : out.results) {
      r.code = LdapResultCode::kUnavailable;
      r.diagnostic = leg.status.message();
    }
  }
  // One client <-> PoA round trip for the whole multi-op message — the
  // per-request transit the batch saves over Submit-per-op.
  out.latency += LegLatency(leg);
  return out;
}

StatusOr<uint64_t> UdrNf::SubmitEvent(const std::vector<LdapRequest>& requests,
                                      sim::SiteId client_site) {
  ClientLeg leg = EnterPoa(client_site, requests.size());
  if (!leg.status.ok()) return leg.status;
  const uint64_t handle = EnqueueBatch(requests, leg.cluster->id());
  event_clients_.emplace(handle, std::move(leg));
  return handle;
}

std::optional<ldap::LdapBatchResult> UdrNf::TakeEvent(uint64_t handle) {
  auto ready = ready_events_.find(handle);
  if (ready == ready_events_.end()) return std::nullopt;
  LdapBatchResult out = std::move(ready->second);
  ready_events_.erase(ready);
  auto client = event_clients_.find(handle);
  // One client <-> PoA round trip for the whole event, as on SubmitBatch.
  out.latency += LegLatency(client->second);
  event_clients_.erase(client);
  (out.ok() ? submit_ok_ : submit_failed_).Add();
  return out;
}

StatusOr<Identity> UdrNf::RequestIdentity(const LdapRequest& request,
                                          const ldap::Filter* filter) const {
  // Base-object operations name the subscriber in the DN leaf.
  if (!request.dn.empty()) {
    const ldap::Rdn& leaf = request.dn.leaf();
    auto type = IdentityTypeForAttr(leaf.attr);
    if (type.has_value()) {
      return Identity{*type, leaf.value};
    }
  }
  // Single-level searches under ou=subscribers use an equality filter on an
  // identity attribute (the SLF-style lookup pattern).
  if (filter != nullptr && request.op == ldap::LdapOp::kSearch &&
      request.scope == ldap::SearchScope::kSingleLevel &&
      filter->kind() == ldap::Filter::Kind::kEquality) {
    auto type = IdentityTypeForAttr(filter->attr());
    if (type.has_value()) {
      return Identity{*type, filter->value()};
    }
  }
  return Status::InvalidArgument(
      "request does not address a subscriber identity (dn=" +
      request.dn.ToString() + ")");
}

ReadPreference UdrNf::ReadPrefFor(const LdapRequest& request) const {
  if (request.master_only || !config_.fe_slave_reads) {
    return ReadPreference::kMasterOnly;
  }
  return ReadPreference::kNearest;
}

namespace {

/// (objectclass=*): every entry matches and no attribute is tested.
bool MatchesEverything(const ldap::Filter& filter) {
  return filter.kind() == ldap::Filter::Kind::kPresence &&
         filter.attr() == "objectclass";
}

/// Appends the ids of `names` to `ids`; false when a name is not interned.
bool AppendAttrIds(const std::vector<std::string>& names,
                   std::vector<storage::AttrId>* ids) {
  bool all = true;
  for (const std::string& name : names) {
    const storage::AttrId id = storage::LookupAttr(name);
    if (id == storage::kInvalidAttrId) {
      all = false;
    } else {
      ids->push_back(id);
    }
  }
  return all;
}

/// Appends the ids of every attribute `filter` tests; false when one is not
/// interned.
bool AppendFilterAttrIds(const ldap::Filter& filter,
                         std::vector<storage::AttrId>* ids) {
  if (filter.children().empty()) {
    const storage::AttrId id = storage::LookupAttr(filter.attr());
    if (id == storage::kInvalidAttrId) return false;
    ids->push_back(id);
    return true;
  }
  for (const ldap::Filter& child : filter.children()) {
    if (!AppendFilterAttrIds(child, ids)) return false;
  }
  return true;
}

void SortUnique(std::vector<storage::AttrId>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

std::vector<storage::AttrId> UdrNf::CompileSearch(const LdapRequest& request,
                                                  CompiledSearch* out) const {
  auto filter = ldap::Filter::Parse(request.filter);
  if (filter.ok()) {
    out->filter = *std::move(filter);
  } else {
    out->filter_error = filter.status();
  }
  out->requested_resolved =
      AppendAttrIds(request.requested_attrs, &out->requested);
  SortUnique(&out->requested);
  if (request.requested_attrs.empty() || !out->requested_resolved ||
      !out->filter.has_value()) {
    return {};
  }
  std::vector<storage::AttrId> projection = out->requested;
  if (!MatchesEverything(*out->filter)) {
    if (!AppendFilterAttrIds(*out->filter, &projection)) return {};
    SortUnique(&projection);
  }
  return projection;
}

LdapResult UdrNf::SearchResultFor(const LdapRequest& request,
                                  const CompiledSearch& search,
                                  storage::Record&& record) const {
  LdapResult r;
  if (!search.filter.has_value()) {
    r.code = LdapResultCode::kProtocolError;
    r.diagnostic = search.filter_error.message();
    return r;
  }
  if (MatchesEverything(*search.filter) || search.filter->Matches(record)) {
    ldap::SearchEntry entry;
    entry.dn = request.dn;
    entry.record = std::move(record);
    if (!request.requested_attrs.empty()) {
      // The entry carries only the requested attributes, as a fresh record.
      // Names not interned at translation are looked up again: a write may
      // have interned one since.
      std::vector<storage::AttrId> late;
      if (!search.requested_resolved) {
        AppendAttrIds(request.requested_attrs, &late);
        SortUnique(&late);
      }
      entry.record.Retain(search.requested_resolved ? search.requested : late);
      entry.record.set_version(0);
    }
    r.entries.push_back(std::move(entry));
  }
  r.code = LdapResultCode::kSuccess;
  return r;
}

LdapResult UdrNf::DoAdd(const LdapRequest& request, uint32_t poa_site) {
  LdapResult r;
  if (request.dn.empty() || !IsIdentityAttr(request.dn.leaf().attr)) {
    r.code = LdapResultCode::kUnwillingToPerform;
    r.diagnostic = "Add must target an identity-keyed subscriber DN";
    return r;
  }
  CreateSpec spec;
  spec.profile = request.add_entry;
  // The DN leaf identity plus any identity attributes in the entry.
  spec.identities.push_back(Identity{
      *IdentityTypeForAttr(request.dn.leaf().attr), request.dn.leaf().value});
  for (const Identity& id : IdentitiesOfRecord(request.add_entry)) {
    if (!(id == spec.identities.front())) spec.identities.push_back(id);
  }
  auto home = request.add_entry.Get("homesite");
  if (home.has_value()) {
    if (const auto* v = std::get_if<int64_t>(&*home)) {
      spec.home_site = static_cast<sim::SiteId>(*v);
    }
  }
  auto outcome = CreateSubscriber(spec, poa_site);
  if (!outcome.ok()) {
    r.code = StatusToLdapCode(outcome.status());
    r.diagnostic = outcome.status().message();
    r.latency += network_->rpc_timeout() / 100;  // Admission-failure handling.
    if (outcome.status().IsUnavailable()) r.latency = network_->rpc_timeout();
    return r;
  }
  r.latency += outcome->write.latency;
  r.code = LdapResultCode::kSuccess;
  return r;
}

StatusOr<std::vector<routing::Mutation>> UdrNf::MutationsFrom(
    const LdapRequest& request) const {
  std::vector<routing::Mutation> muts;
  muts.reserve(request.mods.size());
  for (const ldap::Modification& mod : request.mods) {
    if (IsIdentityAttr(mod.attr)) {
      return Status::FailedPrecondition(
          "identity attributes are immutable; delete and re-add");
    }
    routing::Mutation m;
    switch (mod.type) {
      case ldap::ModType::kAdd:
      case ldap::ModType::kReplace:
        m.kind = routing::Mutation::Kind::kSet;
        m.attr = mod.attr;
        m.value = mod.value;
        break;
      case ldap::ModType::kDelete:
        m.kind = routing::Mutation::Kind::kRemove;
        m.attr = mod.attr;
        break;
    }
    muts.push_back(std::move(m));
  }
  return muts;
}

// ---------------------------------------------------------------------------
// LDAP data path: one staged pipeline; a lone op is a batch of one
// ---------------------------------------------------------------------------

StatusOr<routing::Operation> UdrNf::OperationFrom(
    const LdapRequest& request, CompiledSearch* search) const {
  std::vector<storage::AttrId> projection;
  if (request.op == ldap::LdapOp::kSearch) {
    projection = CompileSearch(request, search);
  }
  UDR_ASSIGN_OR_RETURN(
      Identity identity,
      RequestIdentity(request, search->filter ? &*search->filter : nullptr));
  switch (request.op) {
    case ldap::LdapOp::kSearch: {
      routing::Operation op = routing::Operation::ReadRecord(
          std::move(identity), ReadPrefFor(request));
      op.projection = std::move(projection);
      return op;
    }
    case ldap::LdapOp::kCompare:
      return routing::Operation::ReadAttribute(
          std::move(identity), request.compare_attr, ReadPrefFor(request));
    case ldap::LdapOp::kModify: {
      UDR_ASSIGN_OR_RETURN(std::vector<routing::Mutation> muts,
                           MutationsFrom(request));
      return routing::Operation::Write(std::move(identity), std::move(muts));
    }
    default:
      return Status::Unimplemented(
          std::string(ldap::LdapOpName(request.op)) +
          " does not ride the batch pipeline");
  }
}

LdapResult UdrNf::ResultFromOutcome(const LdapRequest& request,
                                    const CompiledSearch& search,
                                    routing::OpOutcome& outcome) {
  LdapResult r;
  r.latency = outcome.latency;
  r.stale = outcome.stale;
  if (!outcome.ok()) {
    if (request.op == ldap::LdapOp::kModify) modify_failed_.Add();
    r.code = StatusToLdapCode(outcome.status);
    r.diagnostic = outcome.status.message();
    return r;
  }
  switch (request.op) {
    case ldap::LdapOp::kSearch: {
      if (!outcome.record.has_value()) {
        r.code = LdapResultCode::kNoSuchObject;
        r.diagnostic = "record missing from batch outcome";
        return r;
      }
      r = SearchResultFor(request, search, *std::move(outcome.record));
      r.latency = outcome.latency;
      r.stale = outcome.stale;
      if (r.ok()) search_ok_.Add();
      return r;
    }
    case ldap::LdapOp::kCompare:
      r.code = outcome.value.has_value() &&
                       storage::ValueToString(*outcome.value) ==
                           request.compare_value
                   ? LdapResultCode::kCompareTrue
                   : LdapResultCode::kCompareFalse;
      return r;
    case ldap::LdapOp::kModify:
      r.code = LdapResultCode::kSuccess;
      modify_ok_.Add();
      return r;
    default:
      r.code = LdapResultCode::kOperationsError;
      r.diagnostic = "unbatchable op in batch outcome";
      return r;
  }
}

ldap::LdapResult UdrNf::FinishBatchedDelete(const Identity& id,
                                            const routing::OpOutcome& read,
                                            const routing::OpOutcome& write) {
  LdapResult r;
  r.latency = read.latency + write.latency;
  if (!read.ok()) {
    r.code = StatusToLdapCode(read.status);
    r.diagnostic = read.status.message();
    return r;
  }
  if (!write.ok()) {
    r.code = StatusToLdapCode(write.status);
    r.diagnostic = write.status.message();
    return r;
  }
  // Same bookkeeping as DeleteSubscriber; Unbind also drops any bypass
  // exception each identity held, so delete churn cannot leak entries.
  for (const Identity& sub_id : IdentitiesOfRecord(*read.record)) {
    router_.Unbind(sub_id);
  }
  router_.Unbind(id);
  map_.AddPopulation(write.partition, -1);
  --subscriber_count_;
  delete_ok_.Add();
  r.code = LdapResultCode::kSuccess;
  return r;
}

LdapResult UdrNf::FinishSlot(const LdapRequest& request, RequestSlot& slot,
                             std::vector<routing::OpOutcome>& outcomes) {
  switch (slot.kind) {
    case RequestSlot::Kind::kPipeline:
      return ResultFromOutcome(request, slot.search, outcomes[slot.op]);
    case RequestSlot::Kind::kDelete:
      return FinishBatchedDelete(slot.identity, outcomes[slot.op],
                                 outcomes[slot.write_op]);
    case RequestSlot::Kind::kInline:
      break;
  }
  return std::move(slot.inline_result);
}

UdrNf::RequestSlot UdrNf::SlotFor(const LdapRequest& request,
                                  routing::BatchRequest* batch) const {
  RequestSlot slot;
  switch (request.op) {
    case ldap::LdapOp::kSearch:
    case ldap::LdapOp::kCompare:
    case ldap::LdapOp::kModify: {
      auto op = OperationFrom(request, &slot.search);
      if (!op.ok()) {
        slot.inline_result.code = StatusToLdapCode(op.status());
        slot.inline_result.diagnostic = op.status().message();
        return slot;
      }
      slot.kind = RequestSlot::Kind::kPipeline;
      slot.op = batch->size();
      batch->Add(*std::move(op));
      return slot;
    }
    case ldap::LdapOp::kDelete: {
      auto identity = RequestIdentity(request, nullptr);
      if (!identity.ok()) {
        slot.inline_result.code = StatusToLdapCode(identity.status());
        slot.inline_result.diagnostic = identity.status().message();
        return slot;
      }
      // A Delete rides the grouped windows as a master-only whole-record
      // read (existence check + the identity set to unbind) followed by a
      // delete-record write; per-key order makes the read observe the
      // record exactly as a solo DeleteSubscriber would.
      slot.kind = RequestSlot::Kind::kDelete;
      slot.identity = *identity;
      slot.op = batch->size();
      batch->Add(routing::Operation::ReadRecord(*identity,
                                                ReadPreference::kMasterOnly));
      slot.write_op = batch->size();
      batch->Add(routing::Operation::Write(
          *std::move(identity),
          {{routing::Mutation::Kind::kDeleteRecord, "", storage::Value{}}}));
      return slot;
    }
    case ldap::LdapOp::kAdd:
      // Add carries placement side effects the pipeline does not model: the
      // caller flushes the pending run and executes it in place (DoAdd).
      return slot;
  }
  slot.inline_result.code = LdapResultCode::kProtocolError;
  slot.inline_result.diagnostic = "unsupported operation";
  return slot;
}

void UdrNf::CountEvent(const LdapBatchResult& out) {
  const auto ops = static_cast<int64_t>(out.results.size());
  batch_count_.Add();
  batch_ops_.Add(ops);
  const int failed = out.failed_ops();
  if (failed > 0) batch_failed_ops_.Add(failed);
  // Priority coupling: foreground ops displace migration budget from the
  // scheduler's pacing window (no-op unless the knob is configured).
  migration_->OnForegroundOps(ops);
}

LdapResult UdrNf::Process(const LdapRequest& request, uint32_t poa_site) {
  // A lone op is a batch of one; its client-observed latency is the whole
  // message's (the per-result latency is only the op's service share).
  LdapBatchResult out = RunEvent(&request, 1, poa_site);
  LdapResult result = std::move(out.results.front());
  result.latency = out.latency;
  return result;
}

ldap::LdapBatchResult UdrNf::ProcessBatch(
    const std::vector<LdapRequest>& requests, uint32_t poa_site) {
  return RunEvent(requests.data(), requests.size(), poa_site);
}

ldap::LdapBatchResult UdrNf::RunEvent(const LdapRequest* requests, size_t n,
                                      uint32_t poa_site) {
  LdapBatchResult out;
  out.results.resize(n);

  // One trace per signaling event; the root "event" span covers the whole
  // modelled latency and the pipeline spans hang off it.
  const MicroTime event_start = Now();
  routing::BatchRequest batch;
  obs::Span event_span;
  if (tracer_ != nullptr) {
    event_span = tracer_->StartSpan("event", tracer_->StartTrace());
    batch.trace = event_span.context();
  }
  std::vector<std::pair<size_t, RequestSlot>> slots;  // request idx -> slot.
  slots.reserve(n);
  auto flush = [&]() {
    if (batch.empty()) return;
    routing::BatchResult br = router_.RouteBatch(batch, poa_site);
    out.latency += br.latency;
    out.partition_groups += br.partition_groups;
    out.bypass_hits += br.bypass_hits;
    for (auto& [idx, slot] : slots) {
      out.results[idx] = FinishSlot(requests[idx], slot, br.outcomes);
    }
    batch.ops.clear();
    slots.clear();
  };

  for (size_t i = 0; i < n; ++i) {
    RequestSlot slot = SlotFor(requests[i], &batch);
    if (slot.kind != RequestSlot::Kind::kInline) {
      slots.emplace_back(i, std::move(slot));
      continue;
    }
    if (requests[i].op == ldap::LdapOp::kAdd) {
      // Flush the pending run so per-key order holds, then execute in place.
      flush();
      slot.inline_result = DoAdd(requests[i], poa_site);
    }
    out.latency += slot.inline_result.latency;
    out.results[i] = std::move(slot.inline_result);
  }
  flush();
  event_span.EndAt(event_start + out.latency);
  CountEvent(out);
  return out;
}

// ---------------------------------------------------------------------------
// Cross-event coalescing (PoA dispatch window)
// ---------------------------------------------------------------------------

uint64_t UdrNf::EnqueueBatch(const std::vector<LdapRequest>& requests,
                             uint32_t cluster_id) {
  const uint64_t handle = next_event_handle_++;
  const sim::SiteId poa_site = clusters_[cluster_id]->site();
  if (config_.coalesce_window_us <= 0) {
    // Coalescing off: the event runs the inline pipeline at once,
    // byte-identical to SubmitBatch.
    ready_events_.emplace(handle, ProcessBatch(requests, poa_site));
    return handle;
  }

  routing::Coalescer& window = *coalescers_[cluster_id];
  for (const LdapRequest& req : requests) {
    if (req.op == ldap::LdapOp::kAdd) {
      // An Add cannot wait in the window (its placement/binding side effects
      // must not be reordered against parked ops on the same keys), and its
      // event's internal order must hold too. Close the window — everything
      // that arrived earlier dispatches first, preserving arrival order —
      // then run the whole event inline, exactly as serial execution would.
      window.FlushNow();
      DrainCoalescer(cluster_id);
      metrics_.Add("udr.event.inline_add");
      ready_events_.emplace(handle, ProcessBatch(requests, poa_site));
      return handle;
    }
  }

  PendingEvent event;
  event.cluster = cluster_id;
  event.requests = requests;
  routing::BatchRequest batch;
  event.slots.reserve(requests.size());
  for (const LdapRequest& req : requests) {
    // Adds were handled above: every kInline slot here is a request that
    // failed translation, with its error result already final.
    event.slots.push_back(SlotFor(req, &batch));
  }

  if (batch.empty()) {
    // Every request resolved inline; the event never enters the window.
    LdapBatchResult out;
    out.results.reserve(event.slots.size());
    for (RequestSlot& slot : event.slots) {
      out.results.push_back(std::move(slot.inline_result));
    }
    CountEvent(out);
    ready_events_.emplace(handle, std::move(out));
    return handle;
  }

  // A parked event carries its own trace into the window: the coalescer
  // records its park wait and hangs the shared flush's pipeline spans off
  // the first sampled trace of the window.
  if (tracer_ != nullptr) batch.trace = tracer_->StartTrace();
  event.event = window.Submit(std::move(batch));
  pending_events_.emplace(handle, std::move(event));
  metrics_.Add("udr.event.enqueued");
  // Drain only when the submit itself closed the window (size cap hit) —
  // the common parked submit leaves nothing to take.
  if (!window.HasPending()) DrainCoalescer(cluster_id);
  return handle;
}

ldap::LdapBatchResult UdrNf::FinalizeEvent(PendingEvent& event,
                                           routing::EventOutcome& outcome) {
  LdapBatchResult out;
  out.results.reserve(event.slots.size());
  for (size_t i = 0; i < event.slots.size(); ++i) {
    out.results.push_back(
        FinishSlot(event.requests[i], event.slots[i], outcome.outcomes));
  }
  // Latency split: time parked in the window is reported apart from the
  // shared dispatch's service share.
  out.queue_delay = outcome.queue_delay;
  out.latency = outcome.queue_delay + outcome.service_latency;
  out.partition_groups = outcome.partition_groups;
  out.bypass_hits = outcome.bypass_hits;
  out.coalesced_events = outcome.coalesced_events;
  CountEvent(out);
  return out;
}

void UdrNf::DrainCoalescer(uint32_t cluster_id) {
  routing::Coalescer& window = *coalescers_[cluster_id];
  for (auto it = pending_events_.begin(); it != pending_events_.end();) {
    if (it->second.cluster != cluster_id) {
      ++it;
      continue;
    }
    auto outcome = window.Take(it->second.event);
    if (!outcome.has_value()) {
      ++it;
      continue;
    }
    ready_events_.emplace(it->first, FinalizeEvent(it->second, *outcome));
    it = pending_events_.erase(it);
  }
}

void UdrNf::PumpEvents() {
  for (uint32_t c = 0; c < coalescers_.size(); ++c) {
    if (coalescers_[c]->FlushIfDue()) DrainCoalescer(c);
  }
  // One sim loop drives all the background primitives: the PoA dispatch
  // windows, the migration scheduler and the time-series sampler's tick.
  migration_->Pump();
  if (sampler_ != nullptr) sampler_->MaybeSample();
}

void UdrNf::FlushEvents() {
  for (uint32_t c = 0; c < coalescers_.size(); ++c) {
    coalescers_[c]->FlushNow();
    DrainCoalescer(c);
  }
}

MicroTime UdrNf::NextWakeup() const {
  MicroTime next = migration_->NextDeadline();
  if (sampler_ != nullptr) next = std::min(next, sampler_->NextSampleDue());
  for (const auto& window : coalescers_) {
    next = std::min(next, window->deadline());
  }
  return next;
}

}  // namespace udr::udrnf
