#include "routing/router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "replication/write_builder.h"

namespace udr::routing {

using location::Identity;
using location::LocationEntry;
using location::ResolveResult;

Router::Router(PartitionMap* map, sim::Network* network, Metrics* metrics)
    : map_(map),
      network_(network),
      metrics_(metrics),
      routed_(metrics->RegisterCounter("router.routed")),
      bypass_hits_(metrics->RegisterCounter("router.bypass.hits")),
      cache_hits_(metrics->RegisterCounter("router.cache.hits")),
      cache_misses_(metrics->RegisterCounter("router.cache.misses")),
      batch_count_(metrics->RegisterCounter("router.batch.count")),
      batch_ops_(metrics->RegisterCounter("router.batch.ops")),
      batch_size_(metrics->RegisterHist("router.batch.size")),
      batch_groups_(metrics->RegisterHist("router.batch.groups")) {}

void Router::RegisterPoa(uint32_t cluster_id, sim::SiteId site,
                         location::LocationStage* stage) {
  // A freshly deployed stage starts with whatever its realization syncs on
  // its own (§3.4.2 provisioned copy, or cache-on-miss); the router only
  // fans out bindings made from now on.
  Poa poa;
  poa.cluster_id = cluster_id;
  poa.site = site;
  poa.stage = stage;
  if (heat_.poa_cache_bytes > 0) {
    poa.cache = std::make_unique<PoaCache>(
        PoaCacheConfig{heat_.poa_cache_bytes, heat_.cache_hit_cost});
  }
  poas_.push_back(std::move(poa));
}

void Router::ConfigureHeat(const HeatConfig& config) {
  heat_ = config;
  // A cache without the sketch has no admission signal; the tracker is the
  // prerequisite tier, so a cache budget implies tracking.
  if (heat_.poa_cache_bytes > 0) heat_.track = true;
  heat_tracker_ =
      heat_.track ? std::make_unique<HeatTracker>(heat_.tracker) : nullptr;
  for (Poa& poa : poas_) {
    poa.cache = heat_.poa_cache_bytes > 0
                    ? std::make_unique<PoaCache>(PoaCacheConfig{
                          heat_.poa_cache_bytes, heat_.cache_hit_cost})
                    : nullptr;
  }
}

PoaCache* Router::poa_cache_at(sim::SiteId site) {
  for (Poa& poa : poas_) {
    if (poa.site == site) return poa.cache.get();
  }
  return nullptr;
}

void Router::InvalidateCached(storage::RecordKey key) {
  for (Poa& poa : poas_) {
    if (poa.cache != nullptr && poa.cache->Invalidate(key)) {
      metrics_->Add("router.cache.invalidations");
    }
  }
}

void Router::BumpPartitionEpoch(uint32_t partition) {
  if (partition_epochs_.size() <= partition) {
    partition_epochs_.resize(partition + 1, 0);
  }
  ++partition_epochs_[partition];
  if (flight_ != nullptr) {
    flight_->Record(network_->Now(), "router", "epoch.bump",
                    "partition=" + std::to_string(partition) + " epoch=" +
                        std::to_string(partition_epochs_[partition]));
  }
}

const storage::Record* Router::CacheLookup(storage::RecordKey key,
                                           uint32_t partition,
                                           sim::SiteId poa_site) {
  PoaCache* cache = poa_cache_at(poa_site);
  if (cache == nullptr) return nullptr;
  const storage::Record* rec =
      cache->Lookup(key, partition, partition_epoch(partition));
  (rec != nullptr ? cache_hits_ : cache_misses_).Add();
  return rec;
}

void Router::CachePopulate(storage::RecordKey key, uint32_t partition,
                           sim::SiteId poa_site, const storage::Record& record,
                           bool stale) {
  // Policy: only non-stale reads may seed the cache — an entry must equal
  // the newest committed master state, or a hit would widen the staleness
  // window beyond what the replica set itself serves.
  if (stale) return;
  PoaCache* cache = poa_cache_at(poa_site);
  if (cache == nullptr) return;
  if (heat_tracker_ != nullptr &&
      heat_tracker_->KeyCount(key) < heat_.cache_admit_min_count) {
    return;
  }
  cache->Insert(key, partition, partition_epoch(partition), record);
  metrics_->Add("router.cache.insertions");
}

StatusOr<uint32_t> Router::FindPoaCluster(sim::SiteId client_site) const {
  int best = -1;
  MicroDuration best_rtt = 0;
  for (size_t i = 0; i < poas_.size(); ++i) {
    if (!poas_[i].serving) continue;
    sim::SiteId s = poas_[i].site;
    if (!network_->Reachable(client_site, s)) continue;
    MicroDuration rtt = network_->topology().Rtt(client_site, s);
    if (best < 0 || rtt < best_rtt) {
      best = static_cast<int>(i);
      best_rtt = rtt;
    }
  }
  if (best < 0) {
    return Status::Unavailable("no reachable Point of Access from site " +
                               std::to_string(client_site));
  }
  return poas_[best].cluster_id;
}

void Router::SetPoaServing(uint32_t cluster_id, bool serving) {
  for (Poa& poa : poas_) {
    if (poa.cluster_id == cluster_id) poa.serving = serving;
  }
}

bool Router::PoaServing(uint32_t cluster_id) const {
  for (const Poa& poa : poas_) {
    if (poa.cluster_id == cluster_id) return poa.serving;
  }
  return false;
}

location::LocationStage* Router::StageAtSite(sim::SiteId site) const {
  for (const Poa& poa : poas_) {
    if (poa.site == site) return poa.stage;
  }
  return nullptr;
}

StatusOr<LocationEntry> Router::AuthoritativeLookup(const Identity& id) const {
  const std::optional<LocationEntry> entry = authoritative_.Find(id);
  if (!entry) {
    return Status::NotFound("identity " + id.ToString() + " not provisioned");
  }
  return *entry;
}

void Router::Bind(const Identity& id, const LocationEntry& entry) {
  authoritative_.Bind(id, entry);
  for (const Poa& poa : poas_) {
    if (poa.stage != nullptr) (void)poa.stage->Bind(id, entry);
  }
}

void Router::Unbind(const Identity& id) {
  authoritative_.Unbind(id);
  // An unbound identity must not pin a bypass exception: the exception list
  // exists to protect live bindings the hash would misroute, and a leaked
  // entry would linger forever (and silently disable the fast path if the
  // identity is ever provisioned again).
  bypass_exceptions_.erase(id);
  for (const Poa& poa : poas_) {
    if (poa.stage != nullptr) (void)poa.stage->Unbind(id);
  }
}

ResolveResult Router::ResolveAt(const Identity& id, sim::SiteId poa_site) {
  location::LocationStage* stage = StageAtSite(poa_site);
  if (stage == nullptr) {
    ResolveResult out;
    out.status = Status::Unavailable("no location stage at site " +
                                     std::to_string(poa_site));
    return out;
  }
  return stage->Resolve(id, network_->Now());
}

RouteResult Router::ResolveOne(const Identity& id, sim::SiteId poa_site,
                               bool read_intent) {
  RouteResult out;
  // Hash fast path: under hash placement the owning partition and the record
  // key are pure functions of the identity, so an eligible read never needs
  // the location stage (no lookup state, no scale-out sync window).
  if (bypass_.enabled && read_intent && id.type == bypass_.identity_type &&
      map_->partition_count() > 0 && bypass_exceptions_.count(id) == 0) {
    out.status = Status::Ok();
    out.resolve_cost = bypass_.lookup_cost;
    out.key = location::HashIdentity(id);
    out.partition = map_->PartitionOfIdentity(id);
    out.rs = map_->partition(out.partition);
    out.bypassed_location = true;
    if (heat_tracker_ != nullptr) {
      heat_tracker_->RecordAccess(out.partition, out.key, network_->Now());
    }
    bypass_hits_.Add();
    routed_.Add();
    return out;
  }
  ResolveResult loc = ResolveAt(id, poa_site);
  out.resolve_cost = loc.cost;
  if (!loc.status.ok()) {
    out.status = loc.status;
    metrics_->Add("router.resolve.failed");
    if (flight_ != nullptr) {
      flight_->Record(network_->Now(), "router", "resolve.fail",
                      id.ToString() + " " + loc.status.ToString());
    }
    return out;
  }
  if (loc.entry.partition >= map_->partition_count()) {
    out.status = Status::Internal("location entry names unknown partition " +
                                  std::to_string(loc.entry.partition));
    return out;
  }
  out.status = Status::Ok();
  out.key = loc.entry.key;
  out.partition = loc.entry.partition;
  out.rs = map_->partition(loc.entry.partition);
  if (heat_tracker_ != nullptr) {
    heat_tracker_->RecordAccess(out.partition, out.key, network_->Now());
  }
  routed_.Add();
  return out;
}

RouteResult Router::Route(const Identity& id, sim::SiteId poa_site,
                          RouteIntent intent) {
  return ResolveOne(id, poa_site, intent == RouteIntent::kRead);
}

MicroDuration Router::DispatchGroup(const BatchRequest& batch,
                                    uint32_t partition, size_t first,
                                    sim::SiteId poa_site, BatchResult* result,
                                    const obs::TraceContext& span_parent,
                                    MicroTime dispatch_start) {
  replication::ReplicaSet* rs = map_->partition(partition);
  PoaCache* cache = poa_cache_at(poa_site);
  // The whole group ships to its replica set as one message: runs within it
  // execute in order, but their transits overlap in a single round-trip
  // window, so the group pays max(run transit) + the serialized service time.
  // Cache hits never enter the window at all — they cost PoA-local time.
  MicroDuration service_total = 0;
  MicroDuration window_transit = 0;
  MicroDuration cache_cost = 0;
  // Span attribution cursor in modelled time: each flushed run occupies
  // [cursor, cursor + run latency] and advances the cursor by its serialized
  // service share (the overlapping transits stay inside the run span).
  MicroTime span_cursor = dispatch_start;

  // Pending run of consecutive same-kind ops (one grouped dispatch each).
  // A kind switch flushes the other run first, so at most one run is
  // pending and one index list serves both.
  std::vector<std::vector<storage::WriteOp>> write_txns;
  std::vector<replication::BatchReadOp> read_ops;
  std::vector<size_t> run_idx;

  auto flush_writes = [&]() {
    if (write_txns.empty()) return;
    replication::GroupWriteResult gw =
        rs->WriteBatch(poa_site, std::move(write_txns));
    service_total += gw.latency - gw.transit;
    window_transit = std::max(window_transit, gw.transit);
    if (tracer_ != nullptr) {
      tracer_->RecordSpan("replica.write", span_parent, span_cursor,
                          span_cursor + gw.latency);
    }
    span_cursor += gw.latency - gw.transit;
    for (size_t j = 0; j < gw.per_op.size(); ++j) {
      OpOutcome& o = result->outcomes[run_idx[j]];
      o.status = std::move(gw.per_op[j].status);
      o.latency = gw.per_op[j].latency;
      o.seq = gw.per_op[j].seq;
      o.served_by = gw.per_op[j].served_by;
      if (!o.status.ok()) ++result->failed_ops;
      // Synchronous invalidation: a committed write must never leave a
      // cached copy behind, at this PoA or any other.
      if (o.status.ok()) InvalidateCached(o.key);
    }
    write_txns.clear();
    run_idx.clear();
  };
  auto flush_reads = [&]() {
    if (read_ops.empty()) return;
    replication::GroupReadResult gr = rs->ReadBatch(poa_site, read_ops);
    service_total += gr.latency - gr.transit;
    window_transit = std::max(window_transit, gr.transit);
    if (tracer_ != nullptr) {
      tracer_->RecordSpan("replica.read", span_parent, span_cursor,
                          span_cursor + gr.latency);
    }
    span_cursor += gr.latency - gr.transit;
    for (size_t j = 0; j < gr.per_op.size(); ++j) {
      const size_t idx = run_idx[j];
      OpOutcome& o = result->outcomes[idx];
      o.status = std::move(gr.per_op[j].status);
      o.latency = gr.per_op[j].latency;
      o.stale = gr.per_op[j].stale;
      o.served_by = gr.per_op[j].served_by;
      o.value = std::move(gr.per_op[j].value);
      o.record = std::move(gr.records[j]);
      if (!o.status.ok()) ++result->failed_ops;
      // Read-through population: a fresh whole-record read of a hot key
      // seeds this PoA's cache (admission filtered by the heat sketch).
      if (cache != nullptr && o.ok() && !o.stale && o.record.has_value() &&
          batch.ops[idx].kind == Operation::Kind::kReadRecord &&
          batch.ops[idx].read_pref == replication::ReadPreference::kNearest) {
        CachePopulate(o.key, o.partition, poa_site, *o.record, o.stale);
      }
    }
    read_ops.clear();
    run_idx.clear();
  };

  // Walk the group's ops in request order; consecutive writes commit as one
  // log-append window, consecutive reads probe as one fan-out. A kind switch
  // flushes the pending run first, preserving per-key op order.
  // Ops ahead of the cursor still carry their resolution outcome (dispatch
  // only writes outcomes at or behind it), so the filter picks exactly this
  // partition's resolved ops.
  for (size_t i = first; i < batch.ops.size(); ++i) {
    OpOutcome& o = result->outcomes[i];
    if (!o.ok() || o.partition != partition) continue;
    const Operation& op = batch.ops[i];
    if (op.kind == Operation::Kind::kWrite) {
      flush_reads();
      replication::WriteBuilder wb;
      for (const Mutation& m : op.mutations) {
        switch (m.kind) {
          case Mutation::Kind::kSet:
            wb.Set(o.key, m.attr, m.value);
            break;
          case Mutation::Kind::kRemove:
            wb.Remove(o.key, m.attr);
            break;
          case Mutation::Kind::kDeleteRecord:
            wb.Delete(o.key);
            break;
        }
      }
      write_txns.push_back(std::move(wb).Build());
      run_idx.push_back(i);
    } else {
      // Flushing pending writes FIRST both preserves per-key order and makes
      // the cache check below read-your-writes safe: any earlier write of
      // this batch has already committed and invalidated its key.
      flush_writes();
      if (TryServeFromCache(op, cache, &o)) {
        cache_cost += cache->hit_cost();
        ++result->cache_hits;
        if (!o.ok()) ++result->failed_ops;
        continue;
      }
      replication::BatchReadOp ro;
      ro.key = o.key;
      if (op.kind == Operation::Kind::kReadAttribute) ro.attr = op.attr;
      ro.pref = op.read_pref;
      // A read that may seed this PoA's cache copies the whole record.
      const bool may_populate =
          cache != nullptr &&
          op.read_pref == replication::ReadPreference::kNearest;
      if (!op.projection.empty() && !may_populate) {
        ro.projection = &op.projection;
      }
      read_ops.push_back(std::move(ro));
      run_idx.push_back(i);
    }
  }
  flush_writes();
  flush_reads();
  return window_transit + service_total + cache_cost;
}

bool Router::TryServeFromCache(const Operation& op, PoaCache* cache,
                               OpOutcome* out) {
  if (cache == nullptr || op.kind == Operation::Kind::kWrite) return false;
  // Policy boundary: only kNearest reads are cache-eligible. Master-only
  // reads (provisioning, delete preconditions) always see the primary.
  if (op.read_pref != replication::ReadPreference::kNearest) return false;
  const storage::Record* rec = cache->Lookup(
      out->key, out->partition, partition_epoch(out->partition));
  if (rec == nullptr) {
    cache_misses_.Add();
    return false;
  }
  out->from_cache = true;
  out->stale = false;
  out->latency = cache->hit_cost();
  if (op.kind == Operation::Kind::kReadAttribute) {
    // Mirrors ReplicaSet::ReadAttrOn exactly: the cached record equals the
    // master copy, so attribute presence/absence answers match too.
    const storage::Attribute* a = rec->Find(op.attr);
    if (a == nullptr) {
      out->status = Status::NotFound("attribute " + op.attr);
    } else {
      out->status = Status::Ok();
      out->value = a->value;
    }
  } else {
    out->status = Status::Ok();
    out->record = *rec;
  }
  cache_hits_.Add();
  return true;
}

BatchResult Router::RouteBatch(const BatchRequest& batch,
                               sim::SiteId poa_site) {
  BatchResult result;
  result.outcomes.resize(batch.ops.size());
  if (batch.empty()) return result;

  // Pipeline root span: covers the batch's whole modelled latency. All
  // stage spans hang off it in modelled time (the clock does not advance
  // while latencies are computed, so children close via EndAt/RecordSpan
  // at start + modelled cost).
  const MicroTime t0 = network_->Now();
  obs::Span batch_span = obs::StartSpan(tracer_, "route.batch", batch.trace);
  const obs::TraceContext batch_ctx = batch_span.context();

  // Stage 1: resolve every identity at the PoA (or via the hash bypass)
  // into its op's outcome. Stage 2: group the resolved ops by owning
  // partition. A group is its partition plus its first op; the dispatch
  // walks the ops from there in request order (stable grouping = per-key
  // order preserved). A batch touches few partitions, so a linear scan
  // beats a map of member lists.
  std::vector<std::pair<uint32_t, size_t>> groups;  // {partition, first op}
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const Operation& op = batch.ops[i];
    RouteResult route = ResolveOne(op.identity, poa_site, op.IsRead());
    result.resolve_cost += route.resolve_cost;
    OpOutcome& o = result.outcomes[i];
    o.bypassed_location = route.bypassed_location;
    if (route.bypassed_location) ++result.bypass_hits;
    if (!route.status.ok()) {
      // Per-op isolation: a failed resolution fails this op only.
      o.status = std::move(route.status);
      ++result.failed_ops;
      continue;
    }
    o.partition = route.partition;
    o.key = route.key;
    if (std::none_of(groups.begin(), groups.end(), [&](const auto& g) {
          return g.first == route.partition;
        })) {
      groups.emplace_back(route.partition, i);
    }
  }
  result.partition_groups = static_cast<int>(groups.size());
  if (tracer_ != nullptr) {
    tracer_->RecordSpan("resolve", batch_ctx, t0, t0 + result.resolve_cost);
  }

  // Stage 3: one grouped dispatch per replica set; groups fan out
  // concurrently from the PoA, so the batch pays the slowest one.
  const MicroTime dispatch_start = t0 + result.resolve_cost;
  MicroDuration slowest_group = 0;
  for (const auto& [partition, first] : groups) {
    obs::Span dispatch_span =
        tracer_ != nullptr
            ? tracer_->StartSpanAt("dispatch", batch_ctx, dispatch_start)
            : obs::Span();
    const MicroDuration group_latency =
        DispatchGroup(batch, partition, first, poa_site, &result,
                      dispatch_span.context(), dispatch_start);
    dispatch_span.EndAt(dispatch_start + group_latency);
    slowest_group = std::max(slowest_group, group_latency);
  }
  result.latency = result.resolve_cost + slowest_group;
  batch_span.EndAt(t0 + result.latency);

  batch_count_.Add();
  batch_ops_.Add(static_cast<int64_t>(batch.ops.size()));
  batch_size_.Observe(static_cast<int64_t>(batch.ops.size()));
  batch_groups_.Observe(result.partition_groups);
  return result;
}

}  // namespace udr::routing
