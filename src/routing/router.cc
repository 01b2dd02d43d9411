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
  poas_.push_back(poa);
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
  // The whole group ships to its replica set as one message: runs within it
  // execute in order, but their transits overlap in a single round-trip
  // window, so the group pays max(run transit) + the serialized service time.
  MicroDuration service_total = 0;
  MicroDuration window_transit = 0;
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
      OpOutcome& o = result->outcomes[run_idx[j]];
      o.status = std::move(gr.per_op[j].status);
      o.latency = gr.per_op[j].latency;
      o.stale = gr.per_op[j].stale;
      o.served_by = gr.per_op[j].served_by;
      o.value = std::move(gr.per_op[j].value);
      o.record = std::move(gr.records[j]);
      if (!o.status.ok()) ++result->failed_ops;
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
      flush_writes();
      replication::BatchReadOp ro;
      ro.key = o.key;
      if (op.kind == Operation::Kind::kReadAttribute) ro.attr = op.attr;
      ro.pref = op.read_pref;
      if (!op.projection.empty()) ro.projection = &op.projection;
      read_ops.push_back(std::move(ro));
      run_idx.push_back(i);
    }
  }
  flush_writes();
  flush_reads();
  return window_transit + service_total;
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
