#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "ldap/dn.h"
#include "ldap/filter.h"
#include "replication/write_builder.h"
#include "routing/batch.h"
#include "scenario/verifier.h"
#include "storage/attr_pool.h"
#include "telecom/front_end.h"
#include "workload/zipf.h"

namespace perfbench {

namespace {

namespace attr = udr::telecom::attr;
using udr::ldap::LdapOp;
using udr::ldap::LdapRequest;
using udr::location::Identity;
using udr::replication::ReadPreference;
using udr::sim::SiteId;

constexpr int kReplayOps = 3000;       ///< Replayed ops per traced run.
constexpr int kAttrRepeat = 8;         ///< Attribute lookups per timing.
constexpr int kMetricsRepeat = 16;     ///< Metrics adds per timing.
constexpr int kAuditRounds = 5;
constexpr int kAuditSubscribers = 1000;
constexpr int kProvisionChunks = 10;
constexpr int kProvisionChunk = 200;
constexpr uint64_t kProbeIndexBase = 50000000;  ///< Fresh subscriber indices.
constexpr int64_t kReplayStampBase = 1000000000;
constexpr int64_t kExecProbeSubscribers = 20000;
constexpr int64_t kExecProbeOps = 200000;
/// Share of storm_mix FE procedures that are storm re-attaches.
constexpr double kStormEventShare =
    (kStormSimSeconds - 2) * kStormEventsPerTick /
    static_cast<double>((kStormSimSeconds - 2) * kStormEventsPerTick + 2);

/// Exposes the FE request builders and the op-list runner every HLR/HSS
/// procedure is made of.
class ReplayFe : public udr::telecom::FrontEnd {
 public:
  ReplayFe(SiteId site, udr::udrnf::UdrNf* udr)
      : FrontEnd("replay-fe", site, udr) {}
  using FrontEnd::MakeRead;
  using FrontEnd::MakeWrite;
  using FrontEnd::RunOps;
};

/// The procedure shapes the workloads issue.
enum class Proc {
  kAuthenticate,
  kSendRoutingInfo,
  kSmsRouting,
  kInterrogateSs,
  kUpdateLocation,
  kImsLocate,
  kImsRegister,
  kImsDeregister,
  kShardRead,
  kShardWrite,
};

/// One op of the replay stream: its shape, without a subscriber. Each layer
/// binds it to a subscriber of its own, so no layer runs on keys another
/// layer has just warmed.
struct Shape {
  Proc proc = Proc::kAuthenticate;
  bool roam = false;
  uint64_t roam_pick = 0;
  int64_t value = 0;  ///< Written integer (location area, shard seq).
};

/// A shape bound to one subscriber: the LDAP requests an FE would send.
struct Bound {
  Identity identity;
  SiteId site = 0;
  std::vector<LdapRequest> requests;
};

/// Spans kept in memory, written out as Chrome trace-event JSON at the end.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start;
    int64_t end;
    uint64_t id;
    uint64_t parent;
    uint64_t rid;
  };

  uint64_t Reserve() { return ++last_id_; }
  void Add(uint64_t id, const char* name, int64_t start, int64_t end,
           uint64_t parent, uint64_t rid) {
    spans_.push_back({name, start, end, id, parent, rid});
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":0,\"tid\":0,\"args\":{\"rid\":%llu,\"span\":%llu,"
                   "\"parent\":%llu}}%s\n",
                   s.name, (s.start - origin) / 1e3, (s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(s.rid),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  uint64_t last_id_ = 0;
};

/// Per-layer timing samples, in ns.
using Samples = std::map<std::string, std::vector<double>>;

/// Times `fn` and records it as a child span of `parent`.
template <typename Fn>
int64_t Timed(SpanLog& log, const char* name, uint64_t parent, uint64_t rid,
              Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  log.Add(log.Reserve(), name, start, end, parent, rid);
  return end - start;
}

/// What the replay runs against, per workload.
struct Target {
  udr::udrnf::UdrNf* udr = nullptr;
  const udr::telecom::SubscriberFactory* factory = nullptr;
  uint32_t sites = 1;
  bool pinned = false;
  std::function<uint64_t(udr::Rng&)> draw;   ///< Subscriber draw.
  std::function<Shape(udr::Rng&)> shape;     ///< Op-shape draw.
};

Shape FeMixShape(udr::Rng& rng, bool roaming) {
  Shape s;
  s.roam = roaming && rng.Bernoulli(0.05);
  s.roam_pick = rng.Uniform(1000);
  const bool ims = rng.Bernoulli(0.15);
  const double pick = rng.NextDouble();
  if (ims) {
    s.proc = pick < 0.55   ? Proc::kImsLocate
             : pick < 0.80 ? Proc::kImsRegister
                           : Proc::kImsDeregister;
  } else {
    s.proc = pick < 0.35   ? Proc::kAuthenticate
             : pick < 0.55 ? Proc::kSendRoutingInfo
             : pick < 0.70 ? Proc::kSmsRouting
             : pick < 0.80 ? Proc::kInterrogateSs
                           : Proc::kUpdateLocation;
  }
  return s;
}

Bound Bind(const Target& t, const ReplayFe& fe, const Shape& shape,
           uint64_t index) {
  const udr::telecom::Subscriber sub = t.factory->Make(index);
  Bound b;
  const SiteId home = t.pinned ? static_cast<SiteId>(index % t.sites) : 0;
  b.site = home;
  if (shape.roam && t.sites > 1) {
    b.site = static_cast<SiteId>(
        (home + 1 + shape.roam_pick % (t.sites - 1)) % t.sites);
  }
  const std::string site = std::to_string(b.site);
  auto& r = b.requests;
  switch (shape.proc) {
    case Proc::kAuthenticate:
      b.identity = sub.ImsiId();
      r.push_back(fe.MakeRead(b.identity, {attr::kAuthKey, attr::kSqn}));
      break;
    case Proc::kSendRoutingInfo:
      b.identity = sub.MsisdnId();
      r.push_back(
          fe.MakeRead(b.identity, {attr::kServingVlr, attr::kLocationArea}));
      r.push_back(fe.MakeRead(
          b.identity, {attr::kOdbPremium, attr::kCallForwardingUncond}));
      break;
    case Proc::kSmsRouting:
      b.identity = sub.MsisdnId();
      r.push_back(
          fe.MakeRead(b.identity, {attr::kServingVlr, attr::kTeleservices}));
      break;
    case Proc::kInterrogateSs:
      b.identity = sub.MsisdnId();
      r.push_back(fe.MakeRead(b.identity, {attr::kCallForwardingUncond}));
      break;
    case Proc::kUpdateLocation: {
      b.identity = sub.ImsiId();
      r.push_back(
          fe.MakeRead(b.identity, {attr::kRoamingAllowed, attr::kCategory}));
      LdapRequest update =
          fe.MakeWrite(b.identity, attr::kServingVlr, "vlr" + site);
      update.mods.push_back(udr::ldap::Modification{
          udr::ldap::ModType::kReplace, attr::kLocationArea, shape.value});
      r.push_back(std::move(update));
      break;
    }
    case Proc::kImsLocate:
      b.identity = sub.ImpuId();
      r.push_back(fe.MakeRead(b.identity, {attr::kServingCscf}));
      r.push_back(fe.MakeRead(b.identity, {attr::kRegistrationState}));
      break;
    case Proc::kImsRegister:
      b.identity = sub.ImpuId();
      r.push_back(
          fe.MakeRead(b.identity, {attr::kImpi, attr::kRegistrationState}));
      r.push_back(fe.MakeRead(b.identity, {attr::kAuthKey, attr::kSqn}));
      r.push_back(fe.MakeWrite(b.identity, attr::kServingCscf, "scscf" + site));
      r.push_back(fe.MakeWrite(b.identity, attr::kRegistrationState,
                               std::string("registered")));
      r.push_back(
          fe.MakeRead(b.identity, {attr::kTeleservices, attr::kOdbPremium}));
      r.push_back(fe.MakeRead(b.identity, {attr::kChargingProfile}));
      break;
    case Proc::kImsDeregister:
      b.identity = sub.ImpuId();
      r.push_back(fe.MakeRead(b.identity, {attr::kRegistrationState}));
      r.push_back(fe.MakeWrite(b.identity, attr::kRegistrationState,
                               std::string("deregistered")));
      break;
    case Proc::kShardRead:
      b.identity = sub.ImsiId();
      r.push_back(fe.MakeRead(b.identity, {attr::kMsisdn}));
      break;
    case Proc::kShardWrite:
      b.identity = sub.ImsiId();
      r.push_back(fe.MakeWrite(b.identity, "shard-seq", shape.value));
      break;
  }
  return b;
}

/// The batch-pipeline form of a request (what UdrNf translates it into).
udr::routing::Operation ToOperation(const LdapRequest& req,
                                    const Identity& id) {
  if (req.op != LdapOp::kModify) return udr::routing::Operation::ReadRecord(id);
  std::vector<udr::routing::Mutation> muts;
  for (const auto& mod : req.mods) {
    udr::routing::Mutation m;
    m.kind = udr::routing::Mutation::Kind::kSet;
    m.attr = mod.attr;
    m.value = mod.value;
    muts.push_back(std::move(m));
  }
  return udr::routing::Operation::Write(id, std::move(muts));
}

void AddTiming(JsonObject* out, const std::string& name,
               const std::vector<double>& v) {
  out->Num(name + ".p50", Quantile(v, 0.5));
  out->Num(name + ".p99", Quantile(v, 0.99));
  out->Int(name + ".n", static_cast<int64_t>(v.size()));
}

/// Host figures of one sharded run with every Submit timed.
struct ExecFigures {
  std::vector<double> submit_ns_per_op;
  double stall_share = 0.0;
  double busy_share = 0.0;
  double ops_per_busy_s = 0.0;
  double imbalance = 0.0;
};

ExecFigures ExecProbe(uint64_t seed, int64_t population, int64_t ops,
                      double write_share, double zipf_theta) {
  udr::exec::ShardRuntimeOptions ro;
  ro.num_shards = kShards;
  ro.shard.total_subscribers = population;
  ro.shard.seed = seed;
  // Never torn down: the process exits once its figures are printed.
  auto* runtime = new udr::exec::ShardRuntime(ro);
  ShardPlan plan =
      PlanShardOps(*runtime, population, ops, write_share, zipf_theta, seed);
  runtime->Start();
  ExecFigures f;
  f.submit_ns_per_op.reserve(plan.handoffs.size());
  int64_t stalled = 0;
  const int64_t t0 = NowNs();
  for (auto& [shard, batch] : plan.handoffs) {
    const double n = static_cast<double>(batch.ops.size());
    const int64_t s = NowNs();
    runtime->Submit(std::move(batch), shard);
    const int64_t dt = NowNs() - s;
    stalled += dt;
    f.submit_ns_per_op.push_back(dt / n);
  }
  const udr::exec::ShardRuntimeReport& rep = runtime->Finish();
  const double wall = static_cast<double>(NowNs() - t0);
  int64_t busy = 0;
  int64_t max_ops = 0;
  std::vector<double> rates;
  for (const auto& s : rep.shards) {
    busy += s.busy_ns;
    max_ops = std::max(max_ops, s.ops);
    rates.push_back(s.ops_per_busy_sec());
  }
  const double mean_ops = static_cast<double>(rep.ops_done) / kShards;
  f.stall_share = stalled / wall;
  f.busy_share = busy / (kShards * wall);
  f.ops_per_busy_s = Quantile(rates, 0.5);
  f.imbalance = mean_ops > 0 ? max_ops / mean_ops : 0.0;
  return f;
}

}  // namespace

TracedResult RunTraced(const std::string& workload, uint64_t seed,
                       const EndToEnd& untraced, LiveBed* live,
                       const std::string& trace_out) {
  TracedResult result;
  JsonObject& out = result.metrics;

  // -- Counts from the untraced run, read before the replay writes ---------
  const udr::Metrics& reg = live->registry;
  int64_t stale_reads = 0;
  int64_t reads_served = 0;
  int64_t log_entries = 0;
  int64_t model_bytes = 0;
  for (udr::udrnf::UdrNf* u : live->udrs) {
    for (size_t p = 0; p < u->partition_count(); ++p) {
      const auto* rs = u->partition(static_cast<uint32_t>(p));
      stale_reads += rs->stale_reads();
      reads_served += rs->reads_served();
      log_entries += static_cast<int64_t>(rs->log().size());
    }
    for (size_t c = 0; c < u->cluster_count(); ++c) {
      for (const auto& se :
           u->cluster(static_cast<uint32_t>(c))->storage_elements()) {
        model_bytes += se->store().ApproxBytes();
      }
    }
  }
  const double subs = static_cast<double>(std::max<int64_t>(1, untraced.subscribers));
  const double model_per_sub = model_bytes / subs;

  // -- Replay target ---------------------------------------------------------
  Target t;
  udr::workload::Testbed* admin_bed = nullptr;  // Provision/audit probes.
  double setup_catchup_s = untraced.catchup_s;
  std::unique_ptr<udr::workload::ZipfGenerator> zipf;
  double exec_zipf = 0.0;
  if (workload == "fe_reads") {
    admin_bed = live->bed.get();
    t.udr = &admin_bed->udr();
    t.factory = &admin_bed->factory();
    t.sites = admin_bed->options().sites;
    t.pinned = true;
    t.draw = [](udr::Rng& rng) { return rng.Uniform(kFeSubscribers); };
    t.shape = [](udr::Rng& rng) { return FeMixShape(rng, true); };
  } else if (workload == "storm_mix") {
    admin_bed = &live->engine->testbed();
    t.udr = &admin_bed->udr();
    t.factory = &admin_bed->factory();
    t.sites = admin_bed->options().sites;
    t.pinned = true;
    zipf = std::make_unique<udr::workload::ZipfGenerator>(kStormSubscribers,
                                                         kStormZipf);
    exec_zipf = kStormZipf;
    t.draw = [&zipf](udr::Rng& rng) { return zipf->Next(rng); };
    t.shape = [](udr::Rng& rng) {
      if (rng.Bernoulli(kStormEventShare)) {
        Shape s;
        s.proc = Proc::kUpdateLocation;
        return s;
      }
      return FeMixShape(rng, false);
    };
  } else {
    // Shard 0's data-path slice, on keys that shard owns.
    udr::exec::ShardRuntime* rt = live->runtime.get();
    t.udr = &rt->shard(0).udr();
    t.factory = live->shard_factory.get();
    t.sites = 1;
    t.draw = [rt](udr::Rng& rng) {
      uint64_t sub = rng.Uniform(kShardSubscribers);
      while (rt->ShardOf(sub) != 0) sub = rng.Uniform(kShardSubscribers);
      return sub;
    };
    t.shape = [](udr::Rng& rng) {
      Shape s;
      s.proc = rng.NextDouble() < kShardWriteShare ? Proc::kShardWrite
                                                   : Proc::kShardRead;
      return s;
    };
    // Verifier and provisioning need a Testbed: a one-site bed shaped like
    // one shard, holding that shard's share of the population.
    udr::workload::TestbedOptions o;
    o.sites = 1;
    o.seed = seed;
    o.udr.replication_factor = 2;
    o.udr.se_per_cluster = 2;
    o.udr.partitions_per_se = 2;
    o.subscribers = kShardSubscribers / kShards;
    admin_bed = new udr::workload::Testbed(o);  // Never torn down.
    const int64_t c0 = NowNs();
    admin_bed->clock().Advance(udr::Seconds(1));
    admin_bed->udr().CatchUpAllPartitions();
    setup_catchup_s = (NowNs() - c0) / 1e9;
  }

  std::vector<std::unique_ptr<ReplayFe>> fes;
  for (uint32_t s = 0; s < t.sites; ++s) {
    fes.push_back(std::make_unique<ReplayFe>(s, t.udr));
  }
  udr::routing::Router& router = t.udr->router();
  udr::Metrics& metrics = t.udr->metrics();
  std::vector<std::string> counter_names;
  for (const auto& [name, value] : metrics.CountersSnapshot()) {
    counter_names.push_back(name);
  }
  if (counter_names.empty()) counter_names.push_back("perfbench.probe");
  std::vector<udr::Metrics::Counter> handles;
  for (const std::string& name : counter_names) {
    handles.push_back(metrics.RegisterCounter(name));
  }

  // -- The replay: each op's calls share a request id and a root span ------
  enum Layer {
    kTelecom, kUdrProcess, kUdrBatch, kLdap, kResolve, kRoute, kReadRecord,
    kReadBatch, kWriteBatch, kStorage, kApply, kMetrics, kLayers
  };
  std::vector<udr::Rng> key_rngs;
  for (int l = 0; l < kLayers; ++l) {
    key_rngs.emplace_back(seed * 1000003ULL + 17 * (l + 1));
  }
  udr::Rng shape_rng(seed ^ 0x7261706c6179ULL);
  SpanLog spans;
  Samples samples;
  int64_t resolve_failures = 0;
  int64_t traced_ldap_ops = 0;
  int64_t traced_ns = 0;
  int64_t untraced_ldap_ops = 0;
  int64_t untraced_ns = 0;
  int64_t requests_seen = 0;
  int64_t writes_seen = 0;

  for (int i = 0; i < kReplayOps; ++i) {
    const uint64_t rid = static_cast<uint64_t>(i) + 1;
    const uint64_t root = spans.Reserve();
    const int64_t root_start = NowNs();
    Shape shape = t.shape(shape_rng);
    // Written values rise with the op index, like the stamps the Verifier
    // audits, so replayed writes never look like an order regression.
    shape.value = kReplayStampBase + i;
    auto bind = [&](Layer layer) {
      const uint64_t index = t.draw(key_rngs[layer]);
      return Bind(t, *fes[0], shape, index);
    };
    // Resolves a layer's subscriber to its replica set (untimed).
    auto locate = [&](const Bound& b)
        -> std::pair<udr::replication::ReplicaSet*, udr::storage::RecordKey> {
      udr::location::ResolveResult res = router.ResolveAt(b.identity, b.site);
      if (!res.status.ok()) {
        ++resolve_failures;
        return {nullptr, 0};
      }
      return {t.udr->partition(res.entry.partition), res.entry.key};
    };

    {  // telecom: one FE procedure through the whole northbound path.
      // Every other op records no span, which prices the recording itself.
      Bound b = bind(kTelecom);
      requests_seen += static_cast<int64_t>(b.requests.size());
      for (const auto& r : b.requests) writes_seen += r.op == LdapOp::kModify;
      ReplayFe& fe = *fes[b.site];
      const int64_t s = NowNs();
      if (i % 2 == 0) {
        int64_t ops = 0;
        const int64_t dt = Timed(spans, "telecom.proc", root, rid,
                                 [&] { ops = fe.RunOps(b.requests).ldap_ops; });
        traced_ns += NowNs() - s;
        traced_ldap_ops += ops;
        samples["telecom.proc_ns"].push_back(dt);
      } else {
        const int64_t ops = fe.RunOps(b.requests).ldap_ops;
        untraced_ns += NowNs() - s;
        untraced_ldap_ops += ops;
      }
    }
    {  // udr: the per-op verb path.
      Bound b = bind(kUdrProcess);
      for (const LdapRequest& req : b.requests) {
        samples["udr.process_ns"].push_back(Timed(
            spans, "udr.process", root, rid, [&] { t.udr->Process(req, b.site); }));
      }
    }
    {  // udr: the batch pipeline.
      Bound b = bind(kUdrBatch);
      const int64_t dt = Timed(spans, "udr.process_batch", root, rid,
                               [&] { t.udr->ProcessBatch(b.requests, b.site); });
      samples["udr.batch_ns_per_op"].push_back(
          static_cast<double>(dt) / b.requests.size());
    }
    {  // ldap: parsing the FE's request strings.
      Bound b = bind(kLdap);
      for (const LdapRequest& req : b.requests) {
        const std::string dn = req.dn.ToString();
        samples["ldap.dn_parse_ns"].push_back(
            Timed(spans, "ldap.dn_parse", root, rid,
                  [&] { (void)udr::ldap::Dn::Parse(dn); }));
        samples["ldap.filter_parse_ns"].push_back(
            Timed(spans, "ldap.filter_parse", root, rid,
                  [&] { (void)udr::ldap::Filter::Parse(req.filter); }));
      }
    }
    {  // location: resolution at the PoA's stage.
      Bound b = bind(kResolve);
      samples["location.resolve_ns"].push_back(
          Timed(spans, "location.resolve", root, rid,
                [&] { router.ResolveAt(b.identity, b.site); }));
    }
    {  // routing: resolve + group + grouped dispatch.
      Bound b = bind(kRoute);
      udr::routing::BatchRequest batch;
      for (const LdapRequest& req : b.requests) {
        batch.Add(ToOperation(req, b.identity));
      }
      const int64_t dt = Timed(spans, "routing.route_batch", root, rid,
                               [&] { router.RouteBatch(batch, b.site); });
      samples["routing.route_ns"].push_back(static_cast<double>(dt) /
                                            batch.size());
    }
    {  // replication: whole-record reads, one by one.
      Bound b = bind(kReadRecord);
      auto [rs, key] = locate(b);
      for (const LdapRequest& req : b.requests) {
        if (rs == nullptr || req.op == LdapOp::kModify) continue;
        samples["replication.read_record_ns"].push_back(
            Timed(spans, "replication.read_record", root, rid, [&] {
              (void)rs->ReadRecord(b.site, key, ReadPreference::kNearest);
            }));
      }
    }
    {  // replication: the op's reads as one grouped fan-out.
      Bound b = bind(kReadBatch);
      auto [rs, key] = locate(b);
      std::vector<udr::replication::BatchReadOp> reads;
      for (const LdapRequest& req : b.requests) {
        if (req.op != LdapOp::kModify) reads.push_back({key, "", ReadPreference::kNearest});
      }
      if (rs != nullptr && !reads.empty()) {
        const int64_t dt = Timed(spans, "replication.read_batch", root, rid,
                                 [&] { rs->ReadBatch(b.site, reads); });
        samples["replication.read_batch_ns_per_op"].push_back(
            static_cast<double>(dt) / reads.size());
      }
    }
    {  // replication: the op's writes as one log-append window.
      Bound b = bind(kWriteBatch);
      auto [rs, key] = locate(b);
      std::vector<std::vector<udr::storage::WriteOp>> txns;
      for (const LdapRequest& req : b.requests) {
        if (req.op != LdapOp::kModify) continue;
        udr::replication::WriteBuilder w;
        for (const auto& mod : req.mods) w.Set(key, mod.attr, mod.value);
        txns.push_back(std::move(w).Build());
      }
      if (rs != nullptr && !txns.empty()) {
        const size_t n = txns.size();
        const int64_t dt = Timed(spans, "replication.write_batch", root, rid,
                                 [&] { rs->WriteBatch(b.site, std::move(txns)); });
        samples["replication.write_batch_ns_per_txn"].push_back(
            static_cast<double>(dt) / n);
      }
    }
    {  // storage: record lookup, then attribute lookups by name and by id.
      Bound b = bind(kStorage);
      auto [rs, key] = locate(b);
      if (rs != nullptr) {
        const udr::storage::RecordStore& store =
            rs->replica_store(rs->master_id());
        const udr::storage::Record* rec = nullptr;
        samples["storage.find_ns"].push_back(Timed(
            spans, "storage.find", root, rid, [&] { rec = store.Find(key); }));
        std::vector<std::string> names;
        for (const LdapRequest& req : b.requests) {
          names.insert(names.end(), req.requested_attrs.begin(),
                       req.requested_attrs.end());
        }
        std::vector<udr::storage::AttrId> ids;
        for (const std::string& n : names) ids.push_back(udr::storage::LookupAttr(n));
        if (rec != nullptr && !names.empty()) {
          const double calls = static_cast<double>(kAttrRepeat * names.size());
          const int64_t by_name = Timed(spans, "storage.attr_by_name", root, rid, [&] {
            for (int k = 0; k < kAttrRepeat; ++k) {
              for (const std::string& n : names) (void)rec->Find(n);
            }
          });
          const int64_t by_id = Timed(spans, "storage.attr_by_id", root, rid, [&] {
            for (int k = 0; k < kAttrRepeat; ++k) {
              for (udr::storage::AttrId id : ids) (void)rec->FindById(id);
            }
          });
          samples["storage.attr_by_name_ns"].push_back(by_name / calls);
          samples["storage.attr_by_id_ns"].push_back(by_id / calls);
        }
      }
    }
    {  // storage: applying the op's mutations to the master's record store.
      Bound b = bind(kApply);
      auto [rs, key] = locate(b);
      if (rs != nullptr) {
        udr::storage::RecordStore& store = rs->replica_se(rs->master_id())->store();
        for (const LdapRequest& req : b.requests) {
          for (const auto& mod : req.mods) {
            const udr::storage::AttrId id = udr::storage::InternAttr(mod.attr);
            udr::storage::Value v = mod.value;
            samples["storage.apply_ns"].push_back(
                Timed(spans, "storage.apply", root, rid, [&] {
                  store.SetAttribute(key, id, std::move(v), t.udr->Now(), 0);
                }));
          }
        }
      }
    }
    {  // common: metrics registry adds, by name and by handle.
      const size_t slot = key_rngs[kMetrics].Uniform(counter_names.size());
      const std::string& name = counter_names[slot];
      udr::Metrics::Counter& handle = handles[slot];
      const int64_t by_name = Timed(spans, "common.metrics_add", root, rid, [&] {
        for (int k = 0; k < kMetricsRepeat; ++k) metrics.Add(name);
      });
      const int64_t by_handle = Timed(spans, "common.metrics_handle", root, rid, [&] {
        for (int k = 0; k < kMetricsRepeat; ++k) handle.Add();
      });
      samples["common.metrics_add_ns"].push_back(by_name / double{kMetricsRepeat});
      samples["common.metrics_handle_ns"].push_back(by_handle /
                                                    double{kMetricsRepeat});
    }
    spans.Add(root, "replay.op", root_start, NowNs(), 0, rid);
  }
  if (resolve_failures > 0) {
    result.failures.push_back(std::to_string(resolve_failures) +
                              " replay subscribers did not resolve");
  }

  // -- Setup and audit probes on a Testbed -----------------------------------
  udr::Rng admin_rng(seed ^ 0xad317ULL);
  for (int c = 0; c < kProvisionChunks; ++c) {
    const uint64_t first = kProbeIndexBase + static_cast<uint64_t>(c) * kProvisionChunk;
    const int64_t s = NowNs();
    const int64_t made = admin_bed->ProvisionDirect(first, kProvisionChunk);
    const int64_t dt = NowNs() - s;
    spans.Add(spans.Reserve(), "setup.provision", s, s + dt, 0, 0);
    if (made != kProvisionChunk) {
      result.failures.push_back("provision probe created " + std::to_string(made));
    }
    samples["setup.provision_ns_per_sub"].push_back(static_cast<double>(dt) /
                                                    kProvisionChunk);
  }
  const uint64_t audit_population =
      workload == "sharded_rw" ? static_cast<uint64_t>(kShardSubscribers / kShards)
                               : static_cast<uint64_t>(untraced.subscribers);
  for (int round = 0; round < kAuditRounds; ++round) {
    udr::scenario::Verifier verifier(admin_bed);
    for (int k = 0; k < kAuditSubscribers; ++k) {
      verifier.RecordAck(admin_rng.Uniform(audit_population),
                         udr::scenario::Channel::kLocationArea, 0);
    }
    udr::scenario::AuditReport audit;
    const int64_t dt = Timed(spans, "scenario.audit", 0, 0,
                             [&] { audit = verifier.Audit(); });
    samples["scenario.audit_ns_per_sub"].push_back(
        static_cast<double>(dt) / std::max<int64_t>(1, audit.subscribers_audited));
  }

  // -- Threaded runtime ------------------------------------------------------
  ExecFigures exec;
  if (workload == "sharded_rw") {
    exec = ExecProbe(seed, kShardSubscribers, kShardOps, kShardWriteShare, 0.0);
  } else {
    const double write_share =
        requests_seen > 0 ? static_cast<double>(writes_seen) / requests_seen : 0.0;
    exec = ExecProbe(seed, kExecProbeSubscribers, kExecProbeOps, write_share,
                     exec_zipf);
  }
  samples["exec.submit_ns_per_op"] = exec.submit_ns_per_op;

  if (!spans.Write(trace_out)) {
    result.failures.push_back("cannot write " + trace_out);
  }

  // -- Figures ---------------------------------------------------------------
  for (const char* name :
       {"telecom.proc_ns", "udr.process_ns", "udr.batch_ns_per_op",
        "ldap.filter_parse_ns", "ldap.dn_parse_ns", "location.resolve_ns",
        "routing.route_ns", "replication.read_record_ns",
        "replication.read_batch_ns_per_op",
        "replication.write_batch_ns_per_txn", "storage.find_ns",
        "storage.attr_by_name_ns", "storage.attr_by_id_ns", "storage.apply_ns",
        "setup.provision_ns_per_sub", "scenario.audit_ns_per_sub",
        "common.metrics_add_ns", "common.metrics_handle_ns",
        "exec.submit_ns_per_op"}) {
    AddTiming(&out, name, samples[name]);
  }
  auto p50 = [&](const char* name) { return Quantile(samples[name], 0.5); };
  const double write_share =
      requests_seen > 0 ? static_cast<double>(writes_seen) / requests_seen : 0.0;
  out.Num("udr.self_ns", p50("udr.process_ns") - p50("routing.route_ns"));
  out.Num("routing.self_ns",
          p50("routing.route_ns") - p50("location.resolve_ns") -
              (1.0 - write_share) * p50("replication.read_batch_ns_per_op") -
              write_share * p50("replication.write_batch_ns_per_txn"));
  out.Num("setup.catchup_s", setup_catchup_s);

  out.Num("routing.groups_per_batch",
          static_cast<double>(reg.HistOrEmpty("router.batch.groups").P50()));
  out.Num("coalescer.ops_per_flush",
          static_cast<double>(reg.HistOrEmpty("coalescer.flush.ops").P50()));
  out.Num("coalescer.queue_delay_us_p99",
          static_cast<double>(reg.HistOrEmpty("coalescer.queue_delay_us").P99()));
  out.Num("replication.stale_read_share",
          reads_served > 0 ? static_cast<double>(stale_reads) / reads_served : 0.0);
  out.Num("storage.model_bytes_per_sub", model_per_sub);
  out.Num("storage.rss_over_model",
          model_per_sub > 0 ? untraced.rss_per_sub_b() / model_per_sub : 0.0);
  out.Num("storage.log_entries_per_sub", log_entries / subs);
  out.Int("migration.bytes_moved", reg.Get("migration.bytes_moved"));
  out.Int("migration.tasks_done", reg.Get("migration.tasks_done"));

  out.Num("exec.stall_share", exec.stall_share);
  out.Num("exec.busy_share", exec.busy_share);
  out.Num("exec.ops_per_busy_s", exec.ops_per_busy_s);
  out.Num("exec.imbalance", exec.imbalance);

  const double traced_ops_per_s =
      traced_ns > 0 ? traced_ldap_ops * 1e9 / traced_ns : 0.0;
  const double untraced_ops_per_s =
      untraced_ns > 0 ? untraced_ldap_ops * 1e9 / untraced_ns : 0.0;
  out.Num("trace.traced_ops_per_s", traced_ops_per_s);
  out.Num("trace.untraced_ops_per_s", untraced_ops_per_s);
  out.Num("trace.overhead",
          traced_ops_per_s > 0 ? untraced_ops_per_s / traced_ops_per_s : 0.0);
  return result;
}

}  // namespace perfbench
