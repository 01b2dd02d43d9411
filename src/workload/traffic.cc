#include "workload/traffic.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "workload/driver.h"
#include "workload/zipf.h"

namespace udr::workload {

using telecom::HlrFe;
using telecom::HssFe;
using telecom::ProcedureResult;

TrafficReport RunTraffic(Testbed& bed, const TrafficOptions& opts) {
  TrafficReport report;
  Rng rng(opts.seed);
  // Subscriber draw: theta <= 0 is an exact rng.Uniform passthrough, so the
  // historical uniform stream is byte-identical with the knob at its default.
  ZipfGenerator subscriber_pick(opts.subscriber_count, opts.zipf_theta);
  udrnf::UdrNf& udr = bed.udr();
  const bool coalesced = opts.concurrent_events > 1;
  const int burst = std::max(1, opts.concurrent_events);

  // One FE pair per site.
  std::vector<std::unique_ptr<HlrFe>> hlr_fes;
  std::vector<std::unique_ptr<HssFe>> hss_fes;
  for (uint32_t s = 0; s < bed.options().sites; ++s) {
    hlr_fes.push_back(std::make_unique<HlrFe>(s, &udr, opts.batched));
    hss_fes.push_back(std::make_unique<HssFe>(s, &udr, opts.batched));
    if (coalesced) {
      hlr_fes.back()->set_deferred(true);
      hss_fes.back()->set_deferred(true);
    }
  }
  telecom::ProvisioningSystem ps({opts.ps_site, 0, opts.batched}, &udr,
                                 &bed.factory());

  // FE procedures parked in a PoA dispatch window, awaiting their flush.
  struct InFlight {
    uint64_t handle = 0;
    telecom::FrontEnd* fe = nullptr;
    ClassStats* cls = nullptr;
  };
  std::vector<InFlight> in_flight;
  // Scores one FE outcome, tagging it as migration-concurrent when the
  // background scheduler still holds work at fold time.
  auto fold_fe = [&](ClassStats& cls, const ProcedureResult& r) {
    cls.Fold(r);
    if (udr.MigrationActive()) {
      report.fe_during_migration.Fold(r);
      if (r.ok()) {
        udr.metrics().Observe("migration.foreground_latency_during", r.latency);
      }
    }
  };

  Arrivals arrivals;
  arrivals.fe_rate_per_sec = opts.fe_rate_per_sec;
  arrivals.ps_rate_per_sec = opts.ps_rate_per_sec;
  arrivals.collect = [&]() {
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      std::optional<ProcedureResult> done = it->fe->TakeDeferred(it->handle);
      if (!done.has_value()) {
        ++it;
        continue;
      }
      report.fe_queue_delay.Record(done->queue_delay);
      fold_fe(*it->cls, *done);
      it = in_flight.erase(it);
    }
  };
  arrivals.fe = [&](MicroTime) {
    for (int b = 0; b < burst; ++b) {
      uint64_t index = subscriber_pick.Next(rng);
      sim::SiteId home = bed.HomeSiteOf(index);
      sim::SiteId serving = home;
      if (bed.options().sites > 1 && rng.Bernoulli(opts.roaming_fraction)) {
        serving = static_cast<sim::SiteId>(
            (home + 1 + rng.Uniform(bed.options().sites - 1)) %
            bed.options().sites);
      }
      IssuedFe issued = IssueFeProcedure(
          rng, opts.ims_fraction, bed.factory(), index, serving,
          *hlr_fes[serving], *hss_fes[serving], [&]() {
            return static_cast<int64_t>(serving * 100 + rng.Uniform(100));
          });
      ClassStats& cls = issued.write ? report.fe_write : report.fe_read;
      // Inline results score now; deferred ones wait for their flush.
      if (issued.result.deferred()) {
        in_flight.push_back({*issued.result.pending, issued.fe, &cls});
      } else {
        fold_fe(cls, issued.result);
      }
    }
  };
  arrivals.ps = [&]() {
    uint64_t index = subscriber_pick.Next(rng);
    double pick = rng.NextDouble();
    if (pick < 0.5) {
      report.ps.Fold(
          ps.SetCallForwarding(index, "+3460000" + std::to_string(index % 100)));
    } else if (pick < 0.85) {
      report.ps.Fold(ps.SetPremiumBarring(index, rng.Bernoulli(0.5)));
    } else {
      // New activation: walks out of the phone shop (§4.1).
      uint64_t new_index = opts.subscriber_count + 1000000 +
                           static_cast<uint64_t>(report.ps.attempted);
      report.ps.Fold(ps.Provision(new_index));
    }
  };
  Drive(bed, opts.duration, arrivals);

  if (report.fe_during_migration.ok > 0) {
    // The foreground-impact headline figure of the bandwidth model.
    udr.metrics().Observe("migration.foreground_p99_during",
                          report.fe_during_migration.latency.P99());
  }
  return report;
}

IssuedFe IssueFeProcedure(Rng& rng, double ims_fraction,
                          const telecom::SubscriberFactory& factory,
                          uint64_t index, sim::SiteId serving, HlrFe& hlr,
                          HssFe& hss,
                          const std::function<int64_t()>& location_area) {
  if (rng.Bernoulli(ims_fraction)) {
    double pick = rng.NextDouble();
    if (pick < 0.55) return {&hss, hss.ImsLocate(factory.ImpuId(index)), false};
    if (pick < 0.80) {
      return {&hss,
              hss.ImsRegister(factory.ImpuId(index),
                              "scscf" + std::to_string(serving)),
              true};
    }
    return {&hss, hss.ImsDeregister(factory.ImpuId(index)), true};
  }
  double pick = rng.NextDouble();
  if (pick < 0.35) return {&hlr, hlr.Authenticate(factory.ImsiId(index)), false};
  if (pick < 0.55) {
    return {&hlr, hlr.SendRoutingInfo(factory.MsisdnId(index)), false};
  }
  if (pick < 0.70) return {&hlr, hlr.SmsRouting(factory.MsisdnId(index)), false};
  if (pick < 0.80) {
    return {&hlr, hlr.InterrogateSs(factory.MsisdnId(index)), false};
  }
  const int64_t area = location_area();
  return {&hlr,
          hlr.UpdateLocation(factory.ImsiId(index),
                             "vlr" + std::to_string(serving), area),
          true};
}

}  // namespace udr::workload
