#include "workload/driver.h"

#include <algorithm>

namespace udr::workload {

namespace {

/// Fixed inter-arrival gap of a rate; kTimeInfinity for a rate of 0.
MicroDuration GapOf(double rate_per_sec) {
  return rate_per_sec > 0 ? static_cast<MicroDuration>(1e6 / rate_per_sec)
                          : kTimeInfinity;
}

}  // namespace

size_t Drive(Testbed& bed, MicroDuration duration, const Arrivals& arrivals) {
  sim::SimClock& clock = bed.clock();
  udrnf::UdrNf& udr = bed.udr();
  const MicroTime start = clock.Now();
  const MicroTime horizon = start + duration;
  const MicroDuration fe_gap = GapOf(arrivals.fe_rate_per_sec);
  const MicroDuration ps_gap = GapOf(arrivals.ps_rate_per_sec);
  MicroTime next_fe = fe_gap == kTimeInfinity ? kTimeInfinity : start + fe_gap;
  MicroTime next_ps = ps_gap == kTimeInfinity ? kTimeInfinity : start + ps_gap;
  size_t step_i = 0;

  while (true) {
    const MicroTime next_step = step_i < arrivals.step_at.size()
                                    ? start + arrivals.step_at[step_i]
                                    : kTimeInfinity;
    const MicroTime next = std::min({next_step, next_fe, next_ps});
    const MicroTime wake = udr.NextWakeup();
    if (wake <= std::min(next, horizon)) {
      clock.AdvanceTo(std::max(wake, clock.Now()));
      udr.PumpEvents();
      arrivals.collect();
      continue;
    }
    if (next > horizon) break;
    clock.AdvanceTo(next);

    if (next == next_step) {
      arrivals.step(step_i++);
    } else if (next == next_fe) {
      next_fe += fe_gap;
      arrivals.fe(next);
      // A burst may have closed a window via the size cap, or run inline.
      arrivals.collect();
    } else {
      next_ps += ps_gap;
      arrivals.ps();
    }
  }

  // End-of-run barrier: close every still-open window and score the rest.
  clock.AdvanceTo(horizon);
  udr.FlushEvents();
  arrivals.collect();
  return step_i;
}

void DrainMigration(Testbed& bed) {
  udrnf::UdrNf& udr = bed.udr();
  for (int guard = 0; udr.MigrationActive() && guard < 1000000; ++guard) {
    bed.clock().AdvanceTo(std::max(udr.NextWakeup(), bed.clock().Now()));
    udr.PumpEvents();
  }
}

}  // namespace udr::workload
