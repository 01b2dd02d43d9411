// Sim-loop driver: the one deterministic sim-clock loop that interleaves a
// run's arrivals — fixed-gap FE and PS ticks and optional timed steps — with
// every UDR wakeup (PoA window flushes, migration chunk deadlines, sampler
// ticks; UdrNf::NextWakeup). The driver owns *when* things happen; the
// sources that feed it (workload::RunTraffic, scenario::Engine) own *what*
// happens at each arrival.

#ifndef UDR_WORKLOAD_DRIVER_H_
#define UDR_WORKLOAD_DRIVER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/time.h"
#include "workload/testbed.h"

namespace udr::workload {

/// One run's arrival stream: the rates and step times the driver schedules,
/// and the callbacks it fires at each arrival.
struct Arrivals {
  double fe_rate_per_sec = 0.0;  ///< FE ticks per second (0 = none).
  double ps_rate_per_sec = 0.0;  ///< PS ticks per second (0 = none).
  /// Offsets of the timed steps from the run start, ascending.
  std::vector<MicroDuration> step_at;
  std::function<void(size_t)> step;   ///< Fires timed step i.
  std::function<void(MicroTime)> fe;  ///< One FE tick at sim time `now`.
  std::function<void()> ps;           ///< One PS tick.
  /// Scores every deferred procedure whose window has flushed. Called after
  /// each wakeup, each FE tick and the end-of-run flush.
  std::function<void()> collect;
};

/// Drives `arrivals` against `bed` for `duration` from the current sim time.
/// Whenever the UDR's next wakeup is due no later than the next arrival (and
/// the horizon), the clock advances to it and UdrNf::PumpEvents runs;
/// otherwise the next arrival fires, on a tie step before FE before PS. At
/// the horizon every open window is flushed and collected. Returns how many
/// steps fired; the rest lie past the horizon.
size_t Drive(Testbed& bed, MicroDuration duration, const Arrivals& arrivals);

/// Paces the clock from wakeup to wakeup, pumping, until the background
/// migration is idle (bounded by a fixed iteration guard, so a stuck
/// scheduler cannot hang the caller).
void DrainMigration(Testbed& bed);

}  // namespace udr::workload

#endif  // UDR_WORKLOAD_DRIVER_H_
