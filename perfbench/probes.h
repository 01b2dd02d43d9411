// The traced run: replays a seeded sample of one workload's op shapes
// through each layer's public entry points on the deployment the untraced
// run left behind (after its output checks), timing every call from the
// benchmark's own code and recording it as a span.

#ifndef UDR_PERFBENCH_PROBES_H_
#define UDR_PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {

struct TracedResult {
  JsonObject metrics;  ///< Per-layer metric name -> value.
  std::vector<std::string> failures;
};

/// Runs every layer probe for `workload` and writes the spans as Chrome
/// trace-event JSON to `trace_out`. `untraced` is the run that built `live`.
TracedResult RunTraced(const std::string& workload, uint64_t seed,
                       const EndToEnd& untraced, LiveBed* live,
                       const std::string& trace_out);

}  // namespace perfbench

#endif  // UDR_PERFBENCH_PROBES_H_
