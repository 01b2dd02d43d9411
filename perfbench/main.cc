// Benchmark driver binary. One invocation runs one workload once:
//
//   udr_perfbench --workload <fe_reads|storm_mix|sharded_rw> --seed <n>
//                 [--traced --trace-out <spans.json>]
//
// Untraced, it sets the workload up, runs its fixed-size timed phase through
// the simulator's own driver, checks the outputs and prints one JSON line
// with the end-to-end figures and a digest of the modelled outputs. Traced,
// it does the same untraced run first, then replays a seeded sample of the
// workload's op shapes through each layer's public entry points, timing
// every call from here, and prints the per-layer figures. perfbench/run.py
// repeats invocations and aggregates them.
//
// The process leaves with std::_Exit once its line is printed: tearing down
// a 100k-subscriber deployment costs host time that no metric includes.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "probes.h"
#include "workloads.h"

#if defined(UDR_DEADLOCK_CHECK) || !defined(NDEBUG)
#define UDR_PERFBENCH_BAD_BUILD 1
#else
#define UDR_PERFBENCH_BAD_BUILD 0
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: udr_perfbench --workload <fe_reads|storm_mix|"
               "sharded_rw> --seed <n> [--traced --trace-out <file>]\n");
  return 2;
}

perfbench::JsonObject EnvStamp() {
  perfbench::JsonObject env;
  env.Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  env.Str("compiler", UDR_BENCH_COMPILER);
  env.Str("build_type", UDR_BENCH_BUILD_TYPE);
  env.Bool("ndebug", true);
  env.Bool("deadlock_check", false);
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--traced") {
      traced = true;
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == workload;
  }
  if (!known || !have_seed || (traced && trace_out.empty())) return Usage();

  if (UDR_PERFBENCH_BAD_BUILD) {
    // The lock-order checker and debug asserts distort host cost.
    std::fprintf(stderr,
                 "udr_perfbench: refusing to report host metrics from a build "
                 "with UDR_DEADLOCK_CHECK defined or without NDEBUG\n");
    return 3;
  }

  perfbench::LiveBed* live = new perfbench::LiveBed();  // Never torn down.
  const perfbench::EndToEnd e2e = perfbench::RunEndToEnd(workload, seed, live);

  perfbench::JsonObject out;
  out.Str("workload", workload);
  out.Int("seed", static_cast<int64_t>(seed));
  out.Obj("env", EnvStamp());
  out.Bool("correct", e2e.check_failures.empty());
  out.StrList("check_failures", e2e.check_failures);
  out.Int("attempted", e2e.attempted);
  out.Int("failed", e2e.failed);
  out.Int("ldap_ops", e2e.ldap_ops);
  out.Int("subscribers", e2e.subscribers);
  out.Str("digest", perfbench::Digest(e2e.digest_text));

  perfbench::JsonObject m;
  m.Num("ops_per_s", e2e.ops_per_s());
  m.Num("setup_s", e2e.setup_s);
  m.Num("rss_per_sub_b", e2e.rss_per_sub_b());
  m.Num("model_p50_us", e2e.model_p50_us);
  m.Num("model_p99_us", e2e.model_p99_us);
  m.Int("model_n", e2e.model_n);
  m.Num("ok_share", e2e.attempted > 0 ? 1.0 - static_cast<double>(e2e.failed) /
                                                 e2e.attempted
                                      : 0.0);
  m.Num("fresh_share",
        e2e.stale_base > 0
            ? 1.0 - static_cast<double>(e2e.stale) / e2e.stale_base
            : 1.0);
  m.Num("timed_s", e2e.timed_s);
  m.Num("catchup_s", e2e.catchup_s);
  out.Obj("metrics", m);

  bool ok = e2e.check_failures.empty();
  if (traced && ok) {
    perfbench::TracedResult t =
        perfbench::RunTraced(workload, seed, e2e, live, trace_out);
    out.Obj("layers", t.metrics);
    out.StrList("probe_failures", t.failures);
    ok = t.failures.empty();
  }
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  std::_Exit(ok ? 0 : 1);
}
