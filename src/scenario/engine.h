// Scenario engine: compiles a scenario::Script against a workload::Testbed
// and executes it — its FE/PS traffic mix and the script's timed steps feed
// the sim-loop driver (workload/driver.h), which interleaves them with the
// PoA dispatch-window flushes, background-migration pacing and sampler
// ticks — while a scenario::Verifier continuously folds every outcome and
// checks the harness invariants. The result is a ScenarioReport whose
// Serialize() output is byte-identical for the same spec + seed (the
// replay-determinism contract the harness tests assert).

#ifndef UDR_SCENARIO_ENGINE_H_
#define UDR_SCENARIO_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "scenario/script.h"
#include "scenario/verifier.h"
#include "telecom/front_end.h"
#include "telecom/provisioning.h"
#include "workload/testbed.h"
#include "workload/zipf.h"

namespace udr::scenario {

/// Everything a scenario run needs: the deployment, the script and the
/// traffic shape driven around it.
struct ScenarioSpec {
  std::string name = "scenario";
  workload::TestbedOptions testbed;
  Script script;
  MicroDuration duration = Seconds(20);
  double fe_rate_per_sec = 400.0;
  double ps_rate_per_sec = 20.0;
  double ims_fraction = 0.15;
  /// Skew of the subscriber draw (0 = uniform; storm scenarios use 0.99).
  double zipf_theta = 0.0;
  sim::SiteId ps_site = 0;
  bool batched = false;
};

/// Outcome of one scenario run.
struct ScenarioReport {
  std::string name;
  ScenarioStats stats;
  AuditReport audit;
  std::vector<SloResult> slos;
  /// Consistency-restoration totals over every HealLink reconciliation.
  replication::RestorationReport restoration;
  int64_t heal_reconciliations = 0;
  int64_t steps_executed = 0;
  MicroDuration sim_duration = 0;
  /// Time-series sampler output (empty when obs_sample_interval_us is 0 —
  /// Serialize() appends obs sections only when non-empty, so runs with
  /// observability off keep their byte-identical legacy serialization).
  std::string obs_series;
  /// Flight-recorder dump captured when an evaluated SLO failed (empty on
  /// pass or when no SLO row ran): the recent control-plane events leading
  /// up to the breach.
  std::string flight_dump;

  /// Every SLO row evaluated and passed (false when none was evaluated).
  bool Passed() const;

  /// Stable text form: same spec + seed => byte-identical output. No wall
  /// clock, no addresses, fixed float formatting.
  std::string Serialize() const;
};

/// Executes one spec. Owns the testbed and all driver state.
class Engine {
 public:
  explicit Engine(const ScenarioSpec& spec);

  ScenarioReport Run();

  workload::Testbed& testbed() { return bed_; }
  Verifier& verifier() { return verifier_; }

 private:
  /// A deferred FE procedure parked in a PoA window.
  struct InFlight {
    uint64_t handle = 0;
    telecom::FrontEnd* fe = nullptr;
    bool is_write = false;
    bool storm = false;
    uint64_t subscriber = 0;
    int64_t stamp = 0;  ///< 0: unstamped procedure.
  };

  void ExecuteStep(const Step& step, ScenarioReport* report);
  void FeTick(MicroTime now);
  void PsTick();
  /// Scores one FE outcome (or parks it while deferred).
  void Dispatch(telecom::FrontEnd* fe, telecom::ProcedureResult r,
                bool is_write, bool storm, uint64_t subscriber, int64_t stamp);
  /// Collects every deferred procedure whose window flushed.
  void Collect();

  ScenarioSpec spec_;
  workload::Testbed bed_;
  Verifier verifier_;
  Rng rng_;
  workload::ZipfGenerator subscriber_pick_;
  std::vector<std::unique_ptr<telecom::HlrFe>> hlr_fes_;
  std::vector<std::unique_ptr<telecom::HssFe>> hss_fes_;
  std::unique_ptr<telecom::ProvisioningSystem> ps_;
  std::vector<InFlight> in_flight_;

  int64_t next_stamp_ = 0;  ///< Monotonic acked-write stamp source.

  // Script-driven window state.
  MicroTime storm_until_ = 0;
  int storm_events_ = 0;
  MicroTime wave_until_ = 0;
  sim::SiteId wave_site_ = 0;
  double wave_fraction_ = 0.0;
  /// Replicas crashed per KillSite, for the matching RestoreSite.
  struct CrashedReplica {
    uint32_t partition = 0;
    uint32_t replica = 0;
  };
  std::unordered_map<sim::SiteId, std::vector<CrashedReplica>> crashed_;
};

/// One-shot convenience: build the engine, run, return the report.
ScenarioReport RunScenario(const ScenarioSpec& spec);

}  // namespace udr::scenario

#endif  // UDR_SCENARIO_ENGINE_H_
