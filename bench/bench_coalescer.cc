// C — the PoA cross-event dispatch window: ops from different concurrent
// signaling events coalesced into one partition-group dispatch vs the PR 2
// per-event pipeline.
//
// C1 sweeps concurrency: E single-subscriber events (4 ops each) arrive
// inside one window; uncoalesced each event pays its own grouped dispatch
// (one partition group per event), coalesced the window flushes one batch
// whose fan-out is capped by the partition count — grouped dispatches per op
// drop as E grows. C2 reports the latency accounting split: the queueing
// delay an event pays for waiting (bounded by the window) vs the shared
// dispatch's service share. C3 verifies per-event results are byte-identical
// to serial execution and that the knobs at 0 reproduce the inline path
// exactly. C4 is the self-checking expected-shape table (acceptance: >= 2x
// fewer grouped dispatches per op at 8+ concurrent events, p99 queueing
// delay <= the configured window).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/table.h"
#include "ldap/dn.h"
#include "routing/coalescer.h"
#include "telecom/subscriber.h"
#include "workload/testbed.h"

using namespace udr;

namespace {

constexpr MicroDuration kWindow = Millis(1);
constexpr int kRounds = 25;
constexpr int kSubscribers = 64;

workload::Testbed MakeBed(MicroDuration window) {
  workload::TestbedOptions o;
  o.sites = 3;
  o.subscribers = kSubscribers;
  // One partition per site: the fan-out cap the coalesced window converges
  // to (the amortization lever: E event-dispatches -> <= 3 group-dispatches).
  o.udr.se_per_cluster = 1;
  o.udr.partitions_per_se = 1;
  o.udr.coalesce_window_us = window;
  workload::Testbed bed(o);
  bed.clock().Advance(Seconds(120));
  bed.udr().CatchUpAllPartitions();
  return bed;
}

/// One signaling event on one subscriber: 3 reads + 1 write (§2.2 shape).
std::vector<ldap::LdapRequest> EventOf(const telecom::Subscriber& sub) {
  std::vector<ldap::LdapRequest> event;
  ldap::LdapRequest read;
  read.op = ldap::LdapOp::kSearch;
  read.dn = ldap::SubscriberDn("imsi", sub.imsi);
  event.push_back(read);
  event.push_back(read);
  ldap::LdapRequest write;
  write.op = ldap::LdapOp::kModify;
  write.dn = read.dn;
  write.mods.push_back(
      {ldap::ModType::kReplace, "serving-vlr", std::string("vlr1")});
  event.push_back(write);
  ldap::LdapRequest verify = read;
  verify.master_only = true;
  event.push_back(verify);
  return event;
}

struct RunStats {
  int64_t ops = 0;
  int64_t dispatch_groups = 0;  ///< Grouped partition dispatches paid.
  int64_t flushes = 0;
  double events_per_flush = 0;
  Histogram queue_delay;
  Histogram service_latency;
  std::vector<ldap::LdapBatchResult> results;  ///< Per event, issue order.

  double groups_per_op() const {
    return ops > 0 ? static_cast<double>(dispatch_groups) /
                         static_cast<double>(ops)
                   : 0.0;
  }
};

/// Drives `rounds` bursts of `concurrency` concurrent events through the
/// enqueue path. With the window off every event flushes alone at enqueue;
/// with it on, arrivals stagger inside one window and flush together at the
/// deadline.
RunStats RunEvents(workload::Testbed& bed, int concurrency, int rounds,
                   bool coalesced) {
  RunStats stats;
  auto& udr = bed.udr();
  for (int round = 0; round < rounds; ++round) {
    std::vector<uint64_t> handles;
    for (int e = 0; e < concurrency; ++e) {
      uint64_t index =
          static_cast<uint64_t>((round * concurrency + e) % kSubscribers);
      auto event = EventOf(bed.factory().Make(index));
      stats.ops += static_cast<int64_t>(event.size());
      auto handle = udr.SubmitEvent(event, 0);
      if (!handle.ok()) continue;
      handles.push_back(*handle);
      bed.clock().Advance(Micros(10));  // Staggered arrivals in the window.
    }
    if (coalesced) {
      MicroTime deadline = udr.NextWakeup();
      if (deadline != kTimeInfinity) bed.clock().AdvanceTo(deadline);
      udr.PumpEvents();
    }
    bool first_of_flush = true;
    for (uint64_t handle : handles) {
      auto result = udr.TakeEvent(handle);
      if (!result.has_value()) continue;
      stats.queue_delay.Record(result->queue_delay);
      stats.service_latency.Record(result->latency - result->queue_delay);
      if (coalesced) {
        // Every event of the flush reports the shared fan-out: count once.
        if (first_of_flush) {
          stats.dispatch_groups += result->partition_groups;
          ++stats.flushes;
          first_of_flush = false;
        }
      } else {
        stats.dispatch_groups += result->partition_groups;
        ++stats.flushes;
      }
      stats.results.push_back(std::move(*result));
    }
  }
  stats.events_per_flush =
      stats.flushes > 0 ? static_cast<double>(stats.results.size()) /
                              static_cast<double>(stats.flushes)
                        : 0.0;
  return stats;
}

/// Payload equality (codes, entry counts, staleness) ignoring latencies —
/// coalescing redistributes time, never results.
bool SamePayload(const ldap::LdapBatchResult& a,
                 const ldap::LdapBatchResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const ldap::LdapResult& ra = a.results[i];
    const ldap::LdapResult& rb = b.results[i];
    if (ra.code != rb.code || ra.stale != rb.stale ||
        ra.entries.size() != rb.entries.size()) {
      return false;
    }
    for (size_t j = 0; j < ra.entries.size(); ++j) {
      for (const storage::PackedAttr& e : ra.entries[j].record.entries()) {
        auto v = rb.entries[j].record.Get(storage::AttrNameOf(e.name_id));
        if (!v.has_value() ||
            storage::ValueToString(e.attr.value) != storage::ValueToString(*v)) {
          return false;
        }
      }
    }
  }
  return true;
}

void PrintCoalescerTables() {
  Table t1("C1: grouped dispatches per op vs concurrency (3 partitions, "
           "4-op single-subscriber events, window 1ms)",
           {"concurrent events", "uncoalesced groups/op",
            "coalesced groups/op", "reduction", "events/flush"});
  double reduction8 = 0, reduction16 = 0;
  Histogram queue_delay8;
  MicroDuration service_mean8 = 0;
  for (int concurrency : {1, 2, 4, 8, 16}) {
    workload::Testbed plain = MakeBed(0);
    workload::Testbed coal = MakeBed(kWindow);
    RunStats uncoalesced = RunEvents(plain, concurrency, kRounds, false);
    RunStats coalesced = RunEvents(coal, concurrency, kRounds, true);
    double reduction = coalesced.groups_per_op() > 0
                           ? uncoalesced.groups_per_op() /
                                 coalesced.groups_per_op()
                           : 0.0;
    if (concurrency == 8) {
      reduction8 = reduction;
      queue_delay8 = coalesced.queue_delay;
      service_mean8 =
          static_cast<MicroDuration>(coalesced.service_latency.Mean());
    }
    if (concurrency == 16) reduction16 = reduction;
    t1.AddRow({Table::Num(concurrency),
               Table::Dbl(uncoalesced.groups_per_op(), 3),
               Table::Dbl(coalesced.groups_per_op(), 3),
               Table::Dbl(reduction, 2) + "x",
               Table::Dbl(coalesced.events_per_flush, 1)});
  }
  t1.Print();

  Table t2("C2: latency accounting split at 8 concurrent events "
           "(queueing delay vs shared-dispatch service)",
           {"metric", "value"});
  t2.AddRow({"configured window", Table::Dur(kWindow)});
  t2.AddRow({"queueing delay mean",
             Table::Dur(static_cast<MicroDuration>(queue_delay8.Mean()))});
  t2.AddRow({"queueing delay p99", Table::Dur(queue_delay8.P99())});
  t2.AddRow({"queueing delay max", Table::Dur(queue_delay8.max())});
  t2.AddRow({"service latency mean", Table::Dur(service_mean8)});
  t2.Print();

  // C3: per-event results must be byte-identical to serial execution, and
  // the knobs at 0 must reproduce the inline SubmitBatch path exactly.
  bool serial_equivalent = true;
  bool passthrough_equivalent = true;
  {
    workload::Testbed coal = MakeBed(kWindow);
    workload::Testbed serial = MakeBed(0);
    RunStats coalesced = RunEvents(coal, 8, 4, true);
    size_t taken = 0;
    for (int round = 0; round < 4; ++round) {
      for (int e = 0; e < 8; ++e) {
        uint64_t index = static_cast<uint64_t>((round * 8 + e) % kSubscribers);
        auto event = EventOf(serial.factory().Make(index));
        ldap::LdapBatchResult inline_result =
            serial.udr().SubmitBatch(event, 0);
        if (taken >= coalesced.results.size() ||
            !SamePayload(coalesced.results[taken++], inline_result)) {
          serial_equivalent = false;
        }
      }
    }

    workload::Testbed zero = MakeBed(0);
    workload::Testbed twin = MakeBed(0);
    for (uint64_t i = 0; i < 8; ++i) {
      auto event = EventOf(zero.factory().Make(i));
      auto handle = zero.udr().SubmitEvent(event, 0);
      std::optional<ldap::LdapBatchResult> deferred;
      if (handle.ok()) deferred = zero.udr().TakeEvent(*handle);
      ldap::LdapBatchResult inline_result = twin.udr().SubmitBatch(event, 0);
      if (!deferred.has_value() || !SamePayload(*deferred, inline_result) ||
          deferred->latency != inline_result.latency ||
          deferred->queue_delay != 0) {
        passthrough_equivalent = false;
      }
    }
  }
  Table t3("C3: equivalence", {"check", "result"});
  t3.AddRow({"coalesced per-event results == serial execution (32 events)",
             serial_equivalent ? "PASS" : "FAIL"});
  t3.AddRow({"knobs at 0: enqueue path == inline SubmitBatch",
             passthrough_equivalent ? "PASS" : "FAIL"});
  t3.Print();

  Table t4("C4: expected shape", {"check", "result"});
  t4.AddRow({">=2x fewer grouped dispatches per op at 8 concurrent events",
             reduction8 >= 2.0 ? "PASS" : "FAIL"});
  t4.AddRow({">=2x fewer grouped dispatches per op at 16 concurrent events",
             reduction16 >= 2.0 ? "PASS" : "FAIL"});
  t4.AddRow({"max added queueing delay <= configured window",
             queue_delay8.max() <= kWindow ? "PASS" : "FAIL"});
  t4.AddRow({"per-event results byte-identical to serial",
             serial_equivalent && passthrough_equivalent ? "PASS" : "FAIL"});
  t4.Print();
}

void BM_UncoalescedEvents8(benchmark::State& state) {
  workload::Testbed bed = MakeBed(0);
  for (auto _ : state) {
    RunStats stats = RunEvents(bed, 8, 1, false);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_UncoalescedEvents8)->Unit(benchmark::kMicrosecond)->Iterations(100);

void BM_CoalescedEvents8(benchmark::State& state) {
  workload::Testbed bed = MakeBed(kWindow);
  for (auto _ : state) {
    RunStats stats = RunEvents(bed, 8, 1, true);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_CoalescedEvents8)->Unit(benchmark::kMicrosecond)->Iterations(100);

}  // namespace

int main(int argc, char** argv) {
  PrintCoalescerTables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
