// E8 — the data location stage (§3.3.1 decision 1, §3.5, the H-F link).
//
// Compares the three realizations the paper discusses:
//   * provisioned identity-location maps: O(log N) lookups, per-entry RAM
//     stolen from subscriber storage;
//   * cached maps: O(1) hits but a miss broadcasts to every SE in the
//     system (cost grows with #SE);
//   * consistent hashing: O(1), near-zero state — but no selective placement
//     and one data replica per identity type (the paper's impracticality).
//     Here that is the router's hash bypass: PartitionMap's vnode ring
//     (PartitionOfIdentity) plus the identity-hash record key, charged the
//     lookup cost UdrNf wires into the bypass (location_model.hash_lookup).
//
// E8e measures the host layout of the shared IdentityIndex: heap bytes
// (mallinfo2 delta) per binding over 100k SubscriberFactory subscribers,
// five identities each. GATE: <= 76 B/binding (the node-based
// unordered_map<Identity, LocationEntry> it replaced cost ~123 B).

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <map>

#include "common/table.h"
#include "location/location_stage.h"
#include "routing/partition_map.h"
#include "sim/network.h"
#include "storage/storage_element.h"
#include "telecom/subscriber.h"

using namespace udr;
using location::Identity;
using location::IdentityType;
using location::LocationEntry;

namespace {

/// A commissioned hash-placement map of `partitions` single-copy partitions
/// on one SE, 128 vnodes each: what the hash bypass resolves against.
class HashPlacement {
 public:
  explicit HashPlacement(uint32_t partitions)
      : network_(sim::Topology(1), &clock_),
        se_(storage::StorageElementConfig(), &clock_),
        map_(Config(partitions), &network_) {
    map_.RegisterStorageElement(&se_, 0);
    map_.Commission();
  }

  const routing::PartitionMap& map() const { return map_; }

  /// Ring RAM: (8-byte hash + 4-byte partition) per ring point.
  int64_t RingBytes() const {
    return static_cast<int64_t>(map_.partition_count()) *
           map_.config().vnodes_per_partition * 12;
  }

 private:
  static routing::PartitionMapConfig Config(uint32_t partitions) {
    routing::PartitionMapConfig cfg;
    cfg.replication_factor = 1;
    cfg.partitions_per_se = static_cast<int>(partitions);
    cfg.vnodes_per_partition = 128;
    return cfg;
  }

  sim::SimClock clock_;
  sim::Network network_;
  storage::StorageElement se_;
  routing::PartitionMap map_;
};

/// Heap bytes in use: small-chunk arena plus mmapped blocks.
int64_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}

/// E8e: host bytes per binding of one IdentityIndex holding every identity
/// of `subscribers` factory subscribers (IMSI, MSISDN, IMPI, SIP and tel
/// IMPU). The temporaries of each Make() are freed before the next, so the
/// in-use delta is the index alone.
void PrintIndexHostBytes() {
  constexpr int64_t kSubscribers = 100'000;
  telecom::SubscriberFactory factory(42);
  location::IdentityIndex index;
  const int64_t before = HeapInUse();
  for (int64_t i = 0; i < kSubscribers; ++i) {
    const telecom::Subscriber sub = factory.Make(static_cast<uint64_t>(i));
    const LocationEntry e{static_cast<storage::RecordKey>(i),
                          static_cast<uint32_t>(i % 16)};
    index.Bind(sub.ImsiId(), e);
    index.Bind(sub.MsisdnId(), e);
    index.Bind({IdentityType::kImpi, sub.impi}, e);
    for (const std::string& impu : sub.impus) {
      index.Bind({IdentityType::kImpu, impu}, e);
    }
  }
  const double per_binding = static_cast<double>(HeapInUse() - before) /
                             static_cast<double>(index.size());
  const bool ok = per_binding <= 76.0;
  Table t("E8e: IdentityIndex host bytes per binding (100k subscribers x "
          "5 identities, mallinfo2 delta)",
          {"bindings", "host B/binding", "slots+arena B/binding", "target",
           "verdict"});
  t.AddRow({Table::Num(index.size()), Table::Dbl(per_binding, 1),
            Table::Dbl(static_cast<double>(index.HostBytes()) /
                           static_cast<double>(index.size()),
                       1),
            "<= 76 B", ok ? "PASS" : "FAIL"});
  t.Print();
}

void PrintLocationTables() {
  location::LocationCostModel model;

  Table t("E8a: provisioned identity-location maps vs subscriber count N "
          "(modelled O(log N) lookup; 2 identities per subscriber)",
          {"N subscribers", "lookup cost", "stage RAM", "RAM vs 200GB SE"});
  for (int64_t n : {10'000LL, 100'000LL, 1'000'000LL}) {
    location::IdentityIndex index;
    location::ProvisionedLocationStage stage(&index, model);
    telecom::SubscriberFactory factory(42);
    for (int64_t i = 0; i < n; ++i) {
      LocationEntry e{static_cast<storage::RecordKey>(i),
                      static_cast<uint32_t>(i % 16)};
      index.Bind({IdentityType::kImsi, factory.ImsiOf(i)}, e);
      index.Bind({IdentityType::kMsisdn, factory.MsisdnOf(i)}, e);
    }
    auto r = stage.Resolve({IdentityType::kImsi, factory.ImsiOf(n / 2)}, 0);
    double se_fraction = static_cast<double>(stage.ApproxBytes()) /
                         (200.0 * 1000 * 1000 * 1000);
    t.AddRow({Table::Num(n), Table::Dur(r.cost),
              Table::Bytes(stage.ApproxBytes()), Table::Pct(se_fraction, 3)});
  }
  t.Print();

  Table t2("E8b: consistent hashing (O(1)) — the §3.5 alternative",
           {"partitions", "lookup cost", "stage RAM", "data replicas needed",
            "selective placement"});
  for (uint32_t parts : {16u, 256u}) {
    HashPlacement placement(parts);
    t2.AddRow({Table::Num(parts), Table::Dur(model.hash_lookup),
               Table::Bytes(placement.RingBytes()),
               Table::Num(location::kIdentityTypeCount) + " (one per identity)",
               "impossible"});
  }
  t2.Print();

  Table t3("E8c: cached maps — miss broadcast cost vs system size (§3.5)",
           {"#SE in system", "hit cost", "miss cost"});
  for (int se_count : {16, 64, 256}) {
    std::map<std::string, LocationEntry> truth;
    truth["x"] = {1, 0};
    location::CachedLocationStage stage(
        [&truth](const Identity& id) -> StatusOr<LocationEntry> {
          auto it = truth.find(id.value);
          if (it == truth.end()) return Status::NotFound("no");
          return it->second;
        },
        [se_count]() { return se_count; }, model);
    auto miss = stage.Resolve({IdentityType::kImsi, "x"}, 0);
    auto hit = stage.Resolve({IdentityType::kImsi, "x"}, 0);
    t3.AddRow({Table::Num(se_count), Table::Dur(hit.cost),
               Table::Dur(miss.cost)});
  }
  t3.Print();

  Table t4("E8d: expected shape", {"check", "result"});
  {
    location::IdentityIndex i1, i2;
    location::ProvisionedLocationStage s1(&i1, model), s2(&i2, model);
    for (int i = 0; i < 1000; ++i) {
      i1.Bind({IdentityType::kImsi, "a" + std::to_string(i)}, {1, 0});
    }
    for (int i = 0; i < 1000000; ++i) {
      i2.Bind({IdentityType::kImsi, "b" + std::to_string(i)}, {1, 0});
    }
    auto c1 = s1.Resolve({IdentityType::kImsi, "a5"}, 0).cost;
    auto c2 = s2.Resolve({IdentityType::kImsi, "b5"}, 0).cost;
    // The bypass charges one constant, whatever N or the partition count.
    auto c3 = model.hash_lookup;
    t4.AddRow({"provisioned lookup grows ~log N (weak H-F link)",
               c2 > c1 && c2 < 3 * c1 ? "PASS" : "FAIL"});
    t4.AddRow({"consistent hashing flat and cheapest",
               c3 <= c1 ? "PASS" : "FAIL"});
  }
  t4.Print();
}

// --- Measured lookup costs (real data structures, not the cost model) ------

void BM_ProvisionedMapLookup(benchmark::State& state) {
  location::IdentityIndex index;
  location::ProvisionedLocationStage stage(&index);
  telecom::SubscriberFactory factory(42);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    index.Bind({IdentityType::kImsi, factory.ImsiOf(i)}, {1, 0});
  }
  uint64_t i = 0;
  for (auto _ : state) {
    auto r = stage.Resolve({IdentityType::kImsi, factory.ImsiOf(i % n)}, 0);
    benchmark::DoNotOptimize(r);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProvisionedMapLookup)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_ConsistentHashLookup(benchmark::State& state) {
  HashPlacement placement(256);
  telecom::SubscriberFactory factory(42);
  uint64_t i = 0;
  for (auto _ : state) {
    const Identity id{IdentityType::kImsi, factory.ImsiOf(i % 1000)};
    // What the bypass computes: the record key and the ring owner.
    LocationEntry e{location::HashIdentity(id),
                    placement.map().PartitionOfIdentity(id)};
    benchmark::DoNotOptimize(e);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConsistentHashLookup);

}  // namespace

int main(int argc, char** argv) {
  PrintLocationTables();
  PrintIndexHostBytes();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
