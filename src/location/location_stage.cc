#include "location/location_stage.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace udr::location {

namespace {

/// log2(n) rounded up, minimum 1 (cost model for tree descent).
double Log2Ceil(int64_t n) {
  if (n <= 2) return 1.0;
  return std::ceil(std::log2(static_cast<double>(n)));
}

}  // namespace

// ---------------------------------------------------------------------------
// IdentityIndex
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kInlineBytes = 16;
constexpr uint32_t kArenaCode = 0xFF;

uint32_t LengthCode(uint32_t meta) { return meta & 0xFF; }

}  // namespace

/// A looked-up identity, prepared once for probing: its hash, the meta word
/// a matching slot carries, and the zero-padded inline bytes.
struct IdentityIndex::Probe {
  uint64_t hash = 0;
  uint32_t meta = 0;
  char bytes[kInlineBytes] = {};
  std::string_view value;
};

IdentityIndex::Probe IdentityIndex::MakeProbe(const Identity& id) {
  Probe p;
  p.value = id.value;
  p.hash = HashIdentity(id.type, p.value);
  const uint32_t code = p.value.size() <= kInlineBytes
                            ? static_cast<uint32_t>(p.value.size()) + 1
                            : kArenaCode;
  p.meta = static_cast<uint32_t>(p.hash >> 40) << 8 | code;
  if (code != kArenaCode) std::memcpy(p.bytes, p.value.data(), p.value.size());
  return p;
}

bool IdentityIndex::Matches(const Table& t, const Slot& s, const Probe& p) {
  if (s.meta != p.meta) return false;
  if (LengthCode(s.meta) != kArenaCode) {
    return std::memcmp(s.bytes, p.bytes, kInlineBytes) == 0;
  }
  return ValueOf(t, s) == p.value;
}

std::string_view IdentityIndex::ValueOf(const Table& t, const Slot& s) {
  const uint32_t code = LengthCode(s.meta);
  if (code != kArenaCode) return {s.bytes, code - 1};
  uint32_t at[2];
  std::memcpy(at, s.bytes, sizeof(at));
  return {t.arena.data() + at[0], at[1]};
}

void IdentityIndex::Compact(Table* t) {
  std::vector<char> arena;
  arena.reserve(t->arena.size() - static_cast<size_t>(t->dead));
  t->slots.ForEachMutable([&](Slot& s) {
    if (LengthCode(s.meta) != kArenaCode) return;
    const std::string_view v = ValueOf(*t, s);
    const uint32_t at[2] = {static_cast<uint32_t>(arena.size()),
                            static_cast<uint32_t>(v.size())};
    arena.insert(arena.end(), v.begin(), v.end());
    std::memcpy(s.bytes, at, sizeof(at));
  });
  t->arena.swap(arena);
  t->dead = 0;
}

void IdentityIndex::Bind(const Identity& id, const LocationEntry& entry) {
  Table& t = tables_[static_cast<int>(id.type)];
  const Probe p = MakeProbe(id);
  const auto hash_of = [&t, type = id.type](const Slot& s) {
    return HashIdentity(type, ValueOf(t, s));
  };
  if (t.slots.AtLoadLimit() && t.dead > 0) Compact(&t);
  auto [i, inserted] = t.slots.FindOrInsert(
      p.hash, [&](const Slot& s) { return Matches(t, s, p); }, hash_of);
  Slot& slot = t.slots.at(i);
  slot.key = entry.key;
  slot.partition = entry.partition;
  if (!inserted) return;
  slot.meta = p.meta;
  if (LengthCode(p.meta) != kArenaCode) {
    std::memcpy(slot.bytes, p.bytes, kInlineBytes);
  } else {
    if (p.value.size() > UINT32_MAX - t.arena.size()) {
      // Arena offsets and lengths are 32-bit: 4 GiB of long identities of
      // one type, far beyond any deployment the simulator models.
      std::fprintf(stderr, "[udr] IdentityIndex arena exceeds 4 GiB\n");
      std::abort();
    }
    const uint32_t at[2] = {static_cast<uint32_t>(t.arena.size()),
                            static_cast<uint32_t>(p.value.size())};
    if (t.arena.size() + p.value.size() > t.arena.capacity()) {
      // Grow by half, not double: the arena is most of the index's bytes.
      t.arena.reserve(t.arena.size() + p.value.size() + t.arena.size() / 2);
    }
    t.arena.insert(t.arena.end(), p.value.begin(), p.value.end());
    std::memcpy(slot.bytes, at, sizeof(at));
  }
  value_bytes_ += static_cast<int64_t>(p.value.size());
}

bool IdentityIndex::Unbind(const Identity& id) {
  Table& t = tables_[static_cast<int>(id.type)];
  const Probe p = MakeProbe(id);
  const size_t i =
      t.slots.Find(p.hash, [&](const Slot& s) { return Matches(t, s, p); });
  if (i == FlatTable<Slot>::kNone) return false;
  if (LengthCode(p.meta) == kArenaCode) {
    t.dead += static_cast<int64_t>(p.value.size());
  }
  t.slots.EraseAt(i, [&t, type = id.type](const Slot& s) {
    return HashIdentity(type, ValueOf(t, s));
  });
  value_bytes_ -= static_cast<int64_t>(p.value.size());
  const int64_t live = static_cast<int64_t>(t.arena.size()) - t.dead;
  if (t.dead > live && t.dead >= static_cast<int64_t>(t.slots.capacity())) {
    Compact(&t);
  }
  return true;
}

std::optional<LocationEntry> IdentityIndex::Find(const Identity& id) const {
  const Table& t = tables_[static_cast<int>(id.type)];
  const Probe p = MakeProbe(id);
  const size_t i =
      t.slots.Find(p.hash, [&](const Slot& s) { return Matches(t, s, p); });
  if (i == FlatTable<Slot>::kNone) return std::nullopt;
  const Slot& s = t.slots.at(i);
  return LocationEntry{s.key, s.partition};
}

int64_t IdentityIndex::size() const {
  int64_t n = 0;
  for (const Table& t : tables_) n += static_cast<int64_t>(t.slots.size());
  return n;
}

void IdentityIndex::Clear() {
  for (Table& t : tables_) t = Table();
  value_bytes_ = 0;
}

void IdentityIndex::ForEach(IdentityType type, const Visitor& fn) const {
  const Table& t = tables_[static_cast<int>(type)];
  t.slots.ForEach([&](const Slot& s) {
    fn(IdentityView{type, ValueOf(t, s)}, LocationEntry{s.key, s.partition});
  });
}

void IdentityIndex::ForEach(const Visitor& fn) const {
  for (int type = 0; type < kIdentityTypeCount; ++type) {
    ForEach(static_cast<IdentityType>(type), fn);
  }
}

int64_t IdentityIndex::HostBytes() const {
  int64_t bytes = 0;
  for (const Table& t : tables_) {
    bytes += t.slots.SlotBytes() + static_cast<int64_t>(t.arena.capacity());
  }
  return bytes;
}

int64_t IdentityIndex::arena_live_bytes() const {
  int64_t bytes = 0;
  for (const Table& t : tables_) {
    bytes += static_cast<int64_t>(t.arena.size()) - t.dead;
  }
  return bytes;
}

int64_t IdentityIndex::arena_dead_bytes() const {
  int64_t bytes = 0;
  for (const Table& t : tables_) bytes += t.dead;
  return bytes;
}

// ---------------------------------------------------------------------------
// ProvisionedLocationStage
// ---------------------------------------------------------------------------

ProvisionedLocationStage::ProvisionedLocationStage(const IdentityIndex* index,
                                                   LocationCostModel model)
    : index_(index), model_(model) {}

ResolveResult ProvisionedLocationStage::Resolve(const Identity& id,
                                                MicroTime now) {
  ResolveResult out;
  if (Syncing(now)) {
    // §3.4.2: operations issued on the PoA realized by the new blade cluster
    // cannot be handled during the initial identity-map sync.
    out.status = Status::Unavailable(
        "location stage syncing identity maps (scale-out in progress)");
    return out;
  }
  out.cost = model_.map_base +
             static_cast<MicroDuration>(static_cast<double>(model_.map_per_log2) *
                                        Log2Ceil(index_->CountOf(id.type)));
  const std::optional<LocationEntry> entry = index_->Find(id);
  if (!entry) {
    out.status = Status::NotFound("identity " + id.ToString());
    return out;
  }
  out.status = Status::Ok();
  out.entry = *entry;
  return out;
}

int64_t ProvisionedLocationStage::EntryCount() const { return index_->size(); }

int64_t ProvisionedLocationStage::ApproxBytes() const {
  return index_->size() * model_.bytes_per_entry + index_->value_bytes();
}

MicroDuration ProvisionedLocationStage::BeginSyncFrom(
    const ProvisionedLocationStage& peer, MicroTime now) {
  index_ = peer.index_;
  MicroDuration window = peer.EntryCount() * model_.sync_per_entry;
  sync_done_at_ = now + window;
  return window;
}

// ---------------------------------------------------------------------------
// CachedLocationStage
// ---------------------------------------------------------------------------

CachedLocationStage::CachedLocationStage(
    std::function<StatusOr<LocationEntry>(const Identity&)> authoritative,
    std::function<int()> se_count_fn, LocationCostModel model)
    : authoritative_(std::move(authoritative)),
      se_count_fn_(std::move(se_count_fn)),
      model_(model) {}

ResolveResult CachedLocationStage::Resolve(const Identity& id, MicroTime now) {
  (void)now;
  ResolveResult out;
  if (const std::optional<LocationEntry> hit = cache_.Find(id)) {
    ++hits_;
    out.status = Status::Ok();
    out.entry = *hit;
    out.cost = model_.map_base;
    return out;
  }
  // Miss: broadcast a location query to every SE in the system (§3.5: "every
  // cache miss implies locating the subscriber by querying multiple or even
  // all the SE in the system").
  ++misses_;
  out.cache_miss = true;
  int se_count = se_count_fn_();
  out.cost = model_.broadcast_rtt + se_count * model_.broadcast_per_se;
  auto found = authoritative_(id);
  if (!found.ok()) {
    out.status = found.status();
    return out;
  }
  cache_.Bind(id, *found);
  out.status = Status::Ok();
  out.entry = *found;
  return out;
}

Status CachedLocationStage::Bind(const Identity& id,
                                 const LocationEntry& entry) {
  cache_.Bind(id, entry);
  return Status::Ok();
}

Status CachedLocationStage::Unbind(const Identity& id) {
  cache_.Unbind(id);
  return Status::Ok();
}

int64_t CachedLocationStage::EntryCount() const { return cache_.size(); }

int64_t CachedLocationStage::ApproxBytes() const {
  return cache_.size() * model_.bytes_per_entry + cache_.value_bytes();
}

void CachedLocationStage::InvalidateAll() { cache_.Clear(); }

}  // namespace udr::location
