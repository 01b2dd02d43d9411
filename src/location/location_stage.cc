#include "location/location_stage.h"

#include <algorithm>
#include <cmath>

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

void IdentityIndex::Bind(const Identity& id, const LocationEntry& entry) {
  auto [it, inserted] = map_.try_emplace(id, entry);
  if (!inserted) {
    it->second = entry;
    return;
  }
  ++counts_[static_cast<int>(id.type)];
  value_bytes_ += static_cast<int64_t>(id.value.size());
}

bool IdentityIndex::Unbind(const Identity& id) {
  if (map_.erase(id) == 0) return false;
  --counts_[static_cast<int>(id.type)];
  value_bytes_ -= static_cast<int64_t>(id.value.size());
  return true;
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
  const LocationEntry* entry = index_->Find(id);
  if (entry == nullptr) {
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
  auto it = cache_.find(id);
  if (it != cache_.end()) {
    ++hits_;
    out.status = Status::Ok();
    out.entry = it->second;
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
  cache_[id] = *found;
  out.status = Status::Ok();
  out.entry = *found;
  return out;
}

Status CachedLocationStage::Bind(const Identity& id,
                                 const LocationEntry& entry) {
  cache_[id] = entry;
  return Status::Ok();
}

Status CachedLocationStage::Unbind(const Identity& id) {
  cache_.erase(id);
  return Status::Ok();
}

int64_t CachedLocationStage::EntryCount() const {
  return static_cast<int64_t>(cache_.size());
}

int64_t CachedLocationStage::ApproxBytes() const {
  int64_t bytes = 0;
  for (const auto& [id, _] : cache_) {
    bytes += model_.bytes_per_entry + static_cast<int64_t>(id.value.size());
  }
  return bytes;
}

void CachedLocationStage::InvalidateAll() { cache_.clear(); }

}  // namespace udr::location
