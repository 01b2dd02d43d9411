#include "common/hash_ring.h"

#include <algorithm>
#include <cassert>

namespace udr {

HashRing::HashRing(int vnodes_per_node) : vnodes_(vnodes_per_node) {
  assert(vnodes_ > 0);
}

uint64_t HashRing::PointHash(uint32_t node, int vnode) {
  uint64_t h = 14695981039346656037ULL;
  uint64_t seed =
      (static_cast<uint64_t>(node) << 20) | static_cast<uint64_t>(vnode);
  for (int b = 0; b < 8; ++b) {
    h = (h ^ ((seed >> (b * 8)) & 0xFF)) * 1099511628211ULL;
  }
  return h;
}

void HashRing::AddNode(uint32_t node) {
  if (!nodes_.insert(node).second) return;
  size_t old_size = ring_.size();
  ring_.reserve(old_size + static_cast<size_t>(vnodes_));
  for (int v = 0; v < vnodes_; ++v) {
    ring_.emplace_back(PointHash(node, v), node);
  }
  std::sort(ring_.begin() + old_size, ring_.end());
  std::inplace_merge(ring_.begin(), ring_.begin() + old_size, ring_.end());
}

void HashRing::AddNodes(uint32_t first, uint32_t count) {
  bool appended = false;
  for (uint32_t node = first; node < first + count; ++node) {
    if (!nodes_.insert(node).second) continue;
    for (int v = 0; v < vnodes_; ++v) {
      ring_.emplace_back(PointHash(node, v), node);
    }
    appended = true;
  }
  if (appended) std::sort(ring_.begin(), ring_.end());
}

uint32_t HashRing::NodeOfHash(uint64_t hash) const {
  assert(!ring_.empty());
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(hash, 0u),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

}  // namespace udr
