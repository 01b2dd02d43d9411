// Consistent-hash ring with virtual nodes. Each node (a data partition, in
// this codebase) contributes `vnodes_per_node` pseudo-random points on a
// 64-bit ring; a key is owned by the first node point at or after the key's
// hash. Adding a node therefore moves only ~K/N of K keys — the property the
// routing layer's PartitionMap and the exec layer's shard assignment both
// rely on, so the ring lives here where either layer can use it.

#ifndef UDR_COMMON_HASH_RING_H_
#define UDR_COMMON_HASH_RING_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

namespace udr {

class HashRing {
 public:
  explicit HashRing(int vnodes_per_node = 64);

  /// Adds a node's virtual points (a sorted-block merge, O(ring + vnodes)).
  /// Node ids must be unique; re-adding an id is a no-op.
  void AddNode(uint32_t node);

  /// Bulk add for ring construction: appends every node's points and sorts
  /// once, instead of paying the per-add merge N times.
  void AddNodes(uint32_t first, uint32_t count);

  /// Node owning `hash`. The ring must be non-empty.
  uint32_t NodeOfHash(uint64_t hash) const;

  size_t node_count() const { return nodes_.size(); }
  size_t point_count() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  int vnodes_per_node() const { return vnodes_; }

  /// Stable ring point for (node, vnode): FNV-1a over the packed pair, so a
  /// ring rebuilt from the same node set is bit-identical across runs.
  static uint64_t PointHash(uint32_t node, int vnode);

 private:
  int vnodes_;
  std::unordered_set<uint32_t> nodes_;
  std::vector<std::pair<uint64_t, uint32_t>> ring_;  ///< Sorted (point, node).
};

}  // namespace udr

#endif  // UDR_COMMON_HASH_RING_H_
