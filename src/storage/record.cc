#include "storage/record.h"

#include <algorithm>

namespace udr::storage {
namespace {

// Byte-model constants. The packed side charges what the structures actually
// occupy (sizeof-based, contiguous entries amortize one allocation); the map
// side charges what libstdc++'s std::map<std::string, Attribute> costs per
// attribute: a red-black-tree node header (parent/left/right + color, padded)
// plus its allocation header, plus the std::string name object — the per-
// attribute overheads the packed layout eliminates.
constexpr int64_t kAllocHeader = 16;       // malloc bookkeeping per allocation.
constexpr int64_t kRbNodeHeader = 40;      // _Rb_tree_node_base + padding.
constexpr int64_t kStringObject = 32;      // sizeof(std::string), SSO buffer.
constexpr int64_t kStringSso = 15;         // chars held inline by SSO.
constexpr int64_t kMapRecordOverhead = 64; // map object + version + index slot.
// Packed record: vector object + version + hash-index slot share. Entry
// storage is charged per entry below.
constexpr int64_t kPackedRecordOverhead = 48;
// PoA read-through cache bookkeeping per cached record: doubly-linked LRU
// node + unordered_map index slot + (partition, epoch) tag, alloc headers in.
constexpr int64_t kCacheEntryOverhead = 96;

int64_t StringHeapBytes(const std::string& s) {
  return static_cast<int64_t>(s.size()) <= kStringSso
             ? 0
             : static_cast<int64_t>(s.size()) + 1 + kAllocHeader;
}

}  // namespace

std::string ValueToString(const Value& v) {
  struct Visitor {
    std::string operator()(int64_t x) const { return std::to_string(x); }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(const std::string& s) const { return s; }
    std::string operator()(const std::vector<std::string>& xs) const {
      std::string out = "[";
      for (size_t i = 0; i < xs.size(); ++i) {
        if (i != 0) out += ", ";
        out += xs[i];
      }
      out += "]";
      return out;
    }
  };
  return std::visit(Visitor{}, v);
}

int64_t ValueBytes(const Value& v) {
  struct Visitor {
    int64_t operator()(int64_t) const { return 8; }
    int64_t operator()(bool) const { return 1; }
    int64_t operator()(const std::string& s) const {
      return static_cast<int64_t>(s.size()) + 16;
    }
    int64_t operator()(const std::vector<std::string>& xs) const {
      int64_t total = 24;
      for (const auto& s : xs) total += static_cast<int64_t>(s.size()) + 16;
      return total;
    }
  };
  return std::visit(Visitor{}, v);
}

int64_t ValueHeapBytes(const Value& v) {
  struct Visitor {
    int64_t operator()(int64_t) const { return 0; }
    int64_t operator()(bool) const { return 0; }
    int64_t operator()(const std::string& s) const {
      return StringHeapBytes(s);
    }
    int64_t operator()(const std::vector<std::string>& xs) const {
      if (xs.empty()) return 0;
      int64_t total =
          kAllocHeader + static_cast<int64_t>(xs.size()) * kStringObject;
      for (const auto& s : xs) total += StringHeapBytes(s);
      return total;
    }
  };
  return std::visit(Visitor{}, v);
}

bool ValueEquals(const Value& a, const Value& b) { return a == b; }

size_t Record::LowerBound(AttrId id) const {
  auto it = std::lower_bound(
      attrs_.begin(), attrs_.end(), id,
      [](const PackedAttr& e, AttrId target) { return e.name_id < target; });
  return static_cast<size_t>(it - attrs_.begin());
}

void Record::Set(std::string_view name, Value value, MicroTime at,
                 uint32_t writer) {
  SetById(AttrPool::Global().Intern(name), std::move(value), at, writer);
}

void Record::SetById(AttrId id, Value value, MicroTime at, uint32_t writer) {
  size_t pos = LowerBound(id);
  if (pos < attrs_.size() && attrs_[pos].name_id == id) {
    Attribute& attr = attrs_[pos].attr;
    attr.value = std::move(value);
    attr.modified_at = at;
    attr.writer = writer;
    return;
  }
  if (attrs_.size() == attrs_.capacity()) {
    // Grow a full vector by a quarter, not by doubling: records are created
    // at their exact size, and one later attribute must not double them.
    attrs_.reserve(attrs_.size() + std::max<size_t>(2, attrs_.size() / 4));
  }
  PackedAttr entry;
  entry.name_id = id;
  entry.attr.value = std::move(value);
  entry.attr.modified_at = at;
  entry.attr.writer = writer;
  attrs_.insert(attrs_.begin() + pos, std::move(entry));
}

bool Record::Remove(std::string_view name) {
  AttrId id = AttrPool::Global().Lookup(name);
  return id == kInvalidAttrId ? false : RemoveById(id);
}

bool Record::RemoveById(AttrId id) {
  size_t pos = LowerBound(id);
  if (pos >= attrs_.size() || attrs_[pos].name_id != id) return false;
  attrs_.erase(attrs_.begin() + pos);
  return true;
}

Record Record::Projected(const std::vector<AttrId>& ids) const {
  Record out;
  out.version_ = version_;
  out.attrs_.reserve(std::min(ids.size(), attrs_.size()));
  for (AttrId id : ids) {
    size_t pos = LowerBound(id);
    if (pos < attrs_.size() && attrs_[pos].name_id == id) {
      out.attrs_.push_back(attrs_[pos]);
    }
  }
  return out;
}

void Record::Retain(const std::vector<AttrId>& ids) {
  attrs_.erase(std::remove_if(attrs_.begin(), attrs_.end(),
                              [&ids](const PackedAttr& e) {
                                return !std::binary_search(ids.begin(),
                                                           ids.end(),
                                                           e.name_id);
                              }),
               attrs_.end());
}

const Attribute* Record::Find(std::string_view name) const {
  AttrId id = AttrPool::Global().Lookup(name);
  return id == kInvalidAttrId ? nullptr : FindById(id);
}

const Attribute* Record::FindById(AttrId id) const {
  size_t pos = LowerBound(id);
  if (pos >= attrs_.size() || attrs_[pos].name_id != id) return nullptr;
  return &attrs_[pos].attr;
}

std::optional<Value> Record::Get(std::string_view name) const {
  const Attribute* attr = Find(name);
  if (attr == nullptr) return std::nullopt;
  return attr->value;
}

void Record::ForEachAttribute(
    const std::function<void(std::string_view, const Attribute&)>& fn) const {
  for (const PackedAttr& e : attrs_) {
    fn(AttrPool::Global().NameOf(e.name_id), e.attr);
  }
}

// lint:allow(storage-string-map): legacy-form shim, see record.h.
std::map<std::string, Attribute> Record::ToMap() const {
  // lint:allow(storage-string-map): legacy-form shim, see record.h.
  std::map<std::string, Attribute> out;
  for (const PackedAttr& e : attrs_) {
    out.emplace(std::string(AttrPool::Global().NameOf(e.name_id)), e.attr);
  }
  return out;
}

// lint:allow(storage-string-map): legacy-form shim, see record.h.
Record Record::FromMap(const std::map<std::string, Attribute>& attrs) {
  Record r;
  for (const auto& [name, attr] : attrs) {
    r.Set(name, attr.value, attr.modified_at, attr.writer);
  }
  return r;
}

MicroTime Record::LastModified() const {
  MicroTime latest = 0;
  for (const PackedAttr& e : attrs_) {
    latest = std::max(latest, e.attr.modified_at);
  }
  return latest;
}

int64_t Record::ApproxBytes() const {
  int64_t total = kPackedRecordOverhead;
  if (!attrs_.empty()) {
    total += kAllocHeader +
             static_cast<int64_t>(attrs_.size() * sizeof(PackedAttr));
  }
  for (const PackedAttr& e : attrs_) total += ValueHeapBytes(e.attr.value);
  return total;
}

int64_t Record::CacheFootprintBytes() const {
  // The cached copy pays the record's own packed footprint plus the cache's
  // per-entry bookkeeping (LRU list node + hash index slot + epoch tag).
  return ApproxBytes() + kCacheEntryOverhead;
}

int64_t Record::MapLayoutBytes() const {
  int64_t total = kMapRecordOverhead;
  for (const PackedAttr& e : attrs_) {
    std::string_view name = AttrPool::Global().NameOf(e.name_id);
    total += kRbNodeHeader + kAllocHeader + kStringObject;
    if (static_cast<int64_t>(name.size()) > kStringSso) {
      total += static_cast<int64_t>(name.size()) + 1 + kAllocHeader;
    }
    total += static_cast<int64_t>(sizeof(Attribute));
    total += ValueHeapBytes(e.attr.value);
  }
  return total;
}

}  // namespace udr::storage
