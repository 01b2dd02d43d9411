// LDAP protocol operations and result codes (RFC 2251 subset relevant to the
// UDR northbound interface). Wire encoding (BER) is out of scope; messages
// are plain structs handed between simulated components.

#ifndef UDR_LDAP_MESSAGE_H_
#define UDR_LDAP_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "ldap/dn.h"
#include "storage/record.h"

namespace udr::ldap {

/// LDAP operation kinds supported by the UDR.
enum class LdapOp : uint8_t {
  kSearch = 0,
  kAdd = 1,
  kModify = 2,
  kDelete = 3,
  kCompare = 4,
};

const char* LdapOpName(LdapOp op);

/// RFC 2251 §4.1.10 result codes (subset).
enum class LdapResultCode : int {
  kSuccess = 0,
  kOperationsError = 1,
  kProtocolError = 2,
  kTimeLimitExceeded = 3,
  kCompareFalse = 5,
  kCompareTrue = 6,
  kNoSuchObject = 32,
  kBusy = 51,
  kUnavailable = 52,
  kUnwillingToPerform = 53,
  kEntryAlreadyExists = 68,
  kOther = 80,
};

const char* LdapResultCodeName(LdapResultCode code);

/// Maps an internal Status to the closest LDAP result code.
LdapResultCode StatusToLdapCode(const Status& status);

/// RFC 2251 modify operation types.
enum class ModType : uint8_t { kAdd = 0, kDelete = 1, kReplace = 2 };

/// One modification within a Modify request.
struct Modification {
  ModType type = ModType::kReplace;
  std::string attr;
  storage::Value value;  ///< Ignored for kDelete.
};

/// Search scope (RFC 2251 §4.5.1).
enum class SearchScope : uint8_t { kBaseObject = 0, kSingleLevel = 1 };

/// A northbound request to the UDR.
struct LdapRequest {
  LdapOp op = LdapOp::kSearch;
  Dn dn;                                ///< Target entry / search base.
  SearchScope scope = SearchScope::kBaseObject;
  std::string filter = "(objectclass=*)";
  std::vector<std::string> requested_attrs;  ///< Empty = all.
  std::vector<Modification> mods;       ///< Modify payload.
  storage::Record add_entry;            ///< Add payload.
  std::string compare_attr;             ///< Compare payload.
  std::string compare_value;
  /// Proprietary control: route reads to the master copy only. Set by the
  /// Provisioning System (paper §3.3.3 decision 2); application front-ends
  /// leave it false and may be served by slave copies (§3.3.2 decision 2).
  bool master_only = false;
};

/// One entry returned by a search.
struct SearchEntry {
  Dn dn;
  storage::Record record;
};

/// Response to a northbound request.
struct LdapResult {
  LdapResultCode code = LdapResultCode::kSuccess;
  std::string diagnostic;
  std::vector<SearchEntry> entries;
  MicroDuration latency = 0;  ///< Client-observed latency.
  bool stale = false;         ///< Read served from a lagging slave copy.

  bool ok() const {
    return code == LdapResultCode::kSuccess ||
           code == LdapResultCode::kCompareTrue ||
           code == LdapResultCode::kCompareFalse;
  }
};

/// Response to a multi-op request (one signaling event's worth of LDAP ops
/// shipped as a single northbound message, paper §2.2).
struct LdapBatchResult {
  std::vector<LdapResult> results;  ///< 1:1 with the submitted requests.
  /// Modelled end-to-end latency of the whole batch (one client round trip;
  /// per-result latencies carry only each op's own service share). Includes
  /// `queue_delay` when the event sat in a coalescing window.
  MicroDuration latency = 0;
  /// Share of `latency` spent parked in the PoA's cross-event dispatch
  /// window waiting for it to close (0 on the inline path).
  MicroDuration queue_delay = 0;
  int partition_groups = 0;  ///< Partition fan-out of the batch dispatch.
  int bypass_hits = 0;       ///< Ops served by the hash-routed fast path.
  int coalesced_events = 0;  ///< Events sharing the dispatch window flush.

  bool ok() const {
    for (const LdapResult& r : results) {
      if (!r.ok()) return false;
    }
    return true;
  }
  int failed_ops() const {
    int n = 0;
    for (const LdapResult& r : results) {
      if (!r.ok()) ++n;
    }
    return n;
  }
};

}  // namespace udr::ldap

#endif  // UDR_LDAP_MESSAGE_H_
