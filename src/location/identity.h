// Subscriber identities. The UDR must support one index per identity type
// (MSISDN, IMSI, IMPU, ... — paper §3.3.1/§3.5); an identity is the key a
// client presents, the data location stage turns it into a record location.

#ifndef UDR_LOCATION_IDENTITY_H_
#define UDR_LOCATION_IDENTITY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace udr::location {

/// Identity spaces indexed by the UDR.
enum class IdentityType : uint8_t {
  kImsi = 0,    ///< E.212 International Mobile Subscriber Identity.
  kMsisdn = 1,  ///< E.164 directory number.
  kImpu = 2,    ///< IMS Public User Identity (SIP URI / tel URI).
  kImpi = 3,    ///< IMS Private User Identity.
};

constexpr int kIdentityTypeCount = 4;

/// Name of an identity type ("IMSI", "MSISDN", ...).
const char* IdentityTypeName(IdentityType type);

/// One concrete identity value.
struct Identity {
  IdentityType type = IdentityType::kImsi;
  std::string value;

  bool operator==(const Identity& o) const {
    return type == o.type && value == o.value;
  }
  bool operator<(const Identity& o) const {
    if (type != o.type) return type < o.type;
    return value < o.value;
  }

  std::string ToString() const {
    return std::string(IdentityTypeName(type)) + ":" + value;
  }
};

/// A bound identity as the index stores it: the type and a view of the
/// value bytes (valid until the index's next Bind/Unbind).
struct IdentityView {
  IdentityType type = IdentityType::kImsi;
  std::string_view value;

  Identity ToIdentity() const { return {type, std::string(value)}; }
};

/// FNV-1a hash of an identity (stable across platforms; used by the
/// consistent-hashing location alternative).
uint64_t HashIdentity(IdentityType type, std::string_view value);
inline uint64_t HashIdentity(const Identity& id) {
  return HashIdentity(id.type, id.value);
}

struct IdentityHasher {
  size_t operator()(const Identity& id) const {
    return static_cast<size_t>(HashIdentity(id));
  }
};

}  // namespace udr::location

#endif  // UDR_LOCATION_IDENTITY_H_
