#include "location/identity.h"

namespace udr::location {

const char* IdentityTypeName(IdentityType type) {
  switch (type) {
    case IdentityType::kImsi:
      return "IMSI";
    case IdentityType::kMsisdn:
      return "MSISDN";
    case IdentityType::kImpu:
      return "IMPU";
    case IdentityType::kImpi:
      return "IMPI";
  }
  return "?";
}

uint64_t HashIdentity(IdentityType type, std::string_view value) {
  uint64_t h = 14695981039346656037ULL;
  h = (h ^ static_cast<uint8_t>(type)) * 1099511628211ULL;
  for (unsigned char c : value) {
    h = (h ^ c) * 1099511628211ULL;
  }
  // FNV-1a avalanches poorly in the high bits, and ring ownership compares
  // full 64-bit values: sequential numbering-plan identities (IMSI blocks
  // differing only in trailing digits) would otherwise cluster on one ring
  // arc and land on 1-2 partitions. Finish with a splitmix64-style mixer.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace udr::location
