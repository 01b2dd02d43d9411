// LDAP Distinguished Names (RFC 2251/4514 subset). The UDC specifications
// mandate an LDAP view of subscriber data; the UDR directory tree used here:
//
//   dc=udr
//   └── ou=subscribers
//       └── <idtype>=<value>            e.g. imsi=214050000000001
//
// where <idtype> is one of imsi / msisdn / impu / impi — the leaf RDN names
// the identity index the data location stage should use.

#ifndef UDR_LDAP_DN_H_
#define UDR_LDAP_DN_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace udr::ldap {

/// One relative distinguished name component: attr=value.
struct Rdn {
  std::string attr;   ///< Lower-cased attribute name.
  std::string value;  ///< Attribute value (case preserved).

  bool operator==(const Rdn& o) const { return attr == o.attr && value == o.value; }
};

/// A parsed distinguished name (leaf first, root last, as in LDAP strings).
class Dn {
 public:
  Dn() = default;
  explicit Dn(std::vector<Rdn> rdns) : rdns_(std::move(rdns)) {}

  /// Parser bounds: a DN longer than kMaxLength bytes or with more than
  /// kMaxRdns RDNs is rejected with InvalidArgument before any RDN is built.
  static constexpr size_t kMaxLength = 16 * 1024;
  static constexpr size_t kMaxRdns = 64;

  /// Parses "a=b,c=d,...". A backslash escapes ',' or itself ("\," and
  /// "\\"); any other backslash is rejected with InvalidArgument.
  static StatusOr<Dn> Parse(const std::string& text);

  /// Serializes back to string form.
  std::string ToString() const;

  bool empty() const { return rdns_.empty(); }
  size_t depth() const { return rdns_.size(); }
  const std::vector<Rdn>& rdns() const { return rdns_; }

  /// Leaf (first) RDN; must not be empty.
  const Rdn& leaf() const { return rdns_.front(); }

  /// DN without the leaf RDN.
  Dn Parent() const;

  /// New DN with an extra leaf RDN prepended.
  Dn Child(std::string attr, std::string value) const;

  /// True when this DN ends with `suffix` (is within that subtree).
  bool IsWithin(const Dn& suffix) const;

  bool operator==(const Dn& o) const { return rdns_ == o.rdns_; }

 private:
  std::vector<Rdn> rdns_;
};

/// The subscribers container: "ou=subscribers,dc=udr".
Dn SubscribersBase();

/// Builds the DN of a subscriber entry keyed by the given identity attribute.
Dn SubscriberDn(const std::string& identity_attr, const std::string& value);

}  // namespace udr::ldap

#endif  // UDR_LDAP_DN_H_
