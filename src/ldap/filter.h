// LDAP search filters (RFC 4515 string representation, common subset):
// equality (attr=value), presence (attr=*), AND (&...), OR (|...), NOT (!...),
// plus >= and <= on integer attributes.

#ifndef UDR_LDAP_FILTER_H_
#define UDR_LDAP_FILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/record.h"

namespace udr::ldap {

/// Parsed filter tree; evaluates against storage records.
class Filter {
 public:
  enum class Kind { kEquality, kPresence, kGreaterEq, kLessEq, kAnd, kOr, kNot };

  /// Parser bounds: a filter longer than kMaxLength bytes or nested deeper
  /// than kMaxDepth levels is rejected with InvalidArgument before it can
  /// exhaust memory or the stack.
  static constexpr size_t kMaxLength = 16 * 1024;
  static constexpr int kMaxDepth = 64;

  /// Parses a filter string like "(&(msisdn=+34600)(barred=false))".
  static StatusOr<Filter> Parse(const std::string& text);

  /// Convenience equality filter.
  static Filter Eq(std::string attr, std::string value);
  /// Convenience presence filter.
  static Filter Present(std::string attr);

  /// Evaluates the filter against a record's attributes. Values compare by
  /// their string rendering, except >=/<= which compare as integers when the
  /// attribute holds an int.
  bool Matches(const storage::Record& record) const;

  Kind kind() const { return kind_; }
  const std::string& attr() const { return attr_; }
  const std::string& value() const { return value_; }
  const std::vector<Filter>& children() const { return children_; }

  /// Serializes back to RFC 4515 form.
  std::string ToString() const;

 private:
  Filter() = default;

  static StatusOr<Filter> ParseInner(std::string_view text, size_t* pos,
                                     int depth);

  Kind kind_ = Kind::kPresence;
  std::string attr_;
  std::string value_;
  std::vector<Filter> children_;
};

}  // namespace udr::ldap

#endif  // UDR_LDAP_FILTER_H_
