#include "ldap/filter.h"

#include <cstdlib>

#include "common/strings.h"

namespace udr::ldap {

namespace {

/// RFC 4512 attribute description: a name or numeric OID, options after
/// ';'. An operator, parenthesis or blank in the name position would print
/// as a different filter (or as none).
bool IsAttributeDescription(std::string_view attr) {
  if (attr.empty()) return false;
  for (char c : attr) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.' || c == ';';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Filter Filter::Eq(std::string attr, std::string value) {
  Filter f;
  f.kind_ = Kind::kEquality;
  f.attr_ = ToLower(attr);
  f.value_ = std::move(value);
  return f;
}

Filter Filter::Present(std::string attr) {
  Filter f;
  f.kind_ = Kind::kPresence;
  f.attr_ = ToLower(attr);
  return f;
}

StatusOr<Filter> Filter::Parse(const std::string& text) {
  if (text.size() > kMaxLength) {
    return Status::InvalidArgument("filter longer than " +
                                   std::to_string(kMaxLength) + " bytes");
  }
  size_t pos = 0;
  std::string_view sv = Trim(text);
  auto result = ParseInner(sv, &pos, 1);
  if (!result.ok()) return result;
  if (pos != sv.size()) {
    return Status::InvalidArgument("trailing characters in filter: " + text);
  }
  return result;
}

StatusOr<Filter> Filter::ParseInner(std::string_view text, size_t* pos,
                                    int depth) {
  if (depth > kMaxDepth) {
    return Status::InvalidArgument("filter nested deeper than " +
                                   std::to_string(kMaxDepth) + " levels");
  }
  if (*pos >= text.size() || text[*pos] != '(') {
    return Status::InvalidArgument("expected '(' in filter");
  }
  ++*pos;
  if (*pos >= text.size()) {
    return Status::InvalidArgument("truncated filter");
  }

  Filter f;
  char c = text[*pos];
  if (c == '&' || c == '|') {
    f.kind_ = (c == '&') ? Kind::kAnd : Kind::kOr;
    ++*pos;
    while (*pos < text.size() && text[*pos] == '(') {
      auto child = ParseInner(text, pos, depth + 1);
      if (!child.ok()) return child;
      f.children_.push_back(std::move(child).value());
    }
    if (f.children_.empty()) {
      return Status::InvalidArgument("composite filter with no children");
    }
  } else if (c == '!') {
    f.kind_ = Kind::kNot;
    ++*pos;
    auto child = ParseInner(text, pos, depth + 1);
    if (!child.ok()) return child;
    f.children_.push_back(std::move(child).value());
  } else {
    // Simple item: attr OP value, where OP in {=, >=, <=}.
    size_t end = text.find(')', *pos);
    if (end == std::string_view::npos) {
      return Status::InvalidArgument("missing ')' in filter");
    }
    std::string_view item = text.substr(*pos, end - *pos);
    size_t ge = item.find(">=");
    size_t le = item.find("<=");
    size_t eq = item.find('=');
    if (ge != std::string_view::npos && (eq == std::string_view::npos || ge < eq)) {
      f.kind_ = Kind::kGreaterEq;
      f.attr_ = ToLower(Trim(item.substr(0, ge)));
      f.value_ = std::string(Trim(item.substr(ge + 2)));
    } else if (le != std::string_view::npos &&
               (eq == std::string_view::npos || le < eq)) {
      f.kind_ = Kind::kLessEq;
      f.attr_ = ToLower(Trim(item.substr(0, le)));
      f.value_ = std::string(Trim(item.substr(le + 2)));
    } else if (eq != std::string_view::npos && eq > 0) {
      std::string_view value = Trim(item.substr(eq + 1));
      f.attr_ = ToLower(Trim(item.substr(0, eq)));
      if (value == "*") {
        f.kind_ = Kind::kPresence;
      } else {
        f.kind_ = Kind::kEquality;
        f.value_ = std::string(value);
      }
    } else {
      return Status::InvalidArgument("malformed filter item '" +
                                     std::string(item) + "'");
    }
    if (!IsAttributeDescription(f.attr_)) {
      return Status::InvalidArgument("malformed attribute '" + f.attr_ +
                                     "' in filter item");
    }
    *pos = end;
  }

  if (*pos >= text.size() || text[*pos] != ')') {
    return Status::InvalidArgument("missing closing ')' in filter");
  }
  ++*pos;
  return f;
}

bool Filter::Matches(const storage::Record& record) const {
  switch (kind_) {
    case Kind::kAnd:
      for (const Filter& child : children_) {
        if (!child.Matches(record)) return false;
      }
      return true;
    case Kind::kOr:
      for (const Filter& child : children_) {
        if (child.Matches(record)) return true;
      }
      return false;
    case Kind::kNot:
      return !children_.front().Matches(record);
    case Kind::kPresence:
      return record.Has(attr_);
    case Kind::kEquality: {
      const storage::Attribute* a = record.Find(attr_);
      if (a == nullptr) return false;
      // Multi-valued attributes match when any value matches.
      if (const auto* xs = std::get_if<std::vector<std::string>>(&a->value)) {
        for (const auto& x : *xs) {
          if (x == value_) return true;
        }
        return false;
      }
      return storage::ValueToString(a->value) == value_;
    }
    case Kind::kGreaterEq:
    case Kind::kLessEq: {
      const storage::Attribute* a = record.Find(attr_);
      if (a == nullptr) return false;
      const int64_t* iv = std::get_if<int64_t>(&a->value);
      if (iv != nullptr) {
        int64_t rhs = std::strtoll(value_.c_str(), nullptr, 10);
        return kind_ == Kind::kGreaterEq ? *iv >= rhs : *iv <= rhs;
      }
      std::string lhs = storage::ValueToString(a->value);
      return kind_ == Kind::kGreaterEq ? lhs >= value_ : lhs <= value_;
    }
  }
  return false;
}

std::string Filter::ToString() const {
  switch (kind_) {
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      out += (kind_ == Kind::kAnd) ? '&' : '|';
      for (const Filter& child : children_) out += child.ToString();
      out += ")";
      return out;
    }
    case Kind::kNot:
      return "(!" + children_.front().ToString() + ")";
    case Kind::kPresence:
      return "(" + attr_ + "=*)";
    case Kind::kEquality:
      return "(" + attr_ + "=" + value_ + ")";
    case Kind::kGreaterEq:
      return "(" + attr_ + ">=" + value_ + ")";
    case Kind::kLessEq:
      return "(" + attr_ + "<=" + value_ + ")";
  }
  return "";
}

}  // namespace udr::ldap
