// Unit tests for src/ldap: DN parsing, filters, a seeded generator of
// well-formed and malformed filters and DNs, result-code mapping, the
// stateless server farm and the L4 balancer.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "ldap/dn.h"
#include "ldap/filter.h"
#include "ldap/message.h"
#include "ldap/server.h"

namespace udr::ldap {
namespace {

// ---------------------------------------------------------------------------
// Dn
// ---------------------------------------------------------------------------

TEST(DnTest, ParseSimple) {
  auto dn = Dn::Parse("imsi=214050000000001,ou=subscribers,dc=udr");
  ASSERT_TRUE(dn.ok());
  EXPECT_EQ(dn->depth(), 3u);
  EXPECT_EQ(dn->leaf().attr, "imsi");
  EXPECT_EQ(dn->leaf().value, "214050000000001");
  EXPECT_EQ(dn->rdns()[2].attr, "dc");
}

TEST(DnTest, ParseNormalizesAttrCaseOnly) {
  auto dn = Dn::Parse("MSISDN=+34Abc, OU=Subscribers");
  ASSERT_TRUE(dn.ok());
  EXPECT_EQ(dn->leaf().attr, "msisdn");
  EXPECT_EQ(dn->leaf().value, "+34Abc");  // Value case preserved.
  EXPECT_EQ(dn->rdns()[1].value, "Subscribers");
}

TEST(DnTest, ParseEscapedComma) {
  auto dn = Dn::Parse("cn=Doe\\, John,ou=people");
  ASSERT_TRUE(dn.ok());
  EXPECT_EQ(dn->leaf().value, "Doe, John");
  EXPECT_EQ(dn->ToString(), "cn=Doe\\, John,ou=people");
}

TEST(DnTest, ParseErrors) {
  EXPECT_FALSE(Dn::Parse("nocomma=ok,").ok());   // Empty trailing RDN.
  EXPECT_FALSE(Dn::Parse("=value,ou=x").ok());   // Missing attr.
  EXPECT_FALSE(Dn::Parse("attrnovalue,ou=x").ok());
  EXPECT_FALSE(Dn::Parse("a=,ou=x").ok());       // Empty value.
}

/// A DN of `n` RDNs: "a0=v,a1=v,...".
std::string RdnChain(size_t n) {
  std::string text;
  for (size_t i = 0; i < n; ++i) {
    if (i != 0) text += ",";
    text += "a" + std::to_string(i) + "=v";
  }
  return text;
}

TEST(DnTest, RdnCountIsCapped) {
  auto at_cap = Dn::Parse(RdnChain(Dn::kMaxRdns));
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap->depth(), Dn::kMaxRdns);
  EXPECT_TRUE(Dn::Parse(RdnChain(Dn::kMaxRdns + 1)).status().IsInvalidArgument());
  // Escaped commas do not separate RDNs, so they do not count.
  std::string escaped = "a=";
  for (size_t i = 0; i < Dn::kMaxRdns * 2; ++i) escaped += "\\,";
  EXPECT_TRUE(Dn::Parse(escaped).ok());
  // Commas within the length cap are refused at the RDN cap, and a 1 MiB
  // DN of commas is refused without building its ~500k RDNs.
  EXPECT_TRUE(Dn::Parse(std::string(Dn::kMaxLength, ','))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      Dn::Parse(std::string(1 << 20, ',')).status().IsInvalidArgument());
}

TEST(DnTest, LengthIsCapped) {
  const std::string at_cap = "a=" + std::string(Dn::kMaxLength - 2, 'x');
  ASSERT_EQ(at_cap.size(), Dn::kMaxLength);
  EXPECT_TRUE(Dn::Parse(at_cap).ok());
  EXPECT_TRUE(Dn::Parse(at_cap + "x").status().IsInvalidArgument());
  const std::string mib = "a=" + std::string(1 << 20, 'x');
  EXPECT_TRUE(Dn::Parse(mib).status().IsInvalidArgument());
}

TEST(DnTest, EmptyDnParses) {
  auto dn = Dn::Parse("");
  ASSERT_TRUE(dn.ok());
  EXPECT_TRUE(dn->empty());
}

TEST(DnTest, RoundTrip) {
  const std::string text = "impu=sip:+34600@ims.example,ou=subscribers,dc=udr";
  auto dn = Dn::Parse(text);
  ASSERT_TRUE(dn.ok());
  EXPECT_EQ(dn->ToString(), text);
}

TEST(DnTest, ParentAndChild) {
  Dn base = SubscribersBase();
  EXPECT_EQ(base.ToString(), "ou=subscribers,dc=udr");
  Dn sub = base.Child("imsi", "214");
  EXPECT_EQ(sub.ToString(), "imsi=214,ou=subscribers,dc=udr");
  EXPECT_EQ(sub.Parent(), base);
  EXPECT_TRUE(sub.IsWithin(base));
  EXPECT_FALSE(base.IsWithin(sub));
}

TEST(DnTest, SubscriberDnHelper) {
  Dn dn = SubscriberDn("msisdn", "+34600000001");
  EXPECT_EQ(dn.leaf().attr, "msisdn");
  EXPECT_TRUE(dn.IsWithin(SubscribersBase()));
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

storage::Record MakeRecord() {
  storage::Record r;
  r.Set("msisdn", std::string("+34600000001"), 0, 0);
  r.Set("barred", false, 0, 0);
  r.Set("charging-profile", int64_t{5}, 0, 0);
  r.Set("impu", std::vector<std::string>{"sip:a@x", "tel:+34600000001"}, 0, 0);
  return r;
}

TEST(FilterTest, EqualityMatch) {
  auto f = Filter::Parse("(msisdn=+34600000001)");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->Matches(MakeRecord()));
  auto f2 = Filter::Parse("(msisdn=+34999999999)");
  ASSERT_TRUE(f2.ok());
  EXPECT_FALSE(f2->Matches(MakeRecord()));
}

TEST(FilterTest, EqualityOnBoolAndInt) {
  ASSERT_TRUE(Filter::Parse("(barred=false)")->Matches(MakeRecord()));
  ASSERT_FALSE(Filter::Parse("(barred=true)")->Matches(MakeRecord()));
  ASSERT_TRUE(Filter::Parse("(charging-profile=5)")->Matches(MakeRecord()));
}

TEST(FilterTest, MultiValuedMatchesAnyValue) {
  ASSERT_TRUE(Filter::Parse("(impu=tel:+34600000001)")->Matches(MakeRecord()));
  ASSERT_TRUE(Filter::Parse("(impu=sip:a@x)")->Matches(MakeRecord()));
  ASSERT_FALSE(Filter::Parse("(impu=sip:b@x)")->Matches(MakeRecord()));
}

TEST(FilterTest, Presence) {
  ASSERT_TRUE(Filter::Parse("(msisdn=*)")->Matches(MakeRecord()));
  ASSERT_FALSE(Filter::Parse("(ghost=*)")->Matches(MakeRecord()));
}

TEST(FilterTest, AndOrNot) {
  auto f = Filter::Parse("(&(msisdn=+34600000001)(barred=false))");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->Matches(MakeRecord()));
  auto f2 = Filter::Parse("(&(msisdn=+34600000001)(barred=true))");
  EXPECT_FALSE(f2->Matches(MakeRecord()));
  auto f3 = Filter::Parse("(|(msisdn=bad)(charging-profile=5))");
  EXPECT_TRUE(f3->Matches(MakeRecord()));
  auto f4 = Filter::Parse("(!(barred=true))");
  EXPECT_TRUE(f4->Matches(MakeRecord()));
}

TEST(FilterTest, NestedComposite) {
  auto f = Filter::Parse("(&(|(msisdn=bad)(msisdn=+34600000001))(!(ghost=*)))");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->Matches(MakeRecord()));
}

TEST(FilterTest, RangeOperatorsOnInt) {
  EXPECT_TRUE(Filter::Parse("(charging-profile>=5)")->Matches(MakeRecord()));
  EXPECT_TRUE(Filter::Parse("(charging-profile<=5)")->Matches(MakeRecord()));
  EXPECT_FALSE(Filter::Parse("(charging-profile>=6)")->Matches(MakeRecord()));
  EXPECT_FALSE(Filter::Parse("(charging-profile<=4)")->Matches(MakeRecord()));
}

TEST(FilterTest, ParseErrors) {
  EXPECT_FALSE(Filter::Parse("msisdn=+34").ok());     // No parens.
  EXPECT_FALSE(Filter::Parse("(msisdn=+34").ok());    // Unclosed.
  EXPECT_FALSE(Filter::Parse("(&)").ok());            // Empty composite.
  EXPECT_FALSE(Filter::Parse("(=value)").ok());       // Empty attr.
  EXPECT_FALSE(Filter::Parse("(a=b)(c=d)").ok());     // Trailing junk.
}

TEST(FilterTest, ToStringRoundTrip) {
  // Each valid filter survives parse -> ToString -> parse unchanged.
  for (const std::string text :
       {"(&(msisdn=+34600000001)(!(barred=true)))", "(imsi=214010000000001)",
        "(barred=*)", "(charging-profile>=3)", "(charging-profile<=9)",
        "(|(msisdn=+34600000001)(impu=tel:+34600000001))",
        "(&(objectclass=*)(|(a=1)(!(b<=2)))(c>=3))"}) {
    auto f = Filter::Parse(text);
    ASSERT_TRUE(f.ok()) << text;
    EXPECT_EQ(f->ToString(), text);
    auto again = Filter::Parse(f->ToString());
    ASSERT_TRUE(again.ok()) << text;
    EXPECT_EQ(again->ToString(), text);
    EXPECT_EQ(again->Matches(MakeRecord()), f->Matches(MakeRecord())) << text;
  }
}

std::string NotNest(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += "(!";
  text += "(a=b)";
  text.append(static_cast<size_t>(depth), ')');
  return text;
}

TEST(FilterTest, NestingDepthIsCapped) {
  // The leaf item is one level, so kMaxDepth - 1 negations is the deepest
  // accepted filter.
  EXPECT_TRUE(Filter::Parse(NotNest(Filter::kMaxDepth - 1)).ok());
  auto too_deep = Filter::Parse(NotNest(Filter::kMaxDepth));
  EXPECT_TRUE(too_deep.status().IsInvalidArgument());
  // Composites count toward the same bound.
  std::string ands;
  for (int i = 0; i < Filter::kMaxDepth; ++i) ands += "(&";
  ands += "(a=b)" + std::string(Filter::kMaxDepth, ')');
  EXPECT_TRUE(Filter::Parse(ands).status().IsInvalidArgument());
  // A nest far past the cap is refused without exhausting the stack.
  EXPECT_TRUE(Filter::Parse(NotNest(100000)).status().IsInvalidArgument());
}

TEST(FilterTest, LengthIsCapped) {
  const std::string at_cap =
      "(a=" + std::string(Filter::kMaxLength - 4, 'x') + ")";
  ASSERT_EQ(at_cap.size(), Filter::kMaxLength);
  EXPECT_TRUE(Filter::Parse(at_cap).ok());
  EXPECT_TRUE(Filter::Parse(at_cap + " ").status().IsInvalidArgument());
  const std::string mib = "(a=" + std::string(1 << 20, 'x') + ")";
  EXPECT_TRUE(Filter::Parse(mib).status().IsInvalidArgument());
}

TEST(FilterTest, ConvenienceConstructors) {
  EXPECT_TRUE(Filter::Eq("msisdn", "+34600000001").Matches(MakeRecord()));
  EXPECT_TRUE(Filter::Present("barred").Matches(MakeRecord()));
}

// ---------------------------------------------------------------------------
// Seeded generator: well-formed and mutated filters and DNs
// ---------------------------------------------------------------------------
//
// Each parser sees kGeneratedInputs seeded inputs: well-formed filter trees
// and DNs (escaped commas and backslashes, nesting up to the caps), then
// mutations of them (truncation, unbalanced parentheses, stray '\', empty
// RDNs, over-length and over-depth inputs). Nothing may crash (the test runs
// in the ASan/UBSan stage), every rejection is InvalidArgument, and every
// accepted input round-trips: Parse -> ToString -> Parse gives the same tree
// and the same string.

constexpr int kGeneratedInputs = 20000;

enum class Expect { kAccept, kReject, kEither };

const char* const kGenAttrs[] = {"msisdn",      "IMSI",    "serving-vlr",
                                 "objectClass", "a",       "cn;binary",
                                 "2.5.4.3",     "odb-premium-barred"};

std::string GenAttr(Rng& rng) {
  return kGenAttrs[rng.Uniform(sizeof(kGenAttrs) / sizeof(kGenAttrs[0]))];
}

/// Up to `max_len` characters drawn from `alphabet`, trimmed (both parsers
/// trim values, so a generated value carries no edge whitespace).
std::string GenValue(Rng& rng, std::string_view alphabet, size_t max_len) {
  std::string v;
  const size_t n = rng.Uniform(max_len + 1);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(alphabet[rng.Uniform(alphabet.size())]);
  }
  return std::string(Trim(v));
}

/// Optional whitespace, which both parsers skip around names and values.
std::string Pad(Rng& rng) {
  switch (rng.Uniform(6)) {
    case 0:
      return " ";
    case 1:
      return "\t ";
    default:
      return "";
  }
}

/// Applies one random edit: truncate, or delete, insert or replace one
/// character from `specials`, or duplicate a slice.
void Mutate(Rng& rng, std::string_view specials, std::string* text) {
  const size_t n = text->size();
  const size_t at = rng.Uniform(n + 1);
  const char c = specials[rng.Uniform(specials.size())];
  switch (rng.Uniform(5)) {
    case 0:
      text->resize(at);
      break;
    case 1:
      if (at < n) text->erase(at, 1);
      break;
    case 2:
      text->insert(at, 1, c);
      break;
    case 3:
      if (at < n) (*text)[at] = c;
      break;
    default: {
      const std::string slice = text->substr(at, rng.Uniform(n - at + 1));
      text->insert(rng.Uniform(n + 1), slice);
      break;
    }
  }
}

// -- Filters ------------------------------------------------------------------

constexpr std::string_view kFilterValueChars = "abcXYZ0189 +-_:@.*=<>(\\,";
constexpr std::string_view kFilterSpecials = "()&|!=<>*\\ \t,a";

/// A well-formed filter at most `levels` deep (an item is one level) with at
/// most `width` children per composite.
std::string GenFilter(Rng& rng, int levels, int width) {
  if (levels <= 1 || rng.Uniform(3) == 0) {
    const std::string attr = Pad(rng) + GenAttr(rng) + Pad(rng);
    const std::string value =
        Pad(rng) + GenValue(rng, kFilterValueChars, 12) + Pad(rng);
    switch (rng.Uniform(4)) {
      case 0:
        return "(" + attr + "=" + Pad(rng) + "*" + Pad(rng) + ")";
      case 1:
        return "(" + attr + ">=" + value + ")";
      case 2:
        return "(" + attr + "<=" + value + ")";
      default:
        return "(" + attr + "=" + value + ")";
    }
  }
  const uint64_t op = rng.Uniform(3);
  if (op == 0) return "(!" + GenFilter(rng, levels - 1, width) + ")";
  std::string out = op == 1 ? "(&" : "(|";
  const uint64_t children = 1 + rng.Uniform(static_cast<uint64_t>(width));
  for (uint64_t i = 0; i < children; ++i) {
    out += GenFilter(rng, levels - 1, width);
  }
  return out + ")";
}

/// A single-child chain `levels` deep: composites around one item.
std::string FilterChain(Rng& rng, int levels) {
  static constexpr const char* kOps[] = {"(!", "(&", "(|"};
  std::string out;
  for (int i = 1; i < levels; ++i) out += kOps[rng.Uniform(3)];
  out += GenFilter(rng, 1, 1);
  out.append(static_cast<size_t>(levels - 1), ')');
  return out;
}

bool SameFilter(const Filter& a, const Filter& b) {
  if (a.kind() != b.kind() || a.attr() != b.attr() || a.value() != b.value() ||
      a.children().size() != b.children().size()) {
    return false;
  }
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!SameFilter(a.children()[i], b.children()[i])) return false;
  }
  return true;
}

/// Parses `text`: a rejection must be InvalidArgument, an acceptance must
/// round-trip. Returns whether the input was accepted.
bool CheckFilter(const std::string& text, Expect expect) {
  auto f = Filter::Parse(text);
  if (!f.ok()) {
    EXPECT_TRUE(f.status().IsInvalidArgument()) << f.status().ToString();
    EXPECT_NE(expect, Expect::kAccept) << text << ": " << f.status().ToString();
    return false;
  }
  EXPECT_NE(expect, Expect::kReject) << text;
  const std::string printed = f->ToString();
  auto again = Filter::Parse(printed);
  if (!again.ok()) {
    ADD_FAILURE() << text << " printed as " << printed
                  << " which fails: " << again.status().ToString();
    return true;
  }
  EXPECT_TRUE(SameFilter(*f, *again)) << text << " printed as " << printed;
  EXPECT_EQ(again->ToString(), printed) << text;
  return true;
}

TEST(ParserGeneratorTest, FilterParseRejectsCleanlyAndRoundTrips) {
  Rng rng(20261020);
  int accepted_mutants = 0;
  for (int i = 0; i < kGeneratedInputs; ++i) {
    const int levels = 1 + static_cast<int>(rng.Uniform(6));
    std::string text = Pad(rng) + GenFilter(rng, levels, 3) + Pad(rng);
    switch (i % 10) {
      case 0:
      case 1:
      case 2:
        CheckFilter(text, Expect::kAccept);
        break;
      case 7: {
        // Nesting at and just past the cap: kMaxDepth levels parse, one
        // more does not.
        const int depth =
            Filter::kMaxDepth - 2 + static_cast<int>(rng.Uniform(5));
        CheckFilter(FilterChain(rng, depth), depth <= Filter::kMaxDepth
                                                 ? Expect::kAccept
                                                 : Expect::kReject);
        break;
      }
      case 8:
        if (rng.Uniform(4) == 0) {
          // Over-length: one value padded past the byte cap.
          text.insert(text.find('=') + 1,
                      std::string(Filter::kMaxLength, 'x'));
        } else {
          // Over-depth: the whole filter under kMaxDepth negations.
          std::string wrapped;
          for (int d = 0; d < Filter::kMaxDepth; ++d) wrapped += "(!";
          text = wrapped + text + std::string(Filter::kMaxDepth, ')');
        }
        CheckFilter(text, Expect::kReject);
        break;
      default: {
        const uint64_t edits = 1 + rng.Uniform(3);
        for (uint64_t e = 0; e < edits; ++e) {
          Mutate(rng, kFilterSpecials, &text);
        }
        if (rng.Uniform(8) == 0) {
          text += rng.Uniform(2) == 0 ? ")" : "(";  // Unbalanced parentheses.
        }
        if (CheckFilter(text, Expect::kEither)) ++accepted_mutants;
        break;
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  // Mutants land on both sides, so the round trip also saw inputs the
  // well-formed generator never writes.
  EXPECT_GT(accepted_mutants, 100);
}

// -- DNs ----------------------------------------------------------------------

constexpr std::string_view kDnValueChars = "abcXYZ0189 +-_:@.=#,,\\";
constexpr std::string_view kDnSpecials = ",=\\ +\ta";

/// `text` with ',' and '\' escaped, as Dn::ToString writes it.
std::string EscapeDn(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == ',' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// A well-formed DN of `n` RDNs; `rdns` receives what it must parse to.
std::string GenDn(Rng& rng, size_t n, std::vector<Rdn>* rdns) {
  std::string text;
  for (size_t i = 0; i < n; ++i) {
    const std::string attr = GenAttr(rng);
    Rdn rdn{ToLower(attr), GenValue(rng, kDnValueChars, 10)};
    if (rdn.value.empty()) rdn.value = "v";
    if (i != 0) text += ",";
    text += Pad(rng) + attr + Pad(rng) + "=" + Pad(rng) +
            EscapeDn(rdn.value) + Pad(rng);
    rdns->push_back(std::move(rdn));
  }
  return text;
}

/// Parses `text`: a rejection must be InvalidArgument, an acceptance must
/// round-trip. Returns whether the input was accepted.
bool CheckDn(const std::string& text, Expect expect) {
  auto dn = Dn::Parse(text);
  if (!dn.ok()) {
    EXPECT_TRUE(dn.status().IsInvalidArgument()) << dn.status().ToString();
    EXPECT_NE(expect, Expect::kAccept) << text << ": " << dn.status().ToString();
    return false;
  }
  EXPECT_NE(expect, Expect::kReject) << text;
  const std::string printed = dn->ToString();
  auto again = Dn::Parse(printed);
  if (!again.ok()) {
    ADD_FAILURE() << text << " printed as " << printed
                  << " which fails: " << again.status().ToString();
    return true;
  }
  EXPECT_TRUE(*again == *dn) << text << " printed as " << printed;
  EXPECT_EQ(again->ToString(), printed) << text;
  return true;
}

TEST(ParserGeneratorTest, DnParseRejectsCleanlyAndRoundTrips) {
  Rng rng(20261021);
  int accepted_mutants = 0;
  for (int i = 0; i < kGeneratedInputs; ++i) {
    // Mostly short DNs; one in ten sits at or just past the RDN cap.
    const size_t n = i % 10 == 3 ? Dn::kMaxRdns - 1 + rng.Uniform(3)
                                 : 1 + rng.Uniform(6);
    std::vector<Rdn> want;
    std::string text = GenDn(rng, n, &want);
    switch (i % 10) {
      case 0:
      case 1:
      case 2:
      case 3: {
        if (n > Dn::kMaxRdns) {
          CheckDn(text, Expect::kReject);
          break;
        }
        auto dn = Dn::Parse(text);
        ASSERT_TRUE(dn.ok()) << text << ": " << dn.status().ToString();
        EXPECT_TRUE(*dn == Dn(want)) << text << " parsed as " << dn->ToString();
        CheckDn(text, Expect::kAccept);
        break;
      }
      case 4:
        // Empty RDNs: a doubled, leading or trailing separator.
        switch (rng.Uniform(3)) {
          case 0:
            text += "," + Pad(rng) + "," + GenDn(rng, 1, &want);
            break;
          case 1:
            text = "," + text;
            break;
          default:
            text += ",";
            break;
        }
        CheckDn(text, Expect::kReject);
        break;
      case 5:
        // Stray backslashes, inside and at the end.
        text.insert(rng.Uniform(text.size() + 1), "\\");
        CheckDn(text, Expect::kEither);
        CheckDn(text + "\\", Expect::kEither);
        break;
      case 6:
        // Over-length: one value padded past the byte cap.
        text.insert(text.find('=') + 1, std::string(Dn::kMaxLength, 'x'));
        CheckDn(text, Expect::kReject);
        break;
      default: {
        const uint64_t edits = 1 + rng.Uniform(3);
        for (uint64_t e = 0; e < edits; ++e) Mutate(rng, kDnSpecials, &text);
        if (CheckDn(text, Expect::kEither)) ++accepted_mutants;
        break;
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted_mutants, 100);
}

TEST(ParserGeneratorTest, FixedCasesFromTheGenerator) {
  // Filters: an item attribute that began with '&', '|' or '!' after a
  // blank printed as a composite, and one that ended in '>' or '<' printed
  // as a range item. Attribute names are now RFC 4512 descriptions.
  EXPECT_TRUE(Filter::Parse("( !a=b)").status().IsInvalidArgument());
  EXPECT_TRUE(Filter::Parse("(&( &x=*))").status().IsInvalidArgument());
  EXPECT_TRUE(Filter::Parse("(a> =b)").status().IsInvalidArgument());
  EXPECT_TRUE(Filter::Parse("(msisdn< =*)").status().IsInvalidArgument());
  EXPECT_TRUE(CheckFilter("( cn;binary >=a>b)", Expect::kAccept));
  // DNs: "\\" was read as two backslashes, so a value ending in '\' printed
  // as "\," and swallowed the next RDN; an escaped ',' in an attribute
  // printed unescaped. '\' now escapes ',' and itself only, both ways.
  auto dn = Dn::Parse("a=x\\\\,b=c");
  ASSERT_TRUE(dn.ok());
  EXPECT_EQ(dn->depth(), 2u);
  EXPECT_EQ(dn->leaf().value, "x\\");
  EXPECT_TRUE(CheckDn("a=x\\\\,b=c", Expect::kAccept));
  EXPECT_TRUE(CheckDn("a\\,b=c", Expect::kAccept));
  EXPECT_TRUE(Dn::Parse("a=x\\y").status().IsInvalidArgument());
  EXPECT_TRUE(Dn::Parse("a=x\\").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Result codes
// ---------------------------------------------------------------------------

TEST(MessageTest, StatusToLdapCodeMapping) {
  EXPECT_EQ(StatusToLdapCode(Status::Ok()), LdapResultCode::kSuccess);
  EXPECT_EQ(StatusToLdapCode(Status::NotFound()), LdapResultCode::kNoSuchObject);
  EXPECT_EQ(StatusToLdapCode(Status::AlreadyExists()),
            LdapResultCode::kEntryAlreadyExists);
  EXPECT_EQ(StatusToLdapCode(Status::Unavailable()),
            LdapResultCode::kUnavailable);
  EXPECT_EQ(StatusToLdapCode(Status::Aborted()), LdapResultCode::kBusy);
  EXPECT_EQ(StatusToLdapCode(Status::InvalidArgument()),
            LdapResultCode::kProtocolError);
  EXPECT_EQ(StatusToLdapCode(Status::Internal()), LdapResultCode::kOther);
}

TEST(MessageTest, ResultOkSemantics) {
  LdapResult r;
  r.code = LdapResultCode::kCompareTrue;
  EXPECT_TRUE(r.ok());
  r.code = LdapResultCode::kCompareFalse;
  EXPECT_TRUE(r.ok());
  r.code = LdapResultCode::kUnavailable;
  EXPECT_FALSE(r.ok());
}

TEST(MessageTest, Names) {
  EXPECT_STREQ(LdapOpName(LdapOp::kModify), "Modify");
  EXPECT_STREQ(LdapResultCodeName(LdapResultCode::kNoSuchObject),
               "noSuchObject");
}

// ---------------------------------------------------------------------------
// Server + balancer
// ---------------------------------------------------------------------------

TEST(LdapServerTest, AdmitChargesProtocolCost) {
  LdapServerConfig cfg;
  cfg.per_op_cost = Micros(1);
  LdapServer server(cfg);
  EXPECT_EQ(server.Admit(1), Micros(1));
  EXPECT_EQ(server.ops_served(), 1);
  // A multi-op message pays the protocol cost once per op.
  EXPECT_EQ(server.Admit(4), Micros(4));
  EXPECT_EQ(server.ops_served(), 5);
}

TEST(LdapServerTest, CapacityFromPerOpCost) {
  LdapServerConfig cfg;
  cfg.per_op_cost = Micros(1);
  LdapServer server(cfg);
  // 1 µs per op == the paper's 1e6 indexed ops/s per server.
  EXPECT_EQ(server.OpsPerSecondCapacity(), 1'000'000);
}

TEST(BalancerTest, RoundRobinSpreadsLoad) {
  LdapServerConfig cfg;
  L4Balancer balancer(0);
  LdapServer s1(cfg), s2(cfg), s3(cfg);
  balancer.AddServer(&s1);
  balancer.AddServer(&s2);
  balancer.AddServer(&s3);
  for (int i = 0; i < 9; ++i) {
    auto picked = balancer.Pick();
    ASSERT_TRUE(picked.ok());
    (*picked)->Admit(1);
  }
  EXPECT_EQ(s1.ops_served(), 3);
  EXPECT_EQ(s2.ops_served(), 3);
  EXPECT_EQ(s3.ops_served(), 3);
}

TEST(BalancerTest, SkipsUnhealthyServers) {
  LdapServerConfig cfg;
  L4Balancer balancer(0);
  LdapServer s1(cfg), s2(cfg);
  balancer.AddServer(&s1);
  balancer.AddServer(&s2);
  s1.set_healthy(false);
  for (int i = 0; i < 4; ++i) {
    auto picked = balancer.Pick();
    ASSERT_TRUE(picked.ok());
    EXPECT_EQ(*picked, &s2);
    (*picked)->Admit(1);
  }
  EXPECT_EQ(s1.ops_served(), 0);
  EXPECT_EQ(s2.ops_served(), 4);
  EXPECT_EQ(balancer.healthy_count(), 1u);
}

TEST(BalancerTest, UnavailableWhenNoHealthyServer) {
  L4Balancer balancer(0);
  EXPECT_TRUE(balancer.Pick().status().IsUnavailable());
  LdapServerConfig cfg;
  LdapServer s1(cfg);
  balancer.AddServer(&s1);
  s1.set_healthy(false);
  EXPECT_TRUE(balancer.Pick().status().IsUnavailable());
}

TEST(BalancerTest, AggregateCapacityCountsHealthyOnly) {
  LdapServerConfig cfg;
  cfg.per_op_cost = Micros(1);
  L4Balancer balancer(0);
  LdapServer s1(cfg), s2(cfg);
  balancer.AddServer(&s1);
  balancer.AddServer(&s2);
  EXPECT_EQ(balancer.OpsPerSecondCapacity(), 2'000'000);
  s2.set_healthy(false);
  EXPECT_EQ(balancer.OpsPerSecondCapacity(), 1'000'000);
}

}  // namespace
}  // namespace udr::ldap
