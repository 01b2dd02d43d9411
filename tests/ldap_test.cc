// Unit tests for src/ldap: DN parsing, filters, result-code mapping, the
// stateless server farm and the L4 balancer.

#include <gtest/gtest.h>

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
