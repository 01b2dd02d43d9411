#include "telecom/front_end.h"

#include "common/strings.h"
#include "ldap/dn.h"
#include "telecom/subscriber.h"

namespace udr::telecom {

namespace {

const char* DnAttrFor(location::IdentityType type) {
  switch (type) {
    case location::IdentityType::kImsi:
      return "imsi";
    case location::IdentityType::kMsisdn:
      return "msisdn";
    case location::IdentityType::kImpu:
      return "impu";
    case location::IdentityType::kImpi:
      return "impi";
  }
  return "imsi";
}

ldap::Dn DnFor(const location::Identity& id) {
  return ldap::SubscriberDn(DnAttrFor(id.type), id.value);
}

}  // namespace

ldap::LdapRequest FrontEnd::MakeRead(
    const location::Identity& id, const std::vector<std::string>& attrs) const {
  ldap::LdapRequest req;
  req.op = ldap::LdapOp::kSearch;
  req.dn = DnFor(id);
  req.scope = ldap::SearchScope::kBaseObject;
  req.filter = "(objectclass=*)";
  req.requested_attrs = attrs;
  return req;
}

ldap::LdapRequest FrontEnd::MakeWrite(const location::Identity& id,
                                      const std::string& attr,
                                      storage::Value value) const {
  ldap::LdapRequest req;
  req.op = ldap::LdapOp::kModify;
  req.dn = DnFor(id);
  req.mods.push_back(
      ldap::Modification{ldap::ModType::kReplace, attr, std::move(value)});
  return req;
}

void FrontEnd::Fold(const ldap::LdapResult& r, ProcedureResult* out) {
  ++out->ldap_ops;
  out->latency += r.latency;
  out->any_stale = out->any_stale || r.stale;
  if (!r.ok()) {
    ++out->failed_ops;
    if (out->status.ok()) {
      out->status = Status(r.code == ldap::LdapResultCode::kUnavailable
                               ? StatusCode::kUnavailable
                               : StatusCode::kInternal,
                           std::string(LdapResultCodeName(r.code)) +
                               (r.diagnostic.empty() ? "" : ": " + r.diagnostic));
    }
  }
}

void FrontEnd::FoldBatch(const ldap::LdapBatchResult& batch,
                         ProcedureResult* out) {
  for (const ldap::LdapResult& r : batch.results) Fold(r, out);
  // The batch latency is not a per-op sum: it replaces what Fold summed.
  out->latency = batch.latency;
  out->queue_delay = batch.queue_delay;
}

std::optional<ProcedureResult> FrontEnd::TakeDeferred(uint64_t handle) {
  std::optional<ldap::LdapBatchResult> batch = udr_->TakeEvent(handle);
  if (!batch.has_value()) return std::nullopt;
  ProcedureResult out;
  FoldBatch(*batch, &out);
  Count(out);
  return out;
}

ProcedureResult FrontEnd::RunOps(
    const std::vector<ldap::LdapRequest>& requests) {
  ProcedureResult out;
  if (deferred_) {
    // The whole op list parks in the PoA's cross-event dispatch window; the
    // procedure completes when the window flushes (TakeDeferred). Counting
    // happens at collection, so in-flight procedures are not yet scored.
    auto handle = udr_->SubmitEvent(requests, site_);
    if (handle.ok()) {
      out.pending = *handle;
      return out;
    }
    out.status = handle.status();
    out.failed_ops = static_cast<int>(requests.size());
    Count(out);
    return out;
  }
  if (batched_) {
    FoldBatch(udr_->SubmitBatch(requests, site_), &out);
  } else {
    for (const ldap::LdapRequest& req : requests) {
      Fold(udr_->Submit(req, site_), &out);
      if (!out.ok()) break;  // Sequential procedures abort on first failure.
    }
  }
  Count(out);
  return out;
}

// ---------------------------------------------------------------------------
// HLR-FE
// ---------------------------------------------------------------------------

ProcedureResult HlrFe::Authenticate(const location::Identity& id) {
  return RunOps({MakeRead(id, {attr::kAuthKey, attr::kSqn})});
}

ProcedureResult HlrFe::UpdateLocation(const location::Identity& id,
                                      const std::string& vlr_address,
                                      int64_t location_area) {
  // Read the profile (roaming permission, category), then register the new
  // serving VLR / location area.
  ldap::LdapRequest update;
  update.op = ldap::LdapOp::kModify;
  update.dn = ldap::SubscriberDn(DnAttrFor(id.type), id.value);
  update.mods.push_back(ldap::Modification{ldap::ModType::kReplace,
                                           attr::kServingVlr, vlr_address});
  update.mods.push_back(ldap::Modification{ldap::ModType::kReplace,
                                           attr::kLocationArea, location_area});
  return RunOps(
      {MakeRead(id, {attr::kRoamingAllowed, attr::kCategory}), update});
}

ProcedureResult HlrFe::SendRoutingInfo(const location::Identity& id) {
  return RunOps({MakeRead(id, {attr::kServingVlr, attr::kLocationArea}),
                 MakeRead(id, {attr::kOdbPremium, attr::kCallForwardingUncond})});
}

ProcedureResult HlrFe::SmsRouting(const location::Identity& id) {
  return RunOps({MakeRead(id, {attr::kServingVlr, attr::kTeleservices})});
}

ProcedureResult HlrFe::InterrogateSs(const location::Identity& id) {
  return RunOps({MakeRead(id, {attr::kCallForwardingUncond})});
}

// ---------------------------------------------------------------------------
// HSS-FE
// ---------------------------------------------------------------------------

ProcedureResult HssFe::ImsRegister(const location::Identity& impu,
                                   const std::string& scscf_name) {
  // Cx UAR (authorization) + MAR (auth vectors) + SAR (S-CSCF assignment,
  // registration state) + service profile + charging info: the paper's
  // "somewhat heavier" 5-6 op IMS procedure as one op list.
  return RunOps({
      MakeRead(impu, {attr::kImpi, attr::kRegistrationState}),
      MakeRead(impu, {attr::kAuthKey, attr::kSqn}),
      MakeWrite(impu, attr::kServingCscf, scscf_name),
      MakeWrite(impu, attr::kRegistrationState, std::string("registered")),
      MakeRead(impu, {attr::kTeleservices, attr::kOdbPremium}),
      MakeRead(impu, {attr::kChargingProfile}),
  });
}

ProcedureResult HssFe::ImsLocate(const location::Identity& impu) {
  return RunOps({MakeRead(impu, {attr::kServingCscf}),
                 MakeRead(impu, {attr::kRegistrationState})});
}

ProcedureResult HssFe::ImsDeregister(const location::Identity& impu) {
  return RunOps({MakeRead(impu, {attr::kRegistrationState}),
                 MakeWrite(impu, attr::kRegistrationState,
                           std::string("deregistered"))});
}

}  // namespace udr::telecom
