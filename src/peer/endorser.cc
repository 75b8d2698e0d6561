#include "peer/endorser.h"

namespace fabricpp::peer {

Bytes EndorsementPayload(const std::string& channel,
                         const std::string& chaincode,
                         const std::string& policy_id,
                         const proto::ReadWriteSet& rwset) {
  return proto::Transaction::SignedPayload(channel, chaincode, policy_id,
                                          rwset);
}

Endorser::Endorser(std::string peer_name, std::string org,
                   uint64_t network_seed,
                   const chaincode::ChaincodeRegistry* registry)
    : peer_name_(std::move(peer_name)),
      org_(std::move(org)),
      identity_(network_seed, peer_name_),
      registry_(registry) {}

Result<EndorsementResponse> Endorser::Endorse(const proto::Proposal& proposal,
                                              const std::string& policy_id,
                                              const statedb::StateDb& db,
                                              bool stale_check_enabled) const {
  FABRICPP_ASSIGN_OR_RETURN(const chaincode::Chaincode* contract,
                            registry_->Get(proposal.chaincode));

  chaincode::TxContext ctx(&db, db.last_committed_block(),
                           stale_check_enabled);
  FABRICPP_RETURN_IF_ERROR(contract->Invoke(ctx, proposal.args));

  EndorsementResponse response;
  response.rwset = ctx.TakeRwSet();
  response.endorsement.peer = peer_name_;
  response.endorsement.org = org_;
  response.endorsement.signature = identity_.Sign(EndorsementPayload(
      proposal.channel, proposal.chaincode, policy_id, response.rwset));
  return response;
}

}  // namespace fabricpp::peer
