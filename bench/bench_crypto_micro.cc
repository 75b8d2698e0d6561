// google-benchmark timings of the crypto substrate: SHA-256 throughput,
// HMAC signing/verification, Merkle roots, full transaction hashing and a
// block's data-hash check — the operations whose real-world (ECDSA-era)
// costs the simulation's CostModel `sign`/`verify`/`hash_per_kb` knobs
// represent.

#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/hmac.h"
#include "crypto/identity.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "proto/block.h"
#include "proto/transaction.h"
#include "workload/micro_sequences.h"

namespace fabricpp::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 600 B is about one encoded Smallbank transaction with two endorsements.
BENCHMARK(BM_Sha256)->Arg(64)->Arg(600)->Arg(1024)->Arg(65536);

void BM_HmacSign(benchmark::State& state) {
  const Identity identity(42, "A1");
  const std::string payload(static_cast<size_t>(state.range(0)), 'p');
  for (auto _ : state) {
    benchmark::DoNotOptimize(identity.Sign(payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmacSign)->Arg(256)->Arg(4096);

void BM_HmacVerify(benchmark::State& state) {
  const Identity identity(42, "A1");
  const std::string payload(512, 'p');
  const Signature signature = identity.Sign(payload);
  const Bytes message(payload.begin(), payload.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(identity.Verify(message, signature));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmacVerify);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<Digest> leaves;
  for (int i = 0; i < state.range(0); ++i) {
    leaves.push_back(Sha256::Hash("tx" + std::to_string(i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleRoot(leaves));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleRoot)->Arg(64)->Arg(1024);

void BM_TransactionHash(benchmark::State& state) {
  proto::Transaction tx;
  tx.client = "client_c0_0";
  tx.channel = "ch0";
  tx.chaincode = "smallbank";
  tx.policy_id = "AND(all-orgs)";
  for (int i = 0; i < 8; ++i) {
    tx.rwset.reads.push_back(
        {"acc_" + std::to_string(i), proto::Version{3, 1}});
    tx.rwset.writes.push_back(
        {"acc_" + std::to_string(i), "123456", false});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.ContentDigest());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransactionHash);

void BM_BlockDataHash(benchmark::State& state) {
  // The check every peer runs on each block it admits and commits: 256
  // uniform Smallbank transactions (100k users), each endorsed by A1 and B1.
  const std::vector<proto::ReadWriteSet> rwsets =
      workload::MakeSmallbankBatch(256, 100000, 0.0, /*seed=*/11);
  const Identity endorsers[] = {Identity(42, "A1"), Identity(42, "B1")};
  proto::Block block;
  block.header.number = 1;
  for (size_t i = 0; i < rwsets.size(); ++i) {
    proto::Transaction tx;
    tx.proposal_id = i;
    tx.client = "client_c0_0";
    tx.channel = "ch0";
    tx.chaincode = "smallbank";
    tx.policy_id = "AND(all-orgs)";
    tx.rwset = rwsets[i];
    const Bytes payload = tx.SignedPayload();
    for (const Identity& endorser : endorsers) {
      tx.endorsements.push_back(
          {endorser.name(), endorser.name().substr(0, 1),
           endorser.Sign(payload)});
    }
    proto::Proposal proposal;
    proposal.proposal_id = i;
    proposal.client = tx.client;
    proposal.channel = tx.channel;
    proposal.chaincode = tx.chaincode;
    proposal.nonce = i * 7919 + 1;
    tx.ComputeTxId(proposal);
    block.transactions.push_back(std::move(tx));
  }
  block.SealDataHash();
  if (!block.VerifyDataHash()) state.SkipWithError("data hash mismatch");
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.VerifyDataHash());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(block.transactions.size()));
}
BENCHMARK(BM_BlockDataHash)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace fabricpp::crypto

BENCHMARK_MAIN();
