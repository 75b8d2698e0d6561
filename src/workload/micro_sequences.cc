#include "workload/micro_sequences.h"

#include <cassert>

#include "chaincode/builtin_chaincodes.h"
#include "chaincode/tx_context.h"
#include "common/rng.h"
#include "common/strings.h"
#include "workload/smallbank.h"

namespace fabricpp::workload {

namespace {

std::string Key(uint32_t i) {
  return StrFormat("k%u", i);
}

proto::ReadItem Read(uint32_t key) {
  return proto::ReadItem{Key(key), proto::kNilVersion};
}

proto::WriteItem Write(uint32_t key) {
  return proto::WriteItem{Key(key), "v", false};
}

}  // namespace

std::vector<proto::ReadWriteSet> MakeShiftedReadWriteSequence(uint32_t n,
                                                              uint32_t shift) {
  assert(n % 2 == 0);
  assert(shift <= n);
  const uint32_t half = n / 2;
  std::vector<proto::ReadWriteSet> base(n);
  for (uint32_t i = 0; i < half; ++i) {
    base[i].writes.push_back(Write(i));          // T[w(k_i)]
    base[half + i].reads.push_back(Read(i));     // T[r(k_i)]
  }
  // Rotate right by `shift`: the last `shift` transactions move in front.
  std::vector<proto::ReadWriteSet> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    out.push_back(base[(n - shift + i) % n]);
  }
  return out;
}

std::vector<proto::ReadWriteSet> MakeCycleSequence(uint32_t n,
                                                   uint32_t cycle_len) {
  assert(cycle_len >= 2);
  assert(cycle_len <= n);
  std::vector<proto::ReadWriteSet> out;
  out.reserve(n);
  const uint32_t num_cycles = n / cycle_len;
  uint32_t emitted = 0;
  for (uint32_t c = 0; c < num_cycles; ++c) {
    // Keys are namespaced per cycle so cycles are independent.
    const uint32_t base_key = c * cycle_len;
    // T[r(k0), w(k0)]
    proto::ReadWriteSet first;
    first.reads.push_back(Read(base_key));
    first.writes.push_back(Write(base_key));
    out.push_back(std::move(first));
    ++emitted;
    // T[r(k_{i-1}), w(k_i)] for i = 1..t-2, then T[r(k_{t-2}), w(k0)].
    for (uint32_t i = 1; i < cycle_len; ++i) {
      proto::ReadWriteSet set;
      set.reads.push_back(Read(base_key + i - 1));
      set.writes.push_back(
          Write(i + 1 == cycle_len ? base_key : base_key + i));
      out.push_back(std::move(set));
      ++emitted;
    }
  }
  // Pad with independent no-conflict transactions so |out| == n.
  uint32_t pad_key = num_cycles * cycle_len;
  while (emitted < n) {
    proto::ReadWriteSet set;
    set.reads.push_back(Read(pad_key));
    ++pad_key;
    out.push_back(std::move(set));
    ++emitted;
  }
  return out;
}

std::vector<const proto::ReadWriteSet*> AsPointers(
    const std::vector<proto::ReadWriteSet>& sets) {
  std::vector<const proto::ReadWriteSet*> out;
  out.reserve(sets.size());
  for (const proto::ReadWriteSet& s : sets) out.push_back(&s);
  return out;
}

std::vector<proto::ReadWriteSet> MakeSmallbankBatch(uint32_t n,
                                                    uint64_t num_users,
                                                    double zipf_s,
                                                    uint64_t seed) {
  SmallbankConfig config;
  config.num_users = num_users;
  config.zipf_s = zipf_s;
  const SmallbankWorkload workload(config);
  statedb::StateDb db;
  workload.SeedState(&db);
  const chaincode::SmallbankChaincode smallbank;
  Rng rng(seed);
  std::vector<proto::ReadWriteSet> sets;
  sets.reserve(n);
  while (sets.size() < n) {
    chaincode::TxContext ctx(&db, /*snapshot_block=*/0,
                             /*stale_check_enabled=*/false);
    if (smallbank.Invoke(ctx, workload.NextArgs(rng)).ok()) {
      sets.push_back(ctx.TakeRwSet());
    }
  }
  return sets;
}

std::vector<proto::ReadWriteSet> PaperTable3Transactions() {
  std::vector<proto::ReadWriteSet> txs(6);
  // Reads (paper Table 3, top half).
  txs[0].reads = {Read(0), Read(1)};
  txs[1].reads = {Read(3), Read(4), Read(5)};
  txs[2].reads = {Read(6), Read(7)};
  txs[3].reads = {Read(2), Read(8)};
  txs[4].reads = {Read(9)};
  // T5 reads nothing.
  // Writes (bottom half).
  txs[0].writes = {Write(2)};
  txs[1].writes = {Write(0)};
  txs[2].writes = {Write(3), Write(9)};
  txs[3].writes = {Write(1), Write(4)};
  txs[4].writes = {Write(5), Write(6), Write(8)};
  txs[5].writes = {Write(7)};
  return txs;
}

std::vector<proto::ReadWriteSet> PaperTable1Transactions() {
  std::vector<proto::ReadWriteSet> txs(4);
  // T1 (index 0): writes k1.
  txs[0].writes = {Write(1)};
  // T2 (index 1): reads k1, k2; writes k2.
  txs[1].reads = {Read(1), Read(2)};
  txs[1].writes = {Write(2)};
  // T3 (index 2): reads k1, k3; writes k3.
  txs[2].reads = {Read(1), Read(3)};
  txs[2].writes = {Write(3)};
  // T4 (index 3): reads k1, k3; writes k4.
  txs[3].reads = {Read(1), Read(3)};
  txs[3].writes = {Write(4)};
  return txs;
}

}  // namespace fabricpp::workload
