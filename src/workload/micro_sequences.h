#ifndef FABRICPP_WORKLOAD_MICRO_SEQUENCES_H_
#define FABRICPP_WORKLOAD_MICRO_SEQUENCES_H_

#include <cstdint>
#include <vector>

#include "proto/rwset.h"

namespace fabricpp::workload {

/// Appendix B.1 input: n transactions (n even) — n/2 single-write
/// transactions T[w(k_i)] followed by n/2 single-read transactions
/// T[r(k_i)], then rotated right by `shift` positions (the paper builds
/// S_{i} by moving the last transaction of S_{i-1} to the front). `shift`
/// therefore equals the number of read-transactions moved before the
/// writers, the x-axis of Figure 15.
std::vector<proto::ReadWriteSet> MakeShiftedReadWriteSequence(uint32_t n,
                                                              uint32_t shift);

/// Appendix B.2 input: n transactions forming n / cycle_len conflict cycles
/// of length cycle_len. Each cycle c over keys k_{c,0}..k_{c,t-2} is
///   T[r(k0), w(k0)], T[r(k0), w(k1)], T[r(k1), w(k2)], ...,
///   T[r(k_{t-2}), w(k0)]
/// exactly as printed in the paper. Requires cycle_len >= 2 and
/// cycle_len <= n.
std::vector<proto::ReadWriteSet> MakeCycleSequence(uint32_t n,
                                                   uint32_t cycle_len);

/// n Smallbank transactions (SmallbankConfig defaults apart from the user
/// count and skew) simulated against the genesis state: the read/write sets
/// a Smallbank orderer batches. At 10k users and Zipf 1.0 this is the
/// hot-key regime where the reorderer's cycle budget trips.
std::vector<proto::ReadWriteSet> MakeSmallbankBatch(uint32_t n,
                                                    uint64_t num_users,
                                                    double zipf_s,
                                                    uint64_t seed);

/// Borrow helper: pointer view over a sequence (what the reorderer takes).
std::vector<const proto::ReadWriteSet*> AsPointers(
    const std::vector<proto::ReadWriteSet>& sets);

/// The six transactions of the paper's Table 3 (the worked reordering
/// example, keys K0..K9) — used by tests and the walkthrough example.
std::vector<proto::ReadWriteSet> PaperTable3Transactions();

/// The four transactions of the paper's Tables 1-2 (T1 writes k1; T2..T4
/// read k1 and write k2..k4 respectively).
std::vector<proto::ReadWriteSet> PaperTable1Transactions();

}  // namespace fabricpp::workload

#endif  // FABRICPP_WORKLOAD_MICRO_SEQUENCES_H_
