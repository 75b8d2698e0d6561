#ifndef FABRICPP_STATEDB_STATE_DB_H_
#define FABRICPP_STATEDB_STATE_DB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "proto/rwset.h"
#include "proto/version.h"
#include "statedb/seed_table.h"

namespace fabricpp::statedb {

/// A value together with its MVCC version.
struct VersionedValue {
  std::string value;
  proto::Version version;
};

/// One write paired with the MVCC version it commits at — the unit of the
/// block-level atomic commit path (StateDb::ApplyBlock).
struct VersionedWrite {
  proto::WriteItem write;
  proto::Version version;
};

/// The peer's current-state database: key -> (value, version).
///
/// Mirrors Fabric's LevelDB-backed state store (paper §2.1) in memory: the
/// state is the result of applying all *valid* transactions in ledger
/// order, and every value carries the (block, tx) version of the
/// transaction that last wrote it. The validator's MVCC serializability
/// check and the Fabric++ fine-grained stale-read detection both compare
/// against these versions. A restarted peer rebuilds it by fetching the
/// chain again (DESIGN.md §14).
///
/// Seeded state (SeedInitialState) lives in a compact SeedTable, every
/// entry at kNilVersion; every other write lives in the local layer, a hash
/// map of the keys written since, plus tombstones for deleted seeded keys.
/// An in-process peer shares one immutable *genesis* table (DESIGN.md §17):
/// the workload's initial state, seeded once per process and read by every
/// (peer, channel). NumKeys, ForEach and Fingerprint see the merged view, so
/// a database layered over a genesis is indistinguishable from a flat one
/// holding the same entries.
///
/// Thread-safety: const methods may run concurrently; a mutation needs
/// exclusive access (each channel's state lives on one lane, DESIGN.md
/// §16). A shared seed table is only ever read. Concurrency *semantics*
/// (vanilla's coarse simulation/validation lock vs Fabric++'s lock-free
/// version checks) are modeled in virtual time by node::PeerNode.
class StateDb {
 public:
  StateDb() = default;

  /// A database holding `genesis`'s entries at height 0. It shares
  /// genesis's seed table, which neither instance appends to again, and
  /// copies its local layer (empty for a database that was only seeded).
  explicit StateDb(std::shared_ptr<const StateDb> genesis);

  /// Reads a key. NotFound if the key was never written (reads of missing
  /// keys are recorded with kNilVersion by the TxContext, matching Fabric).
  Result<VersionedValue> Get(const std::string& key) const;

  /// Returns the version of `key`, or kNilVersion if absent. Reads only the
  /// local layer: a key outside it is seeded, tombstoned or never written,
  /// and all three are at kNilVersion.
  proto::Version GetVersion(const std::string& key) const;

  /// Direct write used for genesis/bootstrap state (version = kNilVersion's
  /// block, i.e. block 0). Workloads use this to install initial balances.
  /// Appends to this database's own seed table while no other instance
  /// shares it and no local entry or tombstone holds `key`; otherwise the
  /// entry goes to the local layer, at kNilVersion all the same.
  void SeedInitialState(const std::string& key, std::string value);

  /// Sizes this database's seed table for `entries` seeded entries taking
  /// `arena_bytes` bytes of keys and values in all (SeedTable::Reserve), so
  /// seeding allocates once. Only while no other instance shares the table:
  /// on a shared one it does nothing, since seeds then go to the local
  /// layer. A workload calls it at the top of its SeedState.
  void ReserveSeeds(size_t entries, size_t arena_bytes);

  /// Applies the write set of one committed transaction with version
  /// {block_num, tx_num}. Called by the committer for each *valid*
  /// transaction, in block order.
  void ApplyWrites(const std::vector<proto::WriteItem>& writes,
                   proto::Version version);

  /// Applies all `writes` of one block (in order — a later write to the
  /// same key wins) and advances last_committed_block to `height`, as one
  /// unit. This is the *only* mutation on the commit path, so no observer
  /// sees state writes at a stale height — the invariant the Fabric++
  /// fine-grained early abort (paper §5.2.1) compares read versions
  /// against.
  void ApplyBlock(const std::vector<VersionedWrite>& writes,
                  uint64_t height);

  /// Height bookkeeping: the id of the last block whose writes have been
  /// fully applied. Fabric++'s simulation-phase early abort compares read
  /// versions against the value this had when the simulation started
  /// ("last-block-ID", paper Figure 6).
  uint64_t last_committed_block() const {
    return last_committed_block_;
  }
  void set_last_committed_block(uint64_t b) { last_committed_block_ = b; }

  size_t NumKeys() const { return num_keys_; }

  /// The seeded entries, or null before the first seed (inspection helper).
  const SeedTable* seed_table() const { return seed_.get(); }

  /// Canonical digest of the full state: every (key, value, version) entry
  /// hashed in sorted key order, returned as a SHA-256 hex string. Two
  /// replicas converged on the same state produce the same fingerprint —
  /// the cross-process equality check the socket deployment's load driver
  /// asserts after a run.
  std::string Fingerprint() const;

  /// Iterates all entries (test/inspection helper; unspecified order).
  void ForEach(const std::function<void(const std::string&,
                                        const VersionedValue&)>& fn) const;

 private:
  bool Seeded(const std::string& key) const {
    return seed_ != nullptr && seed_->Contains(key);
  }
  /// Per seed entry, whether a local entry or a tombstone hides it.
  std::vector<bool> ShadowedSeedEntries() const;
  void Put(const std::string& key, VersionedValue vv);
  void Erase(const std::string& key);

  std::unordered_map<std::string, VersionedValue> map_;
  /// The seeded entries, shared by every database layered over the same
  /// genesis. Appended to only while this instance is its sole owner, so a
  /// shared table is never written.
  std::shared_ptr<SeedTable> seed_;
  /// Seeded keys this instance deleted; disjoint from map_'s keys.
  std::unordered_set<std::string> tombstones_;
  size_t num_keys_ = 0;  ///< Size of the merged view.
  uint64_t last_committed_block_ = 0;
};

}  // namespace fabricpp::statedb

#endif  // FABRICPP_STATEDB_STATE_DB_H_
