#ifndef FABRICPP_FABRIC_CONFIG_H_
#define FABRICPP_FABRIC_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "ordering/batch_cutter.h"
#include "ordering/reorderer.h"
#include "raft/messages.h"
#include "runtime/runtime.h"
#include "sim/network.h"
#include "sim/time.h"

namespace fabricpp::fabric {

/// How a peer coordinates the simulation and validation phases on its
/// current state (paper §5.2.1).
enum class ConcurrencyMode {
  /// Vanilla Fabric: simulations share a read lock on the entire state;
  /// block validation takes an exclusive write lock. Simulations never see
  /// mid-flight commits, but validation stalls behind running simulations
  /// (and vice versa).
  kCoarseLock,
  /// Fabric++: lock-free. Commits apply while simulations run; every read
  /// carries a version, and a simulation whose reads are overtaken by a
  /// commit is detected via the version check.
  kFineGrained,
};

/// How the ordering service reaches consensus on the block sequence.
enum class OrderingBackend {
  /// A single trusted orderer process (Fabric's "solo" profile — what the
  /// paper's cluster ran).
  kSolo,
  /// A crash-fault-tolerant Raft cluster (Fabric >= 1.4's etcdraft
  /// profile): blocks are dispatched only after the consensus log commits
  /// them, adding replication latency.
  kRaft,
};

/// Virtual-time costs of the pipeline's operations, in microseconds.
///
/// These model the paper's testbed (2x quad-core Xeon E5-2407 @ 2.2 GHz,
/// gigabit rack-local Ethernet, Fabric 1.2's Go crypto): ECDSA-P256
/// verification on that hardware/stack is on the order of 1.5-2 ms, signing
/// about half that, and per-block costs include consensus bookkeeping and
/// the ledger's fsync'd block append. Absolute throughput therefore lands in
/// the paper's few-hundred-to-thousand tps regime; the *relative* behaviour
/// of vanilla vs Fabric++ comes from the pipeline logic, not these knobs.
struct CostModel {
  // --- Crypto ---
  sim::SimTime sign = 1600;    ///< ECDSA sign (endorser, client, orderer).
  sim::SimTime verify = 3600;  ///< ECDSA verify.

  // --- Simulation phase (per endorsement, on a peer core) ---
  sim::SimTime chaincode_base = 250;  ///< Invocation overhead.
  sim::SimTime per_read = 2;          ///< State read + version lookup.
  sim::SimTime per_write = 2;         ///< Write-set append.

  // --- Client ---
  sim::SimTime client_assemble = 100;  ///< Rwset compare + tx assembly.

  // --- Ordering phase ---
  sim::SimTime order_per_tx = 30;        ///< Enqueue + batch bookkeeping.
  sim::SimTime block_fixed_order = 15000; ///< Consensus + block formation.
  sim::SimTime hash_per_kb = 25;         ///< Hashing block contents.
  /// Virtual cost charged for the Fabric++ reordering pass, derived from
  /// the reorderer's work counters (transactions and enumerated cycles;
  /// per-edge work is folded into the per-transaction constant). Keeps the
  /// simulation deterministic — host-measured time is never used. The
  /// constants are calibrated against the paper's Appendix B timings
  /// (~1-2 ms per 1024-transaction block, up to hundreds of ms for
  /// cycle-heavy pathological batches).
  sim::SimTime reorder_per_tx = 5;
  sim::SimTime reorder_per_cycle = 5;

  // --- Validation + commit phase (per peer) ---
  sim::SimTime validate_per_tx = 60;      ///< Policy plumbing + mvcc check.
  sim::SimTime block_fixed_commit = 25000; ///< Ledger append + fsync.
  sim::SimTime commit_per_write = 3;      ///< State-db write.
  sim::SimTime ledger_append_per_kb = 12;
};

/// Full system + experiment configuration. The defaults reproduce the
/// paper's Table 5 setup: 4 peers in 2 orgs, one ordering service, one
/// client machine firing 512 proposals/s per client with 4 clients on one
/// channel, blocks of up to 1024 transactions / 2 MB / 1 s / 16384 keys.
struct FabricConfig {
  // --- Topology (paper §6.1) ---
  uint32_t num_orgs = 2;
  uint32_t peers_per_org = 2;
  uint32_t num_channels = 1;
  uint32_t clients_per_channel = 4;
  double client_fire_rate_tps = 512.0;
  /// Whether clients resubmit aborted or timed-out proposals at all (paper
  /// §4.1: "the corresponding transaction proposals must be resubmitted by
  /// the client"). Measurement setups that want exactly one attempt per
  /// proposal turn this off.
  bool client_resubmit = true;
  /// Resubmission budget per proposal when client_resubmit is on. Must be
  /// in [1, 64] (above 64 the backoff shift would overflow); use
  /// client_resubmit=false to disable retries entirely.
  uint32_t client_max_retries = 3;
  /// Exponential backoff before a resubmission: attempt k waits
  /// base * 2^k, capped at client_retry_backoff_max, then scaled by a
  /// uniform jitter factor in [1 - jitter, 1 + jitter]. Backoff prevents
  /// retry storms when aborts come from faults rather than contention.
  /// Checked even with client_resubmit off, because BUSY retries use it
  /// too: base and max must be > 0 and max >= base, or backoff degenerates
  /// into constant instant retry.
  sim::SimTime client_retry_backoff_base = 5 * sim::kMillisecond;
  sim::SimTime client_retry_backoff_max = 500 * sim::kMillisecond;
  double client_retry_jitter = 0.2;
  /// A proposal whose endorsements have not all arrived after this long is
  /// aborted (kAbortEndorsementTimeout) and resubmitted per the backoff
  /// policy. Covers lost proposals and lost endorsement replies. This and
  /// client_commit_timeout must be > 0: a zero timeout aborts every proposal
  /// at once.
  sim::SimTime client_endorsement_timeout = 10 * sim::kSecond;
  /// An assembled transaction not resolved (committed or aborted) this long
  /// after submission to ordering is abandoned (kAbortCommitTimeout) and
  /// resubmitted. Covers lost submissions and lost commit events.
  sim::SimTime client_commit_timeout = 30 * sim::kSecond;
  /// Maximum proposals a client keeps in flight; firing ticks are skipped
  /// while the window is full. Models the bounded concurrency of real
  /// drivers (Caliper/gRPC) and keeps saturation stable instead of growing
  /// queues without bound. 0 = unbounded.
  uint32_t client_max_inflight = 512;

  // --- Overload survival: admission control + fair scheduling ---
  /// Bounded admission at the servers. 0 = off (legacy unbounded queues).
  /// At an endorsing peer it bounds the simulations concurrently admitted
  /// per channel; at the orderer it bounds the transactions one client may
  /// have queued ahead of the batch cutter per channel. A proposal or
  /// transaction arriving over the bound is answered with an explicit BUSY
  /// (retry-after) wire response instead of queueing without bound or being
  /// dropped silently. Must be in [0, 1048576].
  uint32_t admission_queue_depth = 0;
  /// Server-suggested minimum delay carried in BUSY responses. The client
  /// waits at least this long (its own exponential backoff still applies on
  /// top) before resubmitting, so load sheds back to the edge. Must be > 0
  /// whenever admission_queue_depth > 0 (a zero hint makes every BUSY an
  /// instant retry).
  sim::SimTime busy_retry_hint = 20 * sim::kMillisecond;
  /// Deficit-round-robin quantum (in transaction cost units) of the fair
  /// scheduler in front of the orderer's batch cutter. 0 = FIFO admission
  /// (arrival order, still bounded per client); > 0 = each client queue
  /// earns `quantum` units per scheduler round, so a hot client's backlog
  /// cannot starve the others. Must be in [0, 4096], and > 0 only with
  /// admission_queue_depth > 0: the scheduler drains the orderer's bounded
  /// admission queues.
  uint32_t fair_sched_quantum = 0;
  /// Conflict-aware surcharge (arXiv 2407.19732): extra deficit units a
  /// transaction pays per currently-hot key it touches, making hot-key
  /// spammers consume their fair share faster. 0 = off. Requires
  /// fair_sched_quantum > 0, whose deficit units it is paid in. Must be in
  /// [0, 1024].
  uint32_t fair_conflict_penalty = 0;

  // --- Hardware model ---
  uint32_t peer_cores = 8;  ///< 2x quad-core per server.
  uint32_t orderer_cores = 8;
  uint32_t client_machine_cores = 8;  ///< All clients share one machine.
  sim::NetworkParams network;
  /// Host threads running the validators' *real* signature-verification
  /// work (Fabric 1.2's validator workers), counting the committing thread:
  /// 1 = fully serial, N = the verify stage fans out N-wide on a shared
  /// ThreadPool. This only accelerates wall-clock crypto execution — the
  /// virtual-clock simulation stays single-threaded and every simulation
  /// output (validation codes, metrics, chain hashes) is byte-identical for
  /// any value. Must be in [1, 256].
  uint32_t validator_workers = 1;
  /// Bound on orderer batches simultaneously inside the reorder stage per
  /// channel (the single-producer pipeline between block cutting and
  /// consensus submission). 1 reproduces the strictly serial seed behavior:
  /// batch N+1 waits until block N's ordering cost has been paid. Higher
  /// depths let the reorder of block N overlap the batching/reordering of
  /// block N+1 on the orderer's cores — blocks still enter consensus in
  /// chain order via an in-order drain. Must be in [1, 64].
  uint32_t ordering_pipeline_depth = 1;

  // --- Block formation (paper Table 5) ---
  ordering::BatchCutConfig block;
  ordering::ReorderConfig reorder;
  /// kRaft runs under the sim and thread runtimes only: Raft RPCs do not
  /// ride the wire protocol.
  OrderingBackend ordering_backend = OrderingBackend::kSolo;
  /// Must be odd and at most 63 under kRaft: an even cluster tolerates no
  /// more failures than the next-smaller odd one but needs a larger quorum
  /// (size/2 + 1) to commit.
  uint32_t raft_cluster_size = 3;
  /// Under kRaft, 0 < heartbeat_interval < election_timeout_min <=
  /// election_timeout_max: a heartbeat period at or above the election
  /// floor makes followers time out and depose a healthy leader.
  raft::Params raft_params;
  /// How long a peer that has detected a gap in its block stream waits for
  /// the orderer's re-delivery before asking again. Must be > 0.
  sim::SimTime peer_fetch_retry_interval = 500 * sim::kMillisecond;

  // --- Fabric++ feature flags (Figure 10's ablation switches these) ---
  bool enable_reordering = false;
  bool enable_early_abort_sim = false;
  bool enable_early_abort_ordering = false;
  ConcurrencyMode concurrency = ConcurrencyMode::kCoarseLock;

  // --- Execution runtime ---
  /// Which runtime::Runtime executes the node state machines: "sim" (the
  /// default — single-threaded discrete-event simulation on a virtual
  /// clock, byte-identical replay) or "thread" (every node on its own OS
  /// thread with bounded mailboxes and a steady_clock-based clock; real
  /// concurrency, nondeterministic timings). Parsed by
  /// runtime::ParseRuntimeMode; Validate() rejects anything else.
  std::string runtime_mode = "sim";
  /// Bounded capacity of each node's mailbox under the thread runtime (a
  /// producer that finds the mailbox full blocks briefly, then the task is
  /// force-enqueued with a warning). Ignored under "sim". Must be in
  /// [16, 1048576].
  uint32_t mailbox_capacity = 8192;
  /// Number of endpoint threads the client machine's population is sharded
  /// across under the thread runtime (clients keep sharing one executor,
  /// mirroring the single client machine). Ignored under "sim". Must be in
  /// [1, 256].
  uint32_t thread_client_shards = 1;

  // --- Socket deployment (runtime_mode = "socket") ---
  /// TCP address ("host:port") peer i is reachable at. Under socket mode
  /// there must be exactly num_orgs * peers_per_org entries; every process
  /// in the cluster runs from the same list so dialing and listening agree,
  /// and no entry may be empty.
  /// Port 0 is allowed only for in-process test clusters that rewire
  /// addresses after binding.
  std::vector<std::string> peer_addresses;
  /// TCP address ("host:port") the ordering service is reachable at.
  /// Required under socket mode.
  std::string orderer_address;
  /// Override of the local bind address for this process (e.g. to listen
  /// on 0.0.0.0 while peers dial a public name). Empty = bind the address
  /// the cluster list assigns this role.
  std::string listen_address;
  /// How long a dial may sit unconnected before it is torn down and retried
  /// with backoff. Must be in [1, 600000].
  uint32_t socket_connect_timeout_ms = 5000;
  /// Upper bound a receiver accepts for one wire frame (header + payload +
  /// CRC). Frames announcing more are a stream error and drop the
  /// connection. Must be in [4096, 1 GiB], and under socket mode at least
  /// 2 * block.max_bytes + 64 KiB: the batch cutter cuts *after* the
  /// transaction that crosses max_bytes, so a block can overshoot the bound
  /// by one transaction (itself up to ~max_bytes), and the block message
  /// adds header, metadata and framing. A block frame over the receiver's
  /// bound would be shed at the sender, and the peer would stall for it.
  uint64_t socket_max_frame_bytes = 64ull << 20;

  /// runtime_mode resolved to the enum. Call Validate() first; an
  /// unparseable mode falls back to kSim here.
  runtime::RuntimeMode RuntimeModeOrDefault() const;

  CostModel cost;
  uint64_t seed = 42;

  /// Vanilla Fabric 1.2: arrival order, late abort, coarse lock, no
  /// unique-keys cut condition.
  static FabricConfig Vanilla();

  /// Fabric++: reordering + early abort in simulation and ordering, with
  /// the fine-grained concurrency control that enables the former.
  static FabricConfig FabricPlusPlus();

  /// Sanity-checks the configuration: each row of ConfigFields()
  /// (config_fields.h) against its range, then the rules that relate
  /// fields. FabricNetwork refuses to build from an invalid one. Returns the
  /// first problem found.
  Status Validate() const;
};

}  // namespace fabricpp::fabric

#endif  // FABRICPP_FABRIC_CONFIG_H_
