#ifndef FABRICPP_RUNTIME_RUNTIME_H_
#define FABRICPP_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/result.h"
#include "runtime/time.h"

namespace fabricpp {
class ThreadPool;
}

namespace fabricpp::runtime {

/// A unit of deferred work. Tasks are one-shot and run exactly once on the
/// execution context they were scheduled for (the simulation's event loop,
/// or one node's mailbox thread).
using Task = std::function<void()>;

/// Identifies a node endpoint within a runtime. Ids are dense, assigned in
/// AddEndpoint order, and shared with the simulator's fault-injection layer
/// (sim::NodeId) so a fault plan written against endpoint ids applies
/// unchanged.
using NodeId = uint32_t;

/// A clock plus one-shot timers.
///
/// Timers obtained through an Endpoint's clock() fire *on that endpoint's
/// execution context*: the single event-loop thread under the simulation
/// runtime, the endpoint's mailbox thread under the thread runtime. Node
/// code may therefore touch its own state from a timer callback without
/// any locking — the same single-writer discipline either way.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time (virtual or real, depending on the runtime).
  virtual TimeMicros Now() const = 0;

  /// Runs `fn` `delay` microseconds from now.
  virtual void Schedule(TimeMicros delay, Task fn) = 0;

  /// Runs `fn` at absolute time `when` (clamped to Now() if in the past —
  /// timers can never rewind the clock).
  virtual void ScheduleAt(TimeMicros when, Task fn) = 0;
};

/// One node's attachment point to a runtime: an identity, a clock whose
/// timers fire on this node's execution context, and a way to post work
/// onto that context directly.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual NodeId id() const = 0;
  virtual const std::string& name() const = 0;

  /// Timers created through this clock run on this endpoint's context.
  virtual Clock& clock() = 0;

  /// Runs `fn` on this endpoint's execution context as soon as possible
  /// (equivalent to a zero-delay timer).
  virtual void Post(Task fn) = 0;
};

/// One node's CPU: jobs carry a modeled cost in virtual microseconds and a
/// completion callback that runs on the owning endpoint's execution context.
///
/// The simulation runtime charges the cost against a queueing model of
/// `num_servers` cores (sim::Resource) and advances virtual time; the thread
/// runtime executes for real — the cost is the *model's* time, already paid
/// by the actual work the node did before submitting, so completion is
/// scheduled immediately and wall-clock speed is whatever the hardware
/// delivers.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Submits a job of `cost` virtual microseconds; `done` fires on the
  /// owning endpoint's context when the job completes.
  virtual void Submit(TimeMicros cost, Task done) = 0;

  virtual uint32_t num_servers() const = 0;
};

/// Typed async message passing between endpoints.
///
/// `on_deliver` runs on the *receiving* endpoint's execution context when
/// the message arrives; a delivery may be dropped, duplicated or delayed by
/// the simulation runtime's fault injector, which is exactly how real
/// message loss presents to the receiver. The thread runtime's in-process
/// transport is lossless and FIFO per (sender, receiver) pair.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual void Send(Endpoint& from, Endpoint& to, uint64_t size_bytes,
                    Task on_deliver) = 0;
};

/// Which substrate executes the node state machines.
enum class RuntimeMode {
  /// Deterministic single-threaded discrete-event simulation: virtual time,
  /// modeled network and CPUs, byte-identical replay from a seed.
  kSim,
  /// Real OS threads: one mailbox thread per endpoint, steady_clock time,
  /// lossless in-process transport. Not deterministic.
  kThread,
  /// Multi-process deployment: each process runs a ThreadRuntime for its
  /// local nodes and a SocketTransport (TCP, length-framed CRC'd wire
  /// format — DESIGN.md §15) toward every remote node. Not deterministic.
  kSocket,
};

/// Parses "sim" / "thread" / "socket" (the FabricConfig::runtime_mode
/// values).
Result<RuntimeMode> ParseRuntimeMode(const std::string& mode);
std::string_view RuntimeModeToString(RuntimeMode mode);

/// The execution substrate a node network runs on. Owns every endpoint,
/// executor and worker pool it hands out; all of them stay valid for the
/// runtime's lifetime.
///
/// Contract shared by all implementations:
///  - AddEndpoint ids are dense and assigned in call order (the composition
///    root registers endpoints in a fixed order, so ids — and with them the
///    fault-injection plans keyed on ids — are stable across runtimes).
///  - Everything a node does happens on its own endpoint's context: message
///    deliveries, timer callbacks and executor completions all funnel into
///    that one logical thread, so node state needs no locks.
///  - Cross-node interaction goes through Transport (or a pointer call made
///    *inside* a delivered task, which already runs on the target's
///    context).
class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual RuntimeMode mode() const = 0;

  /// Registers a node endpoint. The returned reference is owned by the
  /// runtime and valid for its lifetime.
  virtual Endpoint& AddEndpoint(const std::string& name) = 0;

  /// Creates the CPU executor of `owner` (`name` is for stats only).
  virtual Executor& AddExecutor(Endpoint& owner, const std::string& name,
                                uint32_t num_servers) = 0;

  virtual Transport& transport() = 0;

  virtual TimeMicros Now() const = 0;

  /// Returns a fork-join pool for the validator's signature checks with
  /// `workers`-way parallelism (counting the caller), or nullptr when
  /// workers <= 1 (serial). The single-threaded simulation runtime shares
  /// one pool across all requesters — only one fan-out can be live at a
  /// time there; the thread runtime returns a distinct pool per request,
  /// since requesters run concurrently and ParallelFor is single-user.
  virtual ThreadPool* RequestPool(uint32_t workers) = 0;
};

}  // namespace fabricpp::runtime

#endif  // FABRICPP_RUNTIME_RUNTIME_H_
