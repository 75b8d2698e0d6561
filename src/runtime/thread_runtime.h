#ifndef FABRICPP_RUNTIME_THREAD_RUNTIME_H_
#define FABRICPP_RUNTIME_THREAD_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "runtime/runtime.h"

namespace fabricpp::runtime {

/// The concurrent runtime: every endpoint is an actor with a bounded MPSC
/// mailbox drained by its own OS thread, time is std::chrono::steady_clock
/// microseconds since the runtime's epoch, and the transport delivers
/// messages by enqueueing the delivery task into the receiver's mailbox
/// (lossless, FIFO per sender/receiver pair).
///
/// This preserves the simulation's single-writer discipline — all of a
/// node's message deliveries, timer callbacks and executor completions run
/// on its one mailbox thread — while letting distinct nodes execute in
/// parallel for real. Executor costs (the simulator's virtual service
/// times) are not charged: real work takes real time, so the pipeline runs
/// as fast as the hardware allows.
///
/// Not deterministic: cross-node interleavings depend on the scheduler.
/// Fault injection, virtual-time experiments and the Raft backend remain
/// simulation-only.
class ThreadRuntime final : public Runtime {
 public:
  struct Options {
    /// Mailbox slots per endpoint. A producer that finds the box full
    /// blocks briefly for backpressure; see Mailbox::Push for the
    /// deadlock-avoidance overflow rule.
    uint32_t mailbox_capacity = 8192;
  };

  /// What happened to a pushed task — reported to the caller instead of
  /// being swallowed (satellite fix for the former silent overflow).
  enum class PushOutcome {
    kOk,          ///< Enqueued within capacity.
    kForced,      ///< Box full past the grace period; enqueued anyway
                  ///< (non-sheddable tasks only — deadlock freedom).
    kShedFull,    ///< Box full past the grace period; task dropped.
    kShedClosed,  ///< Mailbox closed (shutdown); task dropped.
  };

  explicit ThreadRuntime(const Options& options);
  ~ThreadRuntime() override;

  // --- Runtime interface ---
  RuntimeMode mode() const override { return RuntimeMode::kThread; }
  Endpoint& AddEndpoint(const std::string& name) override;
  Executor& AddExecutor(Endpoint& owner, const std::string& name,
                        uint32_t num_servers) override;
  Transport& transport() override;
  TimeMicros Now() const override;
  ThreadPool* RequestPool(uint32_t workers) override;

  // --- Run control (driven by the composition root) ---

  /// Rebases Now() to 0. Call while the runtime is idle (no queued tasks),
  /// immediately before starting a run, so node code that schedules from
  /// absolute time 0 (e.g. staggered client firing) behaves as in the
  /// simulation.
  void ResetEpoch();

  /// Sleeps until runtime time `until` (wall clock), while node threads
  /// keep working.
  void SleepUntil(TimeMicros until);

  /// Blocks until the system is quiescent: no queued or running mailbox
  /// tasks, and no pending timer due within `timer_horizon` of now. Timers
  /// beyond the horizon (e.g. long client timeouts armed during the run)
  /// are left pending; their callbacks are defensive no-ops by then.
  void Quiesce(TimeMicros timer_horizon);

  /// Stops the timer thread (dropping pending timers), closes every
  /// mailbox, drains and joins all threads. Idempotent; called by the
  /// destructor. After shutdown, posts and timers are silently dropped.
  void Shutdown();

  uint64_t messages_sent() const { return messages_sent_.load(); }
  uint64_t bytes_sent() const { return bytes_sent_.load(); }
  /// Transport deliveries dropped at a full mailbox after the shed grace
  /// period. The composition root folds this into Metrics after a run —
  /// nonzero means receivers were saturated and the lossless-transport
  /// assumption did not hold (client timeouts / catch-up fetches recover).
  uint64_t mailbox_shed_total() const { return mailbox_shed_total_.load(); }
  /// Non-sheddable tasks (local posts, timers, executor completions)
  /// force-enqueued past capacity to preserve deadlock freedom.
  uint64_t mailbox_forced_total() const {
    return mailbox_forced_total_.load();
  }

 private:
  class ThreadEndpoint;

  /// Bounded multi-producer single-consumer task queue.
  class Mailbox {
   public:
    Mailbox(size_t capacity, ThreadRuntime* runtime)
        : capacity_(capacity), runtime_(runtime) {}

    /// Enqueues `fn` and reports what happened. A producer that finds the
    /// box full waits briefly for room — except the consumer thread
    /// itself, which always overflows: blocking it on its own full box
    /// would deadlock. Past the grace period the outcome splits on
    /// `may_shed`: transport deliveries (may_shed) are *dropped* and
    /// counted (kShedFull) — the box stays bounded and the loss is
    /// reported, never silent; local posts, timers and executor
    /// completions (!may_shed) are force-enqueued (kForced), trading
    /// strict boundedness for deadlock freedom on producer cycles —
    /// shedding those would wedge a node's own pipeline.
    PushOutcome Push(Task fn, bool may_shed);

    /// Blocks for the next task; returns false when closed and drained.
    bool Pop(Task* out);

    void BindConsumer() { consumer_ = std::this_thread::get_id(); }
    void Close();

   private:
    std::mutex mu_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<Task> queue_;
    size_t capacity_;
    ThreadRuntime* runtime_;
    std::thread::id consumer_{};
    bool closed_ = false;
  };

  class ThreadClock final : public Clock {
   public:
    ThreadClock(ThreadRuntime* runtime, ThreadEndpoint* owner)
        : runtime_(runtime), owner_(owner) {}
    TimeMicros Now() const override;
    void Schedule(TimeMicros delay, Task fn) override;
    void ScheduleAt(TimeMicros when, Task fn) override;

   private:
    ThreadRuntime* runtime_;
    ThreadEndpoint* owner_;
  };

  class ThreadEndpoint final : public Endpoint {
   public:
    ThreadEndpoint(ThreadRuntime* runtime, NodeId id, std::string name);
    ~ThreadEndpoint() override = default;
    NodeId id() const override { return id_; }
    const std::string& name() const override { return name_; }
    Clock& clock() override { return clock_; }
    void Post(Task fn) override;

    /// Transport-delivery entry: unlike Post, the task may be shed at a
    /// full box (the network is allowed to lose a message; a node's own
    /// pipeline is not).
    PushOutcome PostDelivery(Task fn);

    void StartThread();
    void CloseAndJoin();

   private:
    void RunLoop();

    ThreadRuntime* runtime_;
    NodeId id_;
    std::string name_;
    ThreadClock clock_;
    Mailbox mailbox_;
    std::thread thread_;
  };

  /// Completion runs on the owning endpoint's mailbox thread; the modeled
  /// cost is ignored (real work already took real time).
  class ThreadExecutor final : public Executor {
   public:
    ThreadExecutor(ThreadEndpoint* owner, uint32_t num_servers)
        : owner_(owner), num_servers_(num_servers) {}
    void Submit(TimeMicros cost, Task done) override {
      (void)cost;
      owner_->Post(std::move(done));
    }
    uint32_t num_servers() const override { return num_servers_; }

   private:
    ThreadEndpoint* owner_;
    uint32_t num_servers_;
  };

  class ThreadTransport final : public Transport {
   public:
    explicit ThreadTransport(ThreadRuntime* runtime) : runtime_(runtime) {}
    void Send(Endpoint& from, Endpoint& to, uint64_t size_bytes,
              Task on_deliver) override;

   private:
    ThreadRuntime* runtime_;
  };

  struct TimerEntry {
    TimeMicros when;
    uint64_t seq;  ///< FIFO tie-break for equal deadlines.
    ThreadEndpoint* target;
    Task fn;
  };
  struct TimerCompare {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void ScheduleTimer(ThreadEndpoint* target, TimeMicros when, Task fn);
  /// Rate-limited (1/s) stderr note about mailbox overflow events.
  void LogOverflow(const char* what, size_t capacity);
  void TimerLoop();
  std::chrono::steady_clock::time_point TimePointFor(TimeMicros t) const;
  bool TimerBusyWithin(TimeMicros horizon);

  Options options_;
  /// steady_clock nanoseconds-since-clock-epoch of runtime time 0.
  std::atomic<int64_t> epoch_ns_;
  /// Queued + currently-executing mailbox tasks, across all endpoints.
  std::atomic<int64_t> inflight_{0};
  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> mailbox_shed_total_{0};
  std::atomic<uint64_t> mailbox_forced_total_{0};
  /// steady_clock ns of the last overflow log line (rate limiting).
  std::atomic<int64_t> last_overflow_log_ns_{0};

  ThreadTransport transport_;
  std::vector<std::unique_ptr<ThreadEndpoint>> endpoints_;
  std::vector<std::unique_ptr<ThreadExecutor>> executors_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;

  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerCompare>
      timers_;
  uint64_t timer_seq_ = 0;
  /// Timers popped from the heap but not yet enqueued at their target.
  int64_t timer_posting_ = 0;
  bool timer_stop_ = false;
  std::thread timer_thread_;
  bool shutdown_ = false;
};

}  // namespace fabricpp::runtime

#endif  // FABRICPP_RUNTIME_THREAD_RUNTIME_H_
