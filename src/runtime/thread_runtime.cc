#include "runtime/thread_runtime.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace fabricpp::runtime {

namespace {
/// How long a non-sheddable producer blocks at a full box before force-
/// enqueueing (deadlock freedom beats strict boundedness for local work).
constexpr auto kPushGracePeriod = std::chrono::milliseconds(100);
/// How long a transport delivery blocks before being shed. Short: a
/// saturated receiver should shed load quickly, not stall every sender.
constexpr auto kShedGracePeriod = std::chrono::milliseconds(5);
constexpr auto kQuiescePollInterval = std::chrono::microseconds(200);
}  // namespace

// --- Mailbox ---

ThreadRuntime::PushOutcome ThreadRuntime::Mailbox::Push(Task fn,
                                                        bool may_shed) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return PushOutcome::kShedClosed;
  bool forced = false;
  if (queue_.size() >= capacity_ &&
      std::this_thread::get_id() != consumer_) {
    // Backpressure: block briefly for a slot. The consumer never waits on
    // its own box (self-deadlock). Past the grace period, a sheddable task
    // (transport delivery) is dropped and reported — the box stays
    // bounded; a non-sheddable one (local post, timer, executor
    // completion) is force-enqueued rather than risk a producer cycle
    // deadlocking (A full waiting on B full waiting on A).
    const auto grace = may_shed ? kShedGracePeriod : kPushGracePeriod;
    if (!not_full_.wait_for(lock, grace, [this] {
          return queue_.size() < capacity_ || closed_;
        })) {
      if (may_shed) {
        runtime_->mailbox_shed_total_.fetch_add(1,
                                                std::memory_order_relaxed);
        runtime_->LogOverflow("shedding delivery", capacity_);
        return PushOutcome::kShedFull;
      }
      forced = true;
      runtime_->mailbox_forced_total_.fetch_add(1,
                                                std::memory_order_relaxed);
      runtime_->LogOverflow("forcing enqueue to avoid deadlock", capacity_);
    }
    if (closed_) return PushOutcome::kShedClosed;
  }
  runtime_->inflight_.fetch_add(1, std::memory_order_relaxed);
  queue_.push_back(std::move(fn));
  not_empty_.notify_one();
  return forced ? PushOutcome::kForced : PushOutcome::kOk;
}

bool ThreadRuntime::Mailbox::Pop(Task* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  not_full_.notify_one();
  return true;
}

void ThreadRuntime::Mailbox::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

// --- ThreadClock ---

TimeMicros ThreadRuntime::ThreadClock::Now() const { return runtime_->Now(); }

void ThreadRuntime::ThreadClock::Schedule(TimeMicros delay, Task fn) {
  runtime_->ScheduleTimer(owner_, runtime_->Now() + delay, std::move(fn));
}

void ThreadRuntime::ThreadClock::ScheduleAt(TimeMicros when, Task fn) {
  runtime_->ScheduleTimer(owner_, std::max(when, runtime_->Now()),
                          std::move(fn));
}

// --- ThreadEndpoint ---

ThreadRuntime::ThreadEndpoint::ThreadEndpoint(ThreadRuntime* runtime,
                                              NodeId id, std::string name)
    : runtime_(runtime),
      id_(id),
      name_(std::move(name)),
      clock_(runtime, this),
      mailbox_(runtime->options_.mailbox_capacity, runtime) {}

void ThreadRuntime::ThreadEndpoint::Post(Task fn) {
  mailbox_.Push(std::move(fn), /*may_shed=*/false);
}

ThreadRuntime::PushOutcome ThreadRuntime::ThreadEndpoint::PostDelivery(
    Task fn) {
  return mailbox_.Push(std::move(fn), /*may_shed=*/true);
}

void ThreadRuntime::ThreadEndpoint::StartThread() {
  thread_ = std::thread([this] { RunLoop(); });
}

void ThreadRuntime::ThreadEndpoint::CloseAndJoin() {
  mailbox_.Close();
  if (thread_.joinable()) thread_.join();
}

void ThreadRuntime::ThreadEndpoint::RunLoop() {
  mailbox_.BindConsumer();
  Task task;
  while (mailbox_.Pop(&task)) {
    task();
    // Destroy captured state before dropping the inflight count, so
    // Quiesce() returning implies all task captures are released too.
    task = nullptr;
    runtime_->inflight_.fetch_sub(1, std::memory_order_release);
  }
}

// --- ThreadTransport ---

void ThreadRuntime::ThreadTransport::Send(Endpoint& from, Endpoint& to,
                                          uint64_t size_bytes,
                                          Task on_deliver) {
  (void)from;
  runtime_->messages_sent_.fetch_add(1, std::memory_order_relaxed);
  runtime_->bytes_sent_.fetch_add(size_bytes, std::memory_order_relaxed);
  // Deliveries are sheddable: a saturated receiver drops the message (the
  // shed is counted, never silent) and node-level timeouts / catch-up
  // fetches recover — the same contract as the simulation's lossy network.
  static_cast<ThreadEndpoint&>(to).PostDelivery(std::move(on_deliver));
}

// --- ThreadRuntime ---

ThreadRuntime::ThreadRuntime(const Options& options)
    : options_(options), transport_(this) {
  epoch_ns_.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

ThreadRuntime::~ThreadRuntime() { Shutdown(); }

Endpoint& ThreadRuntime::AddEndpoint(const std::string& name) {
  const NodeId id = static_cast<NodeId>(endpoints_.size());
  endpoints_.push_back(std::make_unique<ThreadEndpoint>(this, id, name));
  endpoints_.back()->StartThread();
  return *endpoints_.back();
}

Executor& ThreadRuntime::AddExecutor(Endpoint& owner, const std::string& name,
                                     uint32_t num_servers) {
  (void)name;
  executors_.push_back(std::make_unique<ThreadExecutor>(
      static_cast<ThreadEndpoint*>(&owner), num_servers));
  return *executors_.back();
}

Transport& ThreadRuntime::transport() { return transport_; }

TimeMicros ThreadRuntime::Now() const {
  const int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  const int64_t rel = now_ns - epoch_ns_.load(std::memory_order_relaxed);
  return rel <= 0 ? 0 : static_cast<TimeMicros>(rel / 1000);
}

ThreadPool* ThreadRuntime::RequestPool(uint32_t workers) {
  if (workers <= 1) return nullptr;
  // Peer validators run concurrently here, and ThreadPool::ParallelFor is
  // single-user — every requester gets its own pool, unlike the simulation
  // runtime's shared one.
  pools_.push_back(std::make_unique<ThreadPool>(workers - 1));
  return pools_.back().get();
}

void ThreadRuntime::ResetEpoch() {
  epoch_ns_.store(
      std::chrono::steady_clock::now().time_since_epoch().count(),
      std::memory_order_relaxed);
  timer_cv_.notify_all();
}

std::chrono::steady_clock::time_point ThreadRuntime::TimePointFor(
    TimeMicros t) const {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
      epoch_ns_.load(std::memory_order_relaxed) +
      static_cast<int64_t>(t) * 1000));
}

void ThreadRuntime::SleepUntil(TimeMicros until) {
  std::this_thread::sleep_until(TimePointFor(until));
}

void ThreadRuntime::LogOverflow(const char* what, size_t capacity) {
  const int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  int64_t last = last_overflow_log_ns_.load(std::memory_order_relaxed);
  constexpr int64_t kLogIntervalNs = 1'000'000'000;
  if (now_ns - last < kLogIntervalNs) return;
  if (!last_overflow_log_ns_.compare_exchange_strong(
          last, now_ns, std::memory_order_relaxed)) {
    return;  // Another thread just logged.
  }
  std::fprintf(stderr, "[thread_runtime] mailbox overflow (capacity %zu): %s\n",
               capacity, what);
}

void ThreadRuntime::ScheduleTimer(ThreadEndpoint* target, TimeMicros when,
                                  Task fn) {
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    if (timer_stop_) return;
    timers_.push(TimerEntry{when, timer_seq_++, target, std::move(fn)});
  }
  timer_cv_.notify_all();
}

void ThreadRuntime::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!timer_stop_) {
    if (timers_.empty()) {
      timer_cv_.wait(lock);
      continue;
    }
    const TimeMicros due = timers_.top().when;
    if (Now() < due) {
      // Woken early by a new (possibly earlier) timer, ResetEpoch or stop;
      // re-evaluate the heap top either way.
      timer_cv_.wait_until(lock, TimePointFor(due));
      continue;
    }
    // Move the due entry out of the heap; `timer_posting_` keeps Quiesce
    // from declaring idle while the task is in flight to its mailbox.
    TimerEntry entry = std::move(const_cast<TimerEntry&>(timers_.top()));
    timers_.pop();
    ++timer_posting_;
    lock.unlock();
    entry.target->Post(std::move(entry.fn));
    lock.lock();
    --timer_posting_;
  }
}

bool ThreadRuntime::TimerBusyWithin(TimeMicros horizon) {
  std::lock_guard<std::mutex> lock(timer_mu_);
  if (timer_posting_ > 0) return true;
  return !timers_.empty() && timers_.top().when <= Now() + horizon;
}

void ThreadRuntime::Quiesce(TimeMicros timer_horizon) {
  for (;;) {
    if (inflight_.load(std::memory_order_acquire) != 0 ||
        TimerBusyWithin(timer_horizon)) {
      std::this_thread::sleep_for(kQuiescePollInterval);
      continue;
    }
    // Idle right now — but a timer just past the poll may still fire work.
    // Require the idle state to hold across one more interval.
    std::this_thread::sleep_for(kQuiescePollInterval);
    if (inflight_.load(std::memory_order_acquire) == 0 &&
        !TimerBusyWithin(timer_horizon)) {
      return;
    }
  }
}

void ThreadRuntime::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = true;
    while (!timers_.empty()) timers_.pop();
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Closing lets each consumer drain what is queued, then exit; tasks that
  // post to an already-closed mailbox during the drain are dropped.
  for (auto& ep : endpoints_) ep->CloseAndJoin();
}

}  // namespace fabricpp::runtime
