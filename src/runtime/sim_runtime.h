#ifndef FABRICPP_RUNTIME_SIM_RUNTIME_H_
#define FABRICPP_RUNTIME_SIM_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "runtime/runtime.h"
#include "sim/environment.h"
#include "sim/fault_injector.h"
#include "sim/network.h"
#include "sim/resource.h"

namespace fabricpp::runtime {

/// The deterministic runtime: a thin adapter over the discrete-event
/// simulator. Every interface call forwards 1:1 onto the underlying
/// sim::Environment / sim::Network / sim::Resource call the pre-runtime
/// code made directly, so a node network driven through this adapter issues
/// the *identical* event sequence — runs are byte-for-byte reproducible
/// against the monolithic implementation and across refactors (the chaos
/// replay fingerprints are the regression gate).
class SimRuntime final : public Runtime {
 public:
  struct Options {
    uint64_t seed = 42;                ///< Fault-injector dice.
    sim::NetworkParams network;        ///< Latency/bandwidth model.
  };

  explicit SimRuntime(const Options& options);

  // --- Simulation-only facilities (fault plans, event-loop driving) ---
  sim::Environment& env() { return env_; }
  sim::FaultInjector& injector() { return injector_; }

  // --- Runtime interface ---
  RuntimeMode mode() const override { return RuntimeMode::kSim; }
  Endpoint& AddEndpoint(const std::string& name) override;
  Executor& AddExecutor(Endpoint& owner, const std::string& name,
                        uint32_t num_servers) override;
  Transport& transport() override { return transport_; }
  TimeMicros Now() const override { return env_.Now(); }
  ThreadPool* RequestPool(uint32_t workers) override;

 private:
  /// All endpoints share the event loop, hence one clock serves them all.
  class SimClock final : public Clock {
   public:
    explicit SimClock(sim::Environment* env) : env_(env) {}
    TimeMicros Now() const override { return env_->Now(); }
    void Schedule(TimeMicros delay, Task fn) override {
      env_->Schedule(delay, std::move(fn));
    }
    void ScheduleAt(TimeMicros when, Task fn) override {
      env_->ScheduleAt(when, std::move(fn));
    }

   private:
    sim::Environment* env_;
  };

  class SimEndpoint final : public Endpoint {
   public:
    SimEndpoint(NodeId id, std::string name, SimClock* clock)
        : id_(id), name_(std::move(name)), clock_(clock) {}
    NodeId id() const override { return id_; }
    const std::string& name() const override { return name_; }
    Clock& clock() override { return *clock_; }
    void Post(Task fn) override { clock_->Schedule(0, std::move(fn)); }

   private:
    NodeId id_;
    std::string name_;
    SimClock* clock_;
  };

  class SimTransport final : public Transport {
   public:
    explicit SimTransport(sim::Network* net) : net_(net) {}
    void Send(Endpoint& from, Endpoint& to, uint64_t size_bytes,
              Task on_deliver) override {
      net_->Send(from.id(), to.id(), size_bytes, std::move(on_deliver));
    }

   private:
    sim::Network* net_;
  };

  /// The queueing model of one node's CPU.
  class SimExecutor final : public Executor {
   public:
    SimExecutor(sim::Environment* env, const std::string& name,
                uint32_t num_servers)
        : resource_(env, name, num_servers) {}
    void Submit(TimeMicros cost, Task done) override {
      resource_.Submit(cost, std::move(done));
    }
    uint32_t num_servers() const override { return resource_.num_servers(); }

   private:
    sim::Resource resource_;
  };

  sim::Environment env_;
  sim::FaultInjector injector_;
  sim::Network net_;
  SimClock clock_;
  SimTransport transport_;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints_;
  std::vector<std::unique_ptr<SimExecutor>> executors_;
  /// One shared pool — the event loop is single-threaded, so at most one
  /// fan-out is ever live (see Runtime::RequestPool).
  std::unique_ptr<ThreadPool> validator_pool_;
};

}  // namespace fabricpp::runtime

#endif  // FABRICPP_RUNTIME_SIM_RUNTIME_H_
