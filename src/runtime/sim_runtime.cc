#include "runtime/sim_runtime.h"

namespace fabricpp::runtime {

SimRuntime::SimRuntime(const Options& options)
    : env_(),
      injector_(&env_, options.seed),
      net_(&env_, options.network),
      clock_(&env_),
      transport_(&net_) {
  // Every message flows through the injector; with no fault plan configured
  // it is pass-through and draws no randomness, so fault-free runs stay
  // bit-identical to a network without it.
  net_.set_fault_injector(&injector_);
}

Endpoint& SimRuntime::AddEndpoint(const std::string& name) {
  const NodeId id = net_.AddNode(name);
  endpoints_.push_back(std::make_unique<SimEndpoint>(id, name, &clock_));
  return *endpoints_.back();
}

Executor& SimRuntime::AddExecutor(Endpoint& owner, const std::string& name,
                                  uint32_t num_servers) {
  (void)owner;  // Execution context is the shared event loop either way.
  executors_.push_back(
      std::make_unique<SimExecutor>(&env_, name, num_servers));
  return *executors_.back();
}

ThreadPool* SimRuntime::RequestPool(uint32_t workers) {
  if (workers <= 1) return nullptr;
  // The requesting thread participates in ParallelFor, so a pool with
  // `workers`-way parallelism owns workers - 1 extra threads.
  if (validator_pool_ == nullptr) {
    validator_pool_ = std::make_unique<ThreadPool>(workers - 1);
  }
  return validator_pool_.get();
}

}  // namespace fabricpp::runtime
