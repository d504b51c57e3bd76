#ifndef DAYBENCH_LAYERS_H_
#define DAYBENCH_LAYERS_H_

// Observers the traced run wires around the program's public seams: a
// MemoryBroker decorator and a ParallelForFn wrapper. Both forward every
// call unchanged, so the simulated outputs stay those of an unwired run.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "exp/thread_pool.h"
#include "sim/memory_broker.h"
#include "sim/multi_disk.h"

namespace daybench {

/// Host seconds on the monotonic clock.
double NowSeconds();
/// CPU seconds of the whole process (every thread).
double ProcessCpuSeconds();

/// Counts and times the calls a simulator makes to its broker.
struct BrokerCounters {
  std::int64_t can_admit_calls = 0;
  std::int64_t on_state_calls = 0;
  std::int64_t reserved_calls = 0;
  double can_admit_s = 0;
  double on_state_s = 0;
  double reserved_s = 0;

  void Add(const BrokerCounters& o);
};

/// MemoryBroker decorator: forwards to `inner`, counting and timing the
/// three pricing calls into `counters`. One decorator per disk keeps the
/// counters single-writer on the sharded path.
class CountingBroker final : public vod::sim::MemoryBroker {
 public:
  CountingBroker(vod::sim::MemoryBroker* inner, BrokerCounters* counters)
      : inner_(inner), counters_(counters) {}

  [[nodiscard]] bool CanAdmit(int disk, int new_n, int k) const override;
  void OnState(int disk, int n, int k) override;
  [[nodiscard]] vod::Bits ReservedMemory() const override;
  [[nodiscard]] vod::Bits Capacity() const override {
    return inner_->Capacity();
  }
  void AdvanceTo(vod::Seconds now) override { inner_->AdvanceTo(now); }

 private:
  vod::sim::MemoryBroker* inner_;
  BrokerCounters* counters_;
};

/// What the wrapping ParallelForFn saw.
struct PoolCounters {
  std::int64_t epochs = 0;      ///< parallel_for calls (one per epoch).
  double parallel_s = 0;        ///< Wall time inside parallel_for.
  double shard_busy_s = 0;      ///< Sum of every fn(i) call's wall time.
  double slowest_shard_s = 0;   ///< Sum over epochs of the slowest fn(i).
  double mean_shard_s = 0;      ///< Sum over epochs of the mean fn(i).
};

/// A ParallelForFn that forwards to `pool` and records, per call, its wall
/// time and each task's busy time.
vod::sim::MultiDiskSimulator::ParallelForFn TimedParallelFor(
    vod::exp::ThreadPool* pool, PoolCounters* counters);

}  // namespace daybench

#endif  // DAYBENCH_LAYERS_H_
