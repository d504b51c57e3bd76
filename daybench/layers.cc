#include "layers.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>

namespace daybench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void BrokerCounters::Add(const BrokerCounters& o) {
  can_admit_calls += o.can_admit_calls;
  on_state_calls += o.on_state_calls;
  reserved_calls += o.reserved_calls;
  can_admit_s += o.can_admit_s;
  on_state_s += o.on_state_s;
  reserved_s += o.reserved_s;
}

bool CountingBroker::CanAdmit(int disk, int new_n, int k) const {
  const double t0 = NowSeconds();
  const bool ok = inner_->CanAdmit(disk, new_n, k);
  counters_->can_admit_s += NowSeconds() - t0;
  ++counters_->can_admit_calls;
  return ok;
}

void CountingBroker::OnState(int disk, int n, int k) {
  const double t0 = NowSeconds();
  inner_->OnState(disk, n, k);
  counters_->on_state_s += NowSeconds() - t0;
  ++counters_->on_state_calls;
}

vod::Bits CountingBroker::ReservedMemory() const {
  const double t0 = NowSeconds();
  const vod::Bits reserved = inner_->ReservedMemory();
  counters_->reserved_s += NowSeconds() - t0;
  ++counters_->reserved_calls;
  return reserved;
}

vod::sim::MultiDiskSimulator::ParallelForFn TimedParallelFor(
    vod::exp::ThreadPool* pool, PoolCounters* counters) {
  return [pool, counters](std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
    // Each task writes only its own slot; ParallelFor joins them all
    // before the slots are read.
    std::vector<double> busy(n, 0.0);
    const double t0 = NowSeconds();
    pool->ParallelFor(n, [&fn, &busy](std::size_t i) {
      const double s0 = NowSeconds();
      fn(i);
      busy[i] = NowSeconds() - s0;
    });
    counters->parallel_s += NowSeconds() - t0;
    ++counters->epochs;
    if (n == 0) return;
    double sum = 0;
    double slowest = 0;
    for (const double b : busy) {
      sum += b;
      slowest = std::max(slowest, b);
    }
    counters->shard_busy_s += sum;
    counters->slowest_shard_s += slowest;
    counters->mean_shard_s += sum / static_cast<double>(n);
  };
}

}  // namespace daybench
