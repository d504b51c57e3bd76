#ifndef DAYBENCH_CHECKS_H_
#define DAYBENCH_CHECKS_H_

// Correctness checks run on every unit of every workload. Each is a property
// of the simulated outputs or a recomputation from an independent source
// (the benchmark's own arrival counts, the Theorem-1 closed form), never a
// comparison against stored outputs.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/vod_simulator.h"

namespace daybench {

/// One disk's outputs and what the benchmark knows independently of them.
struct DiskOutput {
  const vod::sim::SimMetrics* metrics = nullptr;
  vod::sim::SimConfig config;
  long routed_arrivals = 0;  ///< Generated arrivals whose `disk` is this one.
  double span_s = 0;         ///< Simulated clock when the disk drained.
};

struct CheckReport {
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
  void Fail(const std::string& what) { failures.push_back(what); }
};

/// Request accounting, the buffer ledger, every allocation record against
/// Theorem 1 and Eq. 8, peak concurrency against N, and disk busy time
/// against the simulated span.
void CheckDisk(const DiskOutput& out, CheckReport* report);

/// FNV-1a over every field of `m`, doubles at full precision.
std::uint64_t Digest(const vod::sim::SimMetrics& m, std::uint64_t h);

/// Digest seed.
inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

}  // namespace daybench

#endif  // DAYBENCH_CHECKS_H_
