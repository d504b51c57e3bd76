#ifndef DAYBENCH_WORKLOADS_H_
#define DAYBENCH_WORKLOADS_H_

// The benchmark's workloads: each names the inputs of one unit of work (one
// round of simulated days) and how the unit is run. Everything here goes
// through the simulator's public entry points; nothing is traced in src/.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/multi_disk.h"
#include "sim/vod_simulator.h"
#include "sim/workload.h"

namespace daybench {

enum class Runner {
  kSingleDisk,      ///< One VodSimulator per method, no memory limit.
  kSerialShared,    ///< MultiDiskSimulator::RunToCompletion.
  kShardedShared,   ///< MultiDiskSimulator::RunToCompletionSharded.
};

struct WorkloadSpec {
  std::string name;
  Runner runner = Runner::kSingleDisk;
  /// Methods simulated in one round; one day each (single disk) or one
  /// multi-disk server each.
  std::vector<vod::core::ScheduleMethod> methods;
  vod::sim::WorkloadConfig workload;  ///< Seed filled in per day.
  /// Independent days drawn from --seed in one round. Every round also
  /// runs one fixed day, whose inputs do not depend on --seed (day index
  /// `days`, see DaySeed).
  int days = 1;
  int disks = 1;
  vod::Bits memory_capacity;  ///< Shared budget; only for multi-disk.
  /// Whether the build must have VODB_AUDIT and VODB_PROF compiled in.
  bool checked = false;
  /// The unchecked workload with the same inputs (itself when unchecked).
  std::string inputs_of;
};

/// The four workloads by name; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The build tree (run.py's names) that runs `spec` with or without
/// tracing, and the one this binary was compiled as.
std::string BuildFor(const WorkloadSpec& spec, bool trace);
std::string ThisBuild();

/// The seed of day `day` of a round: --seed for the drawn days, a constant
/// for the fixed day.
std::uint64_t DaySeed(const WorkloadSpec& spec, std::uint64_t seed, int day);

/// The per-disk simulator configuration of `method` (the paper's T_log and
/// the simulator seed derived from the benchmark seed).
vod::sim::SimConfig DiskConfig(vod::core::ScheduleMethod method,
                               std::uint64_t seed);

/// The Theorem-1 parameters VodSimulator::Create derives for `cfg`.
vod::core::AllocParams ParamsFor(const vod::sim::SimConfig& cfg);

/// Generates the arrivals of day `day` of a round.
std::vector<vod::sim::ArrivalEvent> MakeArrivals(const WorkloadSpec& spec,
                                                 std::uint64_t seed, int day);

}  // namespace daybench

#endif  // DAYBENCH_WORKLOADS_H_
