// daybench: times simulated VoD days end to end and, in a traced run, layer
// by layer. One invocation runs one workload for a fixed host-time budget in
// whole rounds of identical units, checks every unit, and prints one JSON
// object as its last line (run.py turns it into the benchmark's result).
//
//   daybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--rounds <n>] [--plan 1] [--probe 1]
//
// With --plan 1 it only prints which build runs the workload and mode, and
// which unchecked workload has the same inputs, as one JSON object. With
// --probe 1 it only builds round 0 and prints that cold set-up's time; an
// untraced run starts such probes of itself to time `setup_s`.
//
// See README.md for the workloads, the metrics and the timing statistic.

#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "core/buffer_size_table.h"
#include "core/memory_model.h"
#include "exp/sharded.h"
#include "exp/thread_pool.h"
#include "layers.h"
#include "obs/profile.h"
#include "sim/memory_broker.h"
#include "sim/multi_disk.h"
#include "sim/vod_simulator.h"
#include "workloads.h"

namespace daybench {
namespace {

using vod::sim::MultiDiskSimulator;
using vod::sim::VodSimulator;

// The timing statistic taken over the repetitions of one part of a round:
// the mean of the fastest quarter, which follows the host's fast phases
// rather than its slow ones (README.md "Timing statistic").
constexpr double kFastShare = 0.25;
// Enough rounds for the fastest quarter to hold more than one sample,
// however slow the host.
constexpr int kMinRounds = 5;
// Cold set-ups timed per untraced run, each in a process of its own, spread
// over the run; `setup_s` is their fastest-quarter mean.
constexpr int kSetupProbes = 40;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  int rounds = 0;  ///< When > 0, exactly this many rounds, however long.
  bool plan = false;
  bool probe = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "daybench: " << why
            << "\nusage: daybench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--rounds <n>] [--plan 1] [--probe 1]"
               "\nworkloads:";
  for (const std::string& n : WorkloadNames()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

bool ParseUnsigned(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::stoull(s);
  return true;
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Usage("malformed arguments");
    if (!kv.emplace(key.substr(2), argv[i + 1]).second) {
      Usage("repeated flag " + key);
    }
  }
  std::uint64_t v = 0;
  for (const auto& [key, value] : kv) {
    if (key == "workload") {
      o.workload = value;
    } else if (key == "seed") {
      if (!ParseUnsigned(value, &v)) Usage("bad --seed");
      o.seed = v;
    } else if (key == "seconds") {
      if (!ParseUnsigned(value, &v) || v < 1 || v > 3600) {
        Usage("bad --seconds");
      }
      o.seconds = static_cast<double>(v);
    } else if (key == "trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      o.trace = value == "1";
    } else if (key == "rounds") {
      if (!ParseUnsigned(value, &v) || v < 1 || v > 1000) Usage("bad --rounds");
      o.rounds = static_cast<int>(v);
    } else if (key == "plan") {
      if (value != "1") Usage("bad --plan");
      o.plan = true;
    } else if (key == "probe") {
      if (value != "1") Usage("bad --probe");
      o.probe = true;
    } else {
      Usage("unknown flag --" + key);
    }
  }
  if (kv.count("workload") == 0 || kv.count("seed") == 0 ||
      kv.count("seconds") == 0 || kv.count("trace") == 0) {
    Usage("missing flag");
  }
  if (FindWorkload(o.workload) == nullptr) Usage("unknown workload");
  return o;
}

/// How a unit's simulators reach the broker and the pool.
enum class Wiring {
  kProgram,    ///< The program's own entry points, unobserved.
  kObserved,   ///< The same run with the benchmark's observers wired in.
};

/// One simulated day, built and ready to run: on a single disk one
/// simulator per method, on ten disks one server.
struct Day {
  bool fixed = false;  ///< The round's fixed day (inputs not from --seed).
  std::vector<vod::sim::ArrivalEvent> arrivals;
  /// The benchmark's own arrival count per simulator (single disk) or per
  /// disk, from the generated arrivals.
  std::vector<long> routed;
  // Single disk, and the observed multi-disk wiring: one simulator per
  // method on a single disk, or per disk.
  std::vector<std::unique_ptr<VodSimulator>> sims;
  std::unique_ptr<MultiDiskSimulator> server;
  std::unique_ptr<vod::sim::AnalyticMemoryBroker> broker;
  std::vector<std::unique_ptr<vod::sim::ShardBrokerView>> views;
  std::vector<std::unique_ptr<CountingBroker>> decorators;
  std::vector<BrokerCounters> broker_counters;
};

/// One round: independent days drawn from the seed, then the fixed day.
struct Unit {
  std::vector<std::unique_ptr<Day>> days;
  std::vector<std::string> audit_violations;
};

struct Context {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
};

vod::sim::SimConfig DiskOf(const vod::sim::SimConfig& base, int d) {
  // MultiDiskSimulator::Create's per-disk derivation.
  vod::sim::SimConfig cfg = base;
  cfg.disk_id = d;
  cfg.seed = base.seed * 1000003ULL + static_cast<std::uint64_t>(d);
  return cfg;
}

template <typename T>
T Must(vod::Result<T> r, const char* what) {
  if (!r.ok()) {
    std::cerr << "daybench: " << what << ": " << r.status().ToString() << '\n';
    std::exit(1);
  }
  return std::move(r.value());
}

void MustOk(const vod::Status& s, const char* what) {
  if (!s.ok()) {
    std::cerr << "daybench: " << what << ": " << s.ToString() << '\n';
    std::exit(1);
  }
}

/// The set-up the program does for one day: workload generation, simulator
/// and broker construction (Theorem-1 tables included), and feeding the
/// arrivals.
std::unique_ptr<Day> BuildDay(const Context& ctx, Wiring wiring, int index) {
  const WorkloadSpec& spec = *ctx.spec;
  auto day = std::make_unique<Day>();
  day->fixed = index == spec.days;
  day->arrivals = MakeArrivals(spec, ctx.seed, index);
  const std::uint64_t seed = DaySeed(spec, ctx.seed, index);
  const std::vector<vod::sim::ArrivalEvent>& arrivals = day->arrivals;
  if (spec.runner == Runner::kSingleDisk) {
    for (const vod::core::ScheduleMethod m : spec.methods) {
      day->sims.push_back(
          Must(VodSimulator::Create(DiskConfig(m, seed), nullptr),
               "create simulator"));
      MustOk(day->sims.back()->AddArrivals(arrivals), "add arrivals");
      day->routed.push_back(static_cast<long>(arrivals.size()));
    }
    return day;
  }
  day->routed.assign(static_cast<std::size_t>(spec.disks), 0);
  for (const vod::sim::ArrivalEvent& a : arrivals) {
    ++day->routed[static_cast<std::size_t>(a.disk)];
  }
  const vod::sim::SimConfig base = DiskConfig(spec.methods[0], seed);
  if (wiring == Wiring::kProgram) {
    day->server = Must(
        MultiDiskSimulator::Create(base, spec.disks, spec.memory_capacity),
        "create server");
    MustOk(day->server->AddArrivals(arrivals), "add arrivals");
    return day;
  }
  // One simulator per disk around one shared broker, each behind a counting
  // decorator; on the sharded path the decorator sits in front of the disk's
  // ShardBrokerView, where MultiDiskSimulator wires the simulator itself.
  day->broker = std::make_unique<vod::sim::AnalyticMemoryBroker>(
      ParamsFor(base), base.method,
      base.scheme == vod::sim::AllocScheme::kDynamic, base.gss_group_size,
      spec.disks, spec.memory_capacity);
  day->broker_counters.resize(static_cast<std::size_t>(spec.disks));
  const std::vector<std::vector<vod::sim::ArrivalEvent>> per =
      vod::sim::SplitByDisk(arrivals, spec.disks);
  for (int d = 0; d < spec.disks; ++d) {
    const auto di = static_cast<std::size_t>(d);
    vod::sim::MemoryBroker* inner = day->broker.get();
    if (spec.runner == Runner::kShardedShared) {
      day->views.push_back(
          std::make_unique<vod::sim::ShardBrokerView>(day->broker.get(), d));
      inner = day->views.back().get();
    }
    day->decorators.push_back(
        std::make_unique<CountingBroker>(inner, &day->broker_counters[di]));
    day->sims.push_back(Must(
        VodSimulator::Create(DiskOf(base, d), day->decorators.back().get()),
        "create simulator"));
    MustOk(day->sims.back()->AddArrivals(per[di]), "add arrivals");
  }
  return day;
}

/// Builds the days of a round.
std::unique_ptr<Unit> BuildUnit(const Context& ctx, Wiring wiring) {
  auto u = std::make_unique<Unit>();
  for (int i = 0; i <= ctx.spec->days; ++i) {
    u->days.push_back(BuildDay(ctx, wiring, i));
    Unit* raw = u.get();
    for (const auto& s : u->days.back()->sims) {
      s->auditor().set_handler([raw](const vod::sim::InvariantViolation& v) {
        raw->audit_violations.push_back(v.invariant + ": " + v.detail);
      });
    }
  }
  return u;
}

/// MultiDiskSimulator::RunToCompletion's interleave over `sims`.
void RunInterleaved(const std::vector<std::unique_ptr<VodSimulator>>& sims) {
  for (;;) {
    vod::Seconds best = vod::Seconds::Infinity();
    VodSimulator* who = nullptr;
    for (const auto& s : sims) {
      const vod::Seconds t = s->NextEventTime();
      if (t < best) {
        best = t;
        who = s.get();
      }
    }
    if (who == nullptr) return;
    who->Step();
  }
}

/// MultiDiskSimulator::RunToCompletionSharded's epoch loop over the
/// observed wiring (one-second epochs, the runner's default).
void RunShardedObserved(Day& day, vod::exp::ThreadPool& pool) {
  const std::size_t disks = day.sims.size();
  for (;;) {
    vod::Seconds t_min = vod::Seconds::Infinity();
    for (const auto& s : day.sims) t_min = std::min(t_min, s->NextEventTime());
    if (t_min == vod::Seconds::Infinity()) return;
    const vod::Seconds epoch_end = t_min + vod::Seconds(1.0);
    const vod::Bits capacity = day.broker->Capacity();
    for (std::size_t d = 0; d < disks; ++d) {
      day.views[d]->BeginEpoch(
          day.broker->ReservedExcluding(static_cast<int>(d)), capacity);
    }
    pool.ParallelFor(disks, [&day, epoch_end](std::size_t d) {
      day.sims[d]->RunUntilBefore(epoch_end);
    });
    for (std::size_t d = 0; d < disks; ++d) day.views[d]->EndEpochPublish();
  }
}

/// Host wall and process CPU seconds of one timed part of a round.
struct Timing {
  double wall = 0;
  double cpu = 0;
};

template <typename F>
Timing Timed(F&& f) {
  const double c0 = ProcessCpuSeconds();
  const double w0 = NowSeconds();
  f();
  const double w1 = NowSeconds();
  const double c1 = ProcessCpuSeconds();
  return {w1 - w0, c1 - c0};
}

/// Simulates every day of the round to completion and finalizes it, timing
/// each simulator of a single-disk day, or each multi-disk server, as one
/// part. `pool_counters` wraps the sharded runner's executor when given.
std::vector<Timing> RunUnit(Unit& u, Runner runner, vod::exp::ThreadPool& pool,
                            PoolCounters* pool_counters) {
  std::vector<Timing> parts;
  for (const std::unique_ptr<Day>& day : u.days) {
    if (runner == Runner::kSingleDisk) {
      for (const auto& s : day->sims) {
        parts.push_back(Timed([&s] {
          s->RunToCompletion();
          s->Finalize();
        }));
      }
      continue;
    }
    parts.push_back(Timed([&] {
      MultiDiskSimulator* server = day->server.get();
      if (server == nullptr) {
        if (runner == Runner::kSerialShared) {
          RunInterleaved(day->sims);
        } else {
          RunShardedObserved(*day, pool);
        }
        for (const auto& s : day->sims) s->Finalize();
      } else if (runner == Runner::kSerialShared) {
        server->RunToCompletion();
        server->Finalize();
      } else if (pool_counters != nullptr) {
        server->RunToCompletionSharded(TimedParallelFor(&pool, pool_counters));
        server->Finalize();
      } else {
        vod::exp::RunShardedToCompletion(*server, pool);
        server->Finalize();
      }
    }));
  }
  return parts;
}

std::vector<const VodSimulator*> SimsOf(const Day& day) {
  std::vector<const VodSimulator*> out;
  if (day.server != nullptr) {
    for (int d = 0; d < day.server->disk_count(); ++d) {
      out.push_back(&day.server->sim(d));
    }
  } else {
    for (const auto& s : day.sims) out.push_back(s.get());
  }
  return out;
}

/// What one finished round produced.
struct RoundOutputs {
  std::uint64_t digest = kDigestBasis;
  long arrivals = 0;
  long reads = 0;
  long starvations = 0;
  long fixed_reads = 0;        ///< Of the fixed day.
  long fixed_starvations = 0;  ///< Of the fixed day.
  long memory_rejections = 0;
  long capacity_rejections = 0;
  int peak_n = 0;  ///< Highest per-disk concurrency.
  long allocations = 0;
  long allocation_capacity = 0;
  long series_points = 0;
  long audit_checks = 0;
  double peak_buffer_bits = 0;  ///< Highest per-disk buffered bits.
  /// Highest per-disk ratio of buffered bits to Theorems 2–4 (up to the
  /// disk's peak n).
  double peak_buffer_per_theorem = 0;
  BrokerCounters broker;
};

/// Theorems 2–4's memory for up to `peak_n` requests on one disk of `cfg`:
/// the largest over every n <= peak_n and every k estimate the dynamic
/// scheme may hold at that n. Memoized, as every disk of a method shares it.
double TheoremPeakBits(const vod::sim::SimConfig& cfg, int peak_n) {
  static std::map<std::pair<int, int>, double> memo;
  const std::pair<int, int> key{static_cast<int>(cfg.method), peak_n};
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  const vod::core::AllocParams params = ParamsFor(cfg);
  double bits = 0;
  for (int n = 1; n <= peak_n; ++n) {
    for (int k = 0; k <= params.n_max - n; ++k) {
      const vod::Result<vod::Bits> mem = vod::core::DynamicMemoryRequirement(
          params, cfg.method, n, k, cfg.gss_group_size);
      if (mem.ok()) bits = std::max(bits, vod::ToBits(*mem));
    }
  }
  memo.emplace(key, bits);
  return bits;
}

RoundOutputs Inspect(const Unit& u, const Context& ctx, CheckReport* report) {
  RoundOutputs r;
  for (const std::unique_ptr<Day>& day : u.days) {
    r.arrivals += static_cast<long>(day->arrivals.size());
    for (const BrokerCounters& b : day->broker_counters) r.broker.Add(b);
    const std::vector<const VodSimulator*> sims = SimsOf(*day);
    for (std::size_t i = 0; i < sims.size(); ++i) {
      const VodSimulator& s = *sims[i];
      const vod::sim::SimMetrics& m = s.metrics();
      DiskOutput out;
      out.metrics = &m;
      out.config = s.config();
      out.routed_arrivals = day->routed[i];
      out.span_s = vod::ToSeconds(s.now());
      CheckDisk(out, report);
      r.digest = Digest(m, r.digest);
      r.reads += m.services;
      r.starvations += m.starvation_events;
      if (day->fixed) {
        r.fixed_reads += m.services;
        r.fixed_starvations += m.starvation_events;
      }
      r.memory_rejections += m.rejected_memory;
      r.capacity_rejections += m.rejected_capacity;
      r.peak_n = std::max(r.peak_n, m.peak_concurrency);
      r.allocations += static_cast<long>(m.allocations.size());
      r.allocation_capacity += static_cast<long>(m.allocations.capacity());
      r.series_points += static_cast<long>(m.concurrency.points().size() +
                                           m.memory_usage.points().size() +
                                           m.memory_reserved.points().size());
      r.audit_checks += s.auditor().checks();
      const double peak = m.memory_usage.max_value();
      r.peak_buffer_bits = std::max(r.peak_buffer_bits, peak);
      r.peak_buffer_per_theorem = std::max(
          r.peak_buffer_per_theorem,
          peak / TheoremPeakBits(s.config(), m.peak_concurrency));
    }
  }
  for (const std::string& v : u.audit_violations) {
    report->Fail("invariant auditor: " + v);
  }
  if (ctx.spec->runner != Runner::kSingleDisk && r.memory_rejections < 1) {
    report->Fail("no arrival was rejected for memory");
  }
  return r;
}

/// One untimed round through `wiring`.
RoundOutputs RunReference(const Context& ctx, Wiring wiring,
                          vod::exp::ThreadPool& pool, CheckReport* report) {
  std::unique_ptr<Unit> u = BuildUnit(ctx, wiring);
  RunUnit(*u, ctx.spec->runner, pool, nullptr);
  return Inspect(*u, ctx, report);
}

/// The CPUs the process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus`.
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Runs this binary as a set-up probe (--probe 1) on the calling thread's
/// CPUs and returns the cold set-up it timed. Exits on any failure.
double ProbeColdSetup(const std::string& self, const Options& opt) {
  const std::vector<std::string> args = {
      self, "--workload", opt.workload, "--seed", std::to_string(opt.seed),
      "--seconds", "1", "--trace", opt.trace ? "1" : "0", "--probe", "1"};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    std::cerr << "daybench: pipe failed\n";
    std::exit(1);
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  if (rc == 0) {
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  const std::string key = "\"setup_s\":";
  const std::size_t at = out.find(key);
  if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      at == std::string::npos) {
    std::cerr << "daybench: set-up probe failed: " << self << '\n';
    std::exit(1);
  }
  return std::strtod(out.c_str() + at + key.size(), nullptr);
}

/// Mean of the fastest `share` of `v` (at least one sample).
double FastMean(std::vector<double> v, double share) {
  std::sort(v.begin(), v.end());
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(v.size())));
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

/// A round's time at the statistic, summed over its parts.
double RoundTime(const std::vector<std::vector<double>>& parts) {
  double total = 0;
  for (const std::vector<double>& samples : parts) {
    total += FastMean(samples, kFastShare);
  }
  return total;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void JsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

/// Per-layer figures of a traced run, per round.
std::map<std::string, double> LayerMetrics(
    const std::vector<vod::obs::ProfSiteStats>& prof, double rounds,
    const RoundOutputs& out, const BrokerCounters& broker,
    const PoolCounters& pool, double sharded_run_s, double speedup,
    double workload_gen_s, double table_build_s, double setup_warm_s) {
  std::map<std::string, double> m;
  // Sums calls or seconds over the profiler sites `match` accepts, per round.
  auto sum = [&prof, rounds](auto match, bool calls) {
    double v = 0;
    for (const vod::obs::ProfSiteStats& s : prof) {
      if (!match(s.name)) continue;
      v += calls ? static_cast<double>(s.calls) : vod::ToSeconds(s.total);
    }
    return v / rounds;
  };
  auto site = [&sum](const std::string& name, bool calls) {
    return sum([&name](const std::string& s) { return s == name; }, calls);
  };
  // Each scheduler names its scope sched.<method>.sequence.
  auto sequence = [&sum](bool calls) {
    return sum(
        [](const std::string& s) {
          return s.starts_with("sched.") && s.ends_with(".sequence");
        },
        calls);
  };
  const double reads = static_cast<double>(out.reads);
  const double events = site("sim.step", true);
  const double step_s = site("sim.step", false);
  m["sim.events"] = events;
  m["sim.step_s"] = step_s;
  m["sim.step_self_s"] = step_s - site("sim.schedule", false);
  m["sim.ns_per_event"] = events > 0 ? step_s / events * 1e9 : 0;
  m["sim.admit_calls"] = site("sim.admit", true);
  m["sim.admit_s"] = site("sim.admit", false);
  m["sim.workload_gen_s"] = workload_gen_s;
  m["sim.setup_warm_s"] = setup_warm_s;
  m["sim.underflows"] = static_cast<double>(out.starvations);
  m["sched.decisions"] = site("sim.schedule", true);
  // The sim.schedule scope less the disk reads and broker calls made
  // inside it (the few broker calls made at departures are subtracted too).
  // Admission retries (sim.admit) and, in the checked build, the auditor's
  // sequence replay also run inside it and stay in (README.md "Per layer").
  m["sched.decide_s"] = site("sim.schedule", false) -
                        site("disk.service", false) - broker.can_admit_s -
                        broker.on_state_s - broker.reserved_s;
  m["sched.sequence_builds"] = sequence(true);
  m["sched.sequence_s"] = sequence(false);
  m["sched.sequence_builds_per_read"] =
      reads > 0 ? sequence(true) / reads : 0;
  m["core.table_build_s"] = table_build_s;
  m["core.allocations"] = static_cast<double>(out.allocations);
  m["broker.can_admit_calls"] = static_cast<double>(broker.can_admit_calls);
  m["broker.on_state_calls"] = static_cast<double>(broker.on_state_calls);
  m["broker.reserved_calls"] = static_cast<double>(broker.reserved_calls);
  m["broker.can_admit_s"] = broker.can_admit_s;
  m["broker.on_state_s"] = broker.on_state_s;
  m["broker.reserved_s"] = broker.reserved_s;
  m["broker.calls_per_read"] =
      reads > 0 ? static_cast<double>(broker.can_admit_calls +
                                      broker.on_state_calls +
                                      broker.reserved_calls) /
                      reads
                : 0;
  m["broker.memory_rejections"] = static_cast<double>(out.memory_rejections);
  m["disk.reads"] = reads;
  m["disk.service_s"] = site("disk.service", false);
  m["exp.epochs"] = static_cast<double>(pool.epochs) / rounds;
  m["exp.parallel_s"] = pool.parallel_s / rounds;
  m["exp.serial_merge_s"] =
      pool.epochs > 0 ? (sharded_run_s - pool.parallel_s) / rounds : 0;
  m["exp.shard_busy_s"] = pool.shard_busy_s / rounds;
  m["exp.imbalance"] =
      pool.mean_shard_s > 0 ? pool.slowest_shard_s / pool.mean_shard_s : 0;
  m["exp.speedup"] = speedup;
  m["check.audit_checks"] = static_cast<double>(out.audit_checks);
  m["check.prof_scopes"] = sum([](const std::string&) { return true; }, true);
  m["mem.allocation_records"] = static_cast<double>(out.allocation_capacity);
  m["mem.series_points"] = static_cast<double>(out.series_points);
  m["mem.peak_buffer_mb"] = vod::ToMebibytes(vod::Bits(out.peak_buffer_bits));
  m["mem.peak_buffer_per_theorem"] = out.peak_buffer_per_theorem;
  return m;
}

/// Host time of one BufferSizeTable::Build per simulator of a round, with
/// the parameters VodSimulator::Create derives.
double TimeTableBuilds(const Context& ctx) {
  const WorkloadSpec& spec = *ctx.spec;
  double total = 0;
  // One table per simulator: per day on a single disk, per disk and day
  // otherwise (the fixed day included).
  const int tables_per_method =
      spec.runner == Runner::kSingleDisk ? spec.days + 1
                                         : spec.disks * (spec.days + 1);
  for (const vod::core::ScheduleMethod m : spec.methods) {
    const vod::sim::SimConfig cfg = DiskConfig(m, ctx.seed);
    const vod::core::AllocParams params = ParamsFor(cfg);
    const vod::disk::DiskProfile profile = cfg.profile;
    vod::core::BufferSizeTable::DlForN dl_for_n = [params](int) {
      return params.dl;
    };
    if (m == vod::core::ScheduleMethod::kSweep) {
      dl_for_n = [profile](int n) {
        return vod::core::WorstDiskLatency(
            profile, vod::core::ScheduleMethod::kSweep, n);
      };
    }
    for (int i = 0; i < tables_per_method; ++i) {
      const double t0 = NowSeconds();
      vod::Result<vod::core::BufferSizeTable> t =
          vod::core::BufferSizeTable::Build(params, dl_for_n);
      total += NowSeconds() - t0;
      if (!t.ok()) {
        std::cerr << "daybench: table build failed\n";
        std::exit(1);
      }
    }
  }
  return total;
}

int Main(int argc, char** argv) {
  const double main_start = NowSeconds();
  // One malloc arena for every thread: with one per pool worker, the peak
  // RSS of the sharded runner moved by 30% with the order in which workers
  // happened to allocate (README.md "Metrics").
  mallopt(M_ARENA_MAX, 1);
  const Options opt = ParseArgs(argc, argv);
  Context ctx;
  ctx.spec = FindWorkload(opt.workload);
  ctx.seed = opt.seed;
  const std::string build = BuildFor(*ctx.spec, opt.trace);
  if (opt.plan) {
    std::cout << "{\"build\":\"" << build << "\",\"inputs_of\":\""
              << ctx.spec->inputs_of << "\"}" << std::endl;
    return 0;
  }
  if (build != ThisBuild()) {
    std::cerr << "daybench: workload " << opt.workload << " with --trace "
              << opt.trace << " runs in the " << build << " build, not in "
              << ThisBuild() << '\n';
    return 2;
  }
  // The traced serial run is measured through the decorated broker; the
  // traced sharded run through the program's runner with a timed executor,
  // and its broker calls are counted on one extra observed round.
  const Runner runner = ctx.spec->runner;
  const Wiring wiring = opt.trace && runner == Runner::kSerialShared
                            ? Wiring::kObserved
                            : Wiring::kProgram;
  // The cold set-up: from the entry of main until round 0 is built.
  std::unique_ptr<Unit> round0 = BuildUnit(ctx, wiring);
  const double setup_cold = NowSeconds() - main_start;
  if (opt.probe) {
    std::cout.precision(10);
    std::cout << "{\"setup_s\":" << setup_cold << "}" << std::endl;
    std::_Exit(0);  // The probe's teardown is not part of its set-up.
  }

  // Pool of at most nproc workers, and no more than there are disks.
  const int workers = std::min(vod::exp::ThreadPool::DefaultThreads(),
                               std::max(1, ctx.spec->disks));
  vod::exp::ThreadPool pool(workers);
  // A single-threaded round runs on one CPU, the next round on the next:
  // the host slows its CPUs in phases that are not shared between them, and
  // the fastest-quarter statistic then takes the rounds that met a fast one.
  const std::vector<int> cpus = AllowedCpus();
  const bool rotate = runner != Runner::kShardedShared && !cpus.empty();

  CheckReport report;
  // Samples per timed part of a round, across rounds.
  std::vector<std::vector<double>> part_wall;
  std::vector<std::vector<double>> part_cpu;
  std::vector<double> setup_warm;  // BuildUnit of rounds 1 and later.
  // Cold set-ups: this process's own, then one per probe. A probe runs on
  // the next CPU in turn, as the rounds do (README.md "Timing statistic").
  std::vector<double> setup_cold_samples = {setup_cold};
  const bool probing = !opt.trace && opt.rounds == 0;
  auto run_probes = [&](double share) {
    const auto want = static_cast<std::size_t>(
        std::ceil(kSetupProbes * std::min(1.0, share)));
    while (setup_cold_samples.size() <= want) {
      if (!cpus.empty()) {
        PinTo({cpus[setup_cold_samples.size() % cpus.size()]});
      }
      setup_cold_samples.push_back(ProbeColdSetup(argv[0], opt));
    }
    if (!cpus.empty()) PinTo(cpus);
  };
  // Operations are the simulated reads of each round's fixed day; a read
  // fails when it leaves a buffer underflowing (README.md "Operations").
  long attempted = 0;
  long failed = 0;
  RoundOutputs first;
  BrokerCounters broker;    // Summed over `broker_rounds` rounds.
  long broker_rounds = 0;
  PoolCounters pool_counters;
  double sharded_run_s = 0;  // Wall time of the sharded runner.

  if (opt.trace) vod::obs::Profiler::Global().Reset();
  const double start = NowSeconds();
  int rounds = 0;
  while (opt.rounds > 0 ? rounds < opt.rounds
                        : rounds < kMinRounds ||
                              NowSeconds() - start < opt.seconds) {
    if (rotate) PinTo({cpus[static_cast<std::size_t>(rounds) % cpus.size()]});
    std::unique_ptr<Unit> u = std::move(round0);
    if (u == nullptr) {
      const double b0 = NowSeconds();
      u = BuildUnit(ctx, wiring);
      setup_warm.push_back(NowSeconds() - b0);
    }
    const std::vector<Timing> parts =
        RunUnit(*u, runner, pool, opt.trace ? &pool_counters : nullptr);
    part_wall.resize(parts.size());
    part_cpu.resize(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
      part_wall[i].push_back(parts[i].wall);
      part_cpu[i].push_back(parts[i].cpu);
      if (runner == Runner::kShardedShared) sharded_run_s += parts[i].wall;
    }

    const RoundOutputs out = Inspect(*u, ctx, &report);
    if (wiring == Wiring::kObserved) {
      broker.Add(out.broker);
      ++broker_rounds;
    }
    if (rounds == 0) {
      first = out;
    } else if (out.digest != first.digest) {
      report.Fail("round " + std::to_string(rounds) +
                  " differs from round 0 on the same input");
    }
    attempted += out.fixed_reads;
    failed += out.fixed_starvations;
    ++rounds;
    if (probing) run_probes((NowSeconds() - start) / opt.seconds);
  }
  if (probing) run_probes(1.0);
  const double measured_s = NowSeconds() - start;
  if (rotate) PinTo(cpus);
  std::vector<vod::obs::ProfSiteStats> prof_sites;
  if (opt.trace) prof_sites = vod::obs::Profiler::Global().Snapshot();

  // Cross-checks against other executions of the same input.
  double speedup = 0;
  if (runner == Runner::kShardedShared) {
    vod::exp::ThreadPool one(1);
    const double r0 = NowSeconds();
    const RoundOutputs ref = RunReference(ctx, Wiring::kProgram, one, &report);
    speedup = (NowSeconds() - r0) / RoundTime(part_wall);
    if (ref.digest != first.digest) {
      report.Fail("sharded run differs from its one-worker run");
    }
  }
  if (opt.trace && runner != Runner::kSingleDisk) {
    const Wiring other = wiring == Wiring::kObserved ? Wiring::kProgram
                                                     : Wiring::kObserved;
    const RoundOutputs ref = RunReference(ctx, other, pool, &report);
    if (ref.digest != first.digest) {
      report.Fail("the observed wiring differs from the program's runner");
    }
    if (other == Wiring::kObserved) {
      broker = ref.broker;
      broker_rounds = 1;
    }
  }

  std::ostringstream os;
  os.precision(10);
  os << "{\"workload\":";
  JsonString(os, opt.workload);
  os << ",\"seed\":" << opt.seed << ",\"rounds\":" << rounds
     << ",\"measured_s\":" << measured_s << ",\"workers\":" << workers
     << ",\"speedup\":" << speedup
     << ",\"days\":" << ctx.spec->days
     << ",\"digest\":\"" << Hex(first.digest) << "\""
     << ",\"correct\":" << (report.ok() ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"round\":{\"reads\":" << first.reads
     << ",\"starvations\":" << first.starvations
     << ",\"fixed_reads\":" << first.fixed_reads
     << ",\"fixed_starvations\":" << first.fixed_starvations
     << ",\"arrivals\":" << first.arrivals
     << ",\"capacity_rejections\":" << first.capacity_rejections
     << ",\"memory_rejections\":" << first.memory_rejections
     << ",\"peak_n\":" << first.peak_n << "}"
     << ",\"failures\":[";
  for (std::size_t i = 0; i < report.failures.size() && i < 20; ++i) {
    if (i > 0) os << ',';
    JsonString(os, report.failures[i]);
  }
  os << "],\"metrics\":{";
  const double reads = static_cast<double>(std::max(1L, first.reads));
  if (!opt.trace) {
    os << "\"setup_s\":" << FastMean(setup_cold_samples, kFastShare)
       << ",\"sim_ns_per_read\":"
       << RoundTime(part_wall) / reads * 1e9
       << ",\"cpu_ns_per_read\":" << RoundTime(part_cpu) / reads * 1e9
       << ",\"peak_rss_mb\":" << PeakRssMb();
  } else {
    const double n = static_cast<double>(rounds);
    // Workload generation and table builds, timed on their own after the
    // measured rounds through their public entry points.
    double gen = 0;
    for (int i = 0; i < 5; ++i) {
      for (int day = 0; day <= ctx.spec->days; ++day) {
        const double g0 = NowSeconds();
        const std::vector<vod::sim::ArrivalEvent> a =
            MakeArrivals(*ctx.spec, ctx.seed, day);
        gen += NowSeconds() - g0;
      }
    }
    double tables = 0;
    for (int i = 0; i < 5; ++i) tables += TimeTableBuilds(ctx);
    BrokerCounters per_round = broker;
    if (broker_rounds > 0) {
      const double b = static_cast<double>(broker_rounds);
      per_round.can_admit_calls /= broker_rounds;
      per_round.on_state_calls /= broker_rounds;
      per_round.reserved_calls /= broker_rounds;
      per_round.can_admit_s /= b;
      per_round.on_state_s /= b;
      per_round.reserved_s /= b;
    }
    const std::map<std::string, double> layers =
        LayerMetrics(prof_sites, n, first, per_round, pool_counters,
                     sharded_run_s, speedup, gen / 5, tables / 5,
                     setup_warm.empty() ? 0 : FastMean(setup_warm, kFastShare));
    bool comma = false;
    for (const auto& [name, value] : layers) {
      os << (comma ? "," : "") << '"' << name << "\":" << value;
      comma = true;
    }
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace daybench

int main(int argc, char** argv) { return daybench::Main(argc, argv); }
