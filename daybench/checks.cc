#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/closed_form.h"
#include "core/params.h"
#include "workloads.h"

namespace daybench {

namespace {

std::string DiskTag(const DiskOutput& out) {
  std::ostringstream os;
  os << "disk " << out.config.disk_id << " ("
     << vod::core::ScheduleMethodName(out.config.method) << "): ";
  return os.str();
}

void ExpectEq(long got, long want, const std::string& what,
              const std::string& tag, CheckReport* report) {
  if (got == want) return;
  std::ostringstream os;
  os << tag << what << ": " << got << " != " << want;
  report->Fail(os.str());
}

}  // namespace

void CheckDisk(const DiskOutput& out, CheckReport* report) {
  const vod::sim::SimMetrics& m = *out.metrics;
  const std::string tag = DiskTag(out);

  // Request accounting.
  ExpectEq(m.arrivals, out.routed_arrivals, "arrivals vs routed arrivals",
           tag, report);
  ExpectEq(m.arrivals, m.admitted + m.rejected, "arrivals vs admitted+rejected",
           tag, report);
  ExpectEq(m.rejected,
           m.rejected_capacity + m.rejected_memory + m.rejected_invalid,
           "rejected vs capacity+memory+invalid", tag, report);
  ExpectEq(m.admitted, m.completed + m.cancelled,
           "admitted vs completed+cancelled after the drain", tag, report);

  // The buffer ledger: every delivered bit is tossed back by the drain. The
  // two sides are floating-point sums of the same bits, one per read and one
  // per request, so they may differ by the rounding of those additions
  // (at most one unit roundoff of the total per addition) and no more.
  const double allocated = vod::ToBits(m.buffer_bits_allocated);
  const double released = vod::ToBits(m.buffer_bits_released);
  const double additions =
      static_cast<double>(m.services + m.completed + m.cancelled + 1);
  const double rounding = additions *
                          std::numeric_limits<double>::epsilon() *
                          std::max(allocated, released);
  if (!(std::fabs(allocated - released) <= rounding)) {
    std::ostringstream os;
    os.precision(17);
    os << tag << "buffer ledger: allocated " << allocated << " != released "
       << released << " (rounding bound " << rounding << " bits)";
    report->Fail(os.str());
  }

  // Every allocation against the closed form of Theorem 1 (the simulator
  // reads a precomputed table) and Eq. 8. Sweep*'s DL varies with n.
  const vod::core::AllocParams params = ParamsFor(out.config);
  for (const vod::sim::AllocationRecord& rec : m.allocations) {
    vod::core::AllocParams row = params;
    if (out.config.method == vod::core::ScheduleMethod::kSweep) {
      row.dl = vod::core::WorstDiskLatency(
          out.config.profile, vod::core::ScheduleMethod::kSweep, rec.n);
    }
    const int k = std::min(rec.k, params.n_max - rec.n);
    vod::Result<vod::Bits> bs = vod::core::DynamicBufferSize(row, rec.n, k);
    if (!bs.ok() || bs.value() != rec.buffer_size) {
      std::ostringstream os;
      os.precision(17);
      os << tag << "allocation of request " << rec.request << " at n="
         << rec.n << " k=" << rec.k << ": " << vod::ToBits(rec.buffer_size)
         << " bits, Theorem 1 gives "
         << (bs.ok() ? vod::ToBits(bs.value()) : -1.0);
      report->Fail(os.str());
      return;
    }
    if (vod::core::UsagePeriod(params, rec.buffer_size) != rec.usage_period) {
      std::ostringstream os;
      os << tag << "usage period of request " << rec.request
         << " is not BS/CR";
      report->Fail(os.str());
      return;
    }
  }

  if (m.peak_concurrency > params.n_max) {
    std::ostringstream os;
    os << tag << "peak concurrency " << m.peak_concurrency << " > N "
       << params.n_max;
    report->Fail(os.str());
  }
  if (vod::ToSeconds(m.disk_busy_time) > out.span_s) {
    std::ostringstream os;
    os << tag << "disk busy " << vod::ToSeconds(m.disk_busy_time)
       << " s > simulated span " << out.span_s << " s";
    report->Fail(os.str());
  }
}

namespace {

struct Fnv {
  std::uint64_t h;
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void Long(long v) { Bytes(&v, sizeof v); }
  void Double(double v) { Bytes(&v, sizeof v); }
  void Stats(const vod::RunningStats& s) {
    Long(static_cast<long>(s.count()));
    Double(s.mean());
    Double(s.variance());
    Double(s.min());
    Double(s.max());
  }
  void Series(const vod::StepTimeSeries& s) {
    Long(static_cast<long>(s.points().size()));
    for (const auto& [t, v] : s.points()) {
      Double(t);
      Double(v);
    }
  }
};

}  // namespace

std::uint64_t Digest(const vod::sim::SimMetrics& m, std::uint64_t h) {
  Fnv f{h};
  for (const long v :
       {m.arrivals, m.admitted, m.rejected, m.rejected_capacity,
        m.rejected_memory, m.rejected_invalid, m.deferred_admissions,
        m.completed, m.cancelled, m.estimation_checks, m.estimation_successes,
        m.starvation_events, m.read_faults, m.read_retries, m.hiccup_events,
        m.degraded_entries, m.degraded_streams, m.fault_recoveries,
        m.delayed_reads, m.services, static_cast<long>(m.peak_concurrency)}) {
    f.Long(v);
  }
  f.Long(static_cast<long>(m.initial_latency_by_n.size()));
  for (const vod::RunningStats& s : m.initial_latency_by_n) f.Stats(s);
  f.Stats(m.initial_latency);
  f.Stats(m.estimated_k);
  f.Long(static_cast<long>(m.allocations.size()));
  for (const vod::sim::AllocationRecord& r : m.allocations) {
    f.Double(vod::ToSeconds(r.time));
    f.Long(static_cast<long>(r.request));
    f.Long(r.n);
    f.Long(r.k);
    f.Double(vod::ToBits(r.buffer_size));
    f.Double(vod::ToSeconds(r.usage_period));
  }
  f.Double(vod::ToBits(m.buffer_bits_allocated));
  f.Double(vod::ToBits(m.buffer_bits_released));
  f.Series(m.concurrency);
  f.Series(m.memory_usage);
  f.Series(m.memory_reserved);
  f.Double(vod::ToSeconds(m.disk_busy_time));
  return f.h;
}

}  // namespace daybench
