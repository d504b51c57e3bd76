// Shows that each correctness check of the benchmark can fail: a real
// simulated day must pass CheckDisk, and each deliberately corrupted copy
// of its outputs must not. Exits 0 when every case behaves, 1 otherwise.
//
//   daybench_selftest

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "checks.h"
#include "sim/vod_simulator.h"
#include "workloads.h"

namespace {

using daybench::CheckDisk;
using daybench::CheckReport;
using daybench::DiskOutput;

struct Case {
  std::string name;
  std::function<void(vod::sim::SimMetrics*, DiskOutput*)> corrupt;
};

}  // namespace

int main() {
  const daybench::WorkloadSpec* spec = daybench::FindWorkload("day_1disk");
  // A short day: its buffer ledger sums to few enough bits that the
  // rounding the ledger check allows stays far below the one bit dropped.
  vod::sim::WorkloadConfig w = spec->workload;
  w.duration = vod::Minutes(30);
  w.peak_time = vod::Minutes(10);
  w.total_expected_arrivals = 8;
  w.max_viewing_time = vod::Minutes(10);
  w.seed = 1;
  auto generated = vod::sim::GenerateWorkload(w);
  if (!generated.ok() || generated->empty()) return 1;
  const std::vector<vod::sim::ArrivalEvent>& arrivals = generated.value();
  int bad = 0;
  for (const vod::core::ScheduleMethod method : spec->methods) {
    auto sim = vod::sim::VodSimulator::Create(daybench::DiskConfig(method, 1),
                                              nullptr);
    if (!sim.ok() || !(*sim)->AddArrivals(arrivals).ok()) return 1;
    (*sim)->RunToCompletion();
    (*sim)->Finalize();

    DiskOutput clean;
    clean.config = (*sim)->config();
    clean.routed_arrivals = static_cast<long>(arrivals.size());
    clean.span_s = vod::ToSeconds((*sim)->now());

    const std::vector<Case> cases = {
        {"clean", nullptr},
        {"allocation record off by one bit",
         [](vod::sim::SimMetrics* m, DiskOutput*) {
           auto& rec = m->allocations[m->allocations.size() / 2];
           rec.buffer_size = rec.buffer_size + vod::Bits(1.0);
         }},
        {"one released bit dropped",
         [](vod::sim::SimMetrics* m, DiskOutput*) {
           m->buffer_bits_released = m->buffer_bits_released - vod::Bits(1.0);
         }},
        {"one arrival miscounted",
         [](vod::sim::SimMetrics*, DiskOutput* out) {
           ++out->routed_arrivals;
         }},
        {"one rejection without a cause",
         [](vod::sim::SimMetrics* m, DiskOutput*) {
           ++m->rejected;
           ++m->arrivals;
         }},
        {"usage period off Eq. 8",
         [](vod::sim::SimMetrics* m, DiskOutput*) {
           auto& rec = m->allocations.front();
           rec.usage_period = rec.usage_period * 1.5;
         }},
        {"disk busy beyond the span",
         [](vod::sim::SimMetrics* m, DiskOutput* out) {
           m->disk_busy_time = vod::Seconds(out->span_s + 1.0);
         }},
    };
    for (const Case& c : cases) {
      vod::sim::SimMetrics metrics = (*sim)->metrics();
      DiskOutput out = clean;
      if (c.corrupt) c.corrupt(&metrics, &out);
      out.metrics = &metrics;
      CheckReport report;
      CheckDisk(out, &report);
      const bool want_ok = !c.corrupt;
      const bool pass = report.ok() == want_ok;
      std::cout << (pass ? "ok   " : "FAIL ")
                << vod::core::ScheduleMethodName(method) << ": " << c.name
                << (report.ok() ? " -> accepted"
                                : " -> rejected: " + report.failures[0])
                << '\n';
      if (!pass) ++bad;
    }
  }
  std::cout << (bad == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return bad == 0 ? 0 : 1;
}
