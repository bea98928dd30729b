#include "rt/job.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/system.hpp"

namespace sring::rt {

std::vector<Word> run_on(System& sys, const Job& job) {
  sys.host().send(job.input);
  if (job.run == Job::Run::kUntilOutputs) {
    sys.run_until_outputs(job.expected_outputs, job.max_cycles);
  } else {
    sys.run_until_halt(job.max_cycles, job.drain_cycles);
  }

  // A fresh, exactly sized vector: callers keep outputs (expected
  // results, batch replies), and the host buffer's slack would stay
  // with them.
  const std::vector<Word> raw = sys.host().take_received();
  if (raw.size() < job.discard_prefix + job.take_words) [[unlikely]] {
    throw SimError("rt job '" + job.name + "': fewer outputs than requested");
  }
  const auto first =
      raw.begin() + static_cast<std::ptrdiff_t>(job.discard_prefix);
  return {first, job.take_words == 0
                     ? raw.end()
                     : first + static_cast<std::ptrdiff_t>(job.take_words)};
}

void add_to_record(obs::SpanRecord& rec, const JobResult& result) {
  const auto add = [](std::uint32_t& sum, std::uint64_t us) {
    sum = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::uint64_t{sum} + us, UINT32_MAX));
  };
  add(rec.queue_wait_us, result.timeline.queue_wait_us());
  add(rec.arm_us, result.timeline.arm_us());
  add(rec.execute_us, result.timeline.execute_us());
  rec.sim_cycles += result.report.stats.cycles;
  rec.plan_hits += result.report.stats.plan_hits;
  rec.superstep_cycles +=
      result.report.metrics.value(RingMetrics::kSuperstepCycles);
  rec.worker = static_cast<std::uint32_t>(result.worker);
}

}  // namespace sring::rt
