// Traced per-layer replay.
//
// Replays a workload's requests on one thread through each layer's
// public functions, in the order the served path calls them:
//   net codec        try_parse_frame + decode_* / make_job_result_msg +
//                    encode_* + append_frame
//   kernels          net::to_rt_job
//   svc + mapper     CompileService::get_or_compile, make_dfg_job,
//                    delace_outputs
//   rt               SystemPool::acquire (arm), RunReport::from_system
//   sim/core/ctrl    host send + run_until_* + take_received (execute)
//   tile             PlanCache::get_or_plan, GemmJobBuilder::build,
//                    accumulate_tile, narrow_grid
// Each call is wrapped in a span (name, start, end, parent, request
// id) kept in memory.  A layer's self time is its span minus the part
// its child spans cover.  Passes alternate with span recording off and
// on; the difference is the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Figures of the untraced served loop of a traced run: the wall-clock
/// ones are reported as they were measured, and the mean latency is
/// the e2e side of the accounting.
struct ServedFigures {
  double requests_per_s = 0.0;
  double mean_us = 0.0;         ///< client-measured send -> checked reply
  double p50_us = 0.0;
  double p99_us = 0.0;
  double busy_steal_share = 0.0;
  double queue_wait_us = 0.0;   ///< server rt.latency.queue_wait_us mean
  double deferred_ratio = 0.0;  ///< net.admission delayed / admitted
};

struct ReplayReport {
  std::uint64_t attempted = 0;
  std::uint64_t mismatched = 0;  ///< replayed requests whose outputs differed
  std::vector<Metric> metrics;  ///< every per-layer metric, by name
};

/// Replay `w` for about `seconds` (at least one off/on pair of passes).
/// Prints the accounting line; when `spans_path` is non-empty the
/// spans of every traced pass are written there as JSON lines.
ReplayReport replay(const Workload& w, double seconds,
                    const ServedFigures& served,
                    const std::string& spans_path);

}  // namespace perfbench
