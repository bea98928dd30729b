#include "tile/gemm_runner.hpp"

#include <future>

#include "common/error.hpp"

namespace sring::tile {

void accumulate_tile(const TileSchedule& sched, const TileStep& step,
                     std::span<const Word> outputs, std::span<Word> acc) {
  const GemmSpec& spec = sched.spec;
  check(outputs.size() == GemmJobBuilder::output_words(sched),
        "tile: tile job returned an unexpected output count");
  check(acc.size() == spec.m * spec.n,
        "tile: accumulator grid size does not match m*n");
  for (std::size_t c = 0; c < spec.tile_n; ++c) {
    const std::size_t col = std::size_t{step.tj} * spec.tile_n + c;
    if (col >= spec.n) break;  // padded columns are discarded
    for (std::size_t r = 0; r < kTileM; ++r) {
      const std::size_t row = std::size_t{step.ti} * kTileM + r;
      if (row >= spec.m) break;  // padded rows are discarded
      Word& slot = acc[row * spec.n + col];
      slot = to_word(std::int64_t{as_signed(slot)} +
                     as_signed(outputs[c * kTileM + r]));
    }
  }
}

std::vector<Word> narrow_grid(const GemmSpec& spec,
                              std::span<const Word> acc) {
  check(acc.size() == spec.m * spec.n,
        "tile: accumulator grid size does not match m*n");
  std::vector<Word> out(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = narrow_readback(acc[i], spec.shift, spec.dtype);
  }
  return out;
}

GemmResult run_gemm(rt::Runtime& rt, const GemmRunConfig& cfg,
                    const GemmSpec& spec, std::span<const Word> a,
                    std::span<const Word> b) {
  GemmResult res;
  res.schedule = plan_gemm(spec, cfg.scratch_tiles);

  Scratchpad scratch(cfg.scratch_tiles);
  GemmJobBuilder builder(cfg.geometry, scratch);

  // Lowering runs in schedule order through the one scratchpad, group
  // by group, so the scratch counters do not depend on the fleet.
  const std::vector<TileStep>& steps = res.schedule.steps;
  const std::size_t per_group =
      GemmJobBuilder::group_steps(res.schedule, rt.worker_count());
  std::vector<std::future<std::vector<rt::JobResult>>> groups;
  for (std::size_t first = 0; first < steps.size(); first += per_group) {
    groups.push_back(rt.submit_group(
        builder.build_group(res.schedule, first, per_group, a, b)));
  }

  std::vector<Word> acc(spec.m * spec.n, 0);
  std::size_t step = 0;
  for (auto& group : groups) {
    for (const rt::JobResult& r : group.get()) {
      check(r.ok, "tile: tile job failed: " + r.error);
      accumulate_tile(res.schedule, steps[step++], r.outputs, acc);
      res.sim_cycles += r.report.stats.cycles;
    }
  }
  res.c = narrow_grid(spec, acc);

  res.jobs = steps.size();
  res.scratch_hits = scratch.hits();
  res.scratch_refills = scratch.refills();
  res.scratch_evictions = scratch.evictions();
  res.bytes_filled = scratch.bytes_filled();
  res.bytes_saved = scratch.bytes_saved();
  res.traffic_reduction =
      res.bytes_filled > 0
          ? static_cast<double>(res.schedule.streamed_bytes) /
                static_cast<double>(res.bytes_filled)
          : 1.0;
  return res;
}

GemmResult run_conv2d(rt::Runtime& rt, const GemmRunConfig& cfg,
                      const Conv2dSpec& spec,
                      std::span<const Word> filters,
                      std::span<const Word> image) {
  spec.validate();
  const GemmSpec gemm = spec.as_gemm();
  check(filters.size() == gemm.m * gemm.k,
        "tile: conv2d filter bank size does not match filters*kh*kw");
  const std::vector<Word> patches = im2col(spec, image);
  return run_gemm(rt, cfg, gemm, filters, patches);
}

}  // namespace sring::tile
