#include "tile/gemm_runner.hpp"

#include <algorithm>
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

GemmDriver::GemmDriver(const RingGeometry& geometry,
                       std::shared_ptr<const TileSchedule> sched,
                       std::vector<Word> a, std::vector<Word> b)
    : sched_(std::move(sched)),
      a_(std::move(a)),
      b_(std::move(b)),
      scratch_(sched_->scratch_capacity),
      builder_(geometry, scratch_),
      acc_(sched_->spec.m * sched_->spec.n, 0) {}

std::vector<rt::Job> GemmDriver::lower_group(std::size_t workers) {
  const std::size_t end =
      std::min(sched_->steps.size(),
               next_ + GemmJobBuilder::group_steps(*sched_, workers));
  std::vector<rt::Job> jobs;
  jobs.reserve(end - next_);
  for (; next_ < end; ++next_) {
    jobs.push_back(builder_.build(*sched_, sched_->steps[next_], a_, b_));
  }
  return jobs;
}

void GemmDriver::fold(std::size_t first,
                      const std::vector<rt::JobResult>& results) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    const rt::JobResult& r = results[i];
    rt::add_to_record(totals_, r);
    if (failed_) continue;
    if (!r.ok) {
      fail(r.error);
      continue;
    }
    try {
      accumulate_tile(*sched_, sched_->steps[first + i], r.outputs, acc_);
    } catch (const SimError& e) {
      fail(e.what());
      continue;
    }
    any_reused_ = any_reused_ || r.reused_system;
  }
}

void GemmDriver::fail(std::string why) {
  if (!failed_) error_ = std::move(why);
  failed_ = true;
}

std::vector<Word> GemmDriver::result() const {
  return narrow_grid(sched_->spec, acc_);
}

GemmDriver::Counters GemmDriver::reply_counters() const {
  Counters out{{"sim.cycles", totals_.sim_cycles},
               {"tile.jobs", sched_->steps.size()}};
  const auto values = scratch_.counters();
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.emplace_back(Scratchpad::kCounterNames[i], values[i]);
  }
  out.emplace_back("tile.streamed_bytes", sched_->streamed_bytes);
  return out;
}

GemmResult run_gemm(rt::Runtime& rt, const GemmRunConfig& cfg,
                    const GemmSpec& spec, std::span<const Word> a,
                    std::span<const Word> b) {
  GemmDriver driver(
      cfg.geometry,
      std::make_shared<const TileSchedule>(plan_gemm(spec, cfg.scratch_tiles)),
      {a.begin(), a.end()}, {b.begin(), b.end()});

  std::vector<std::pair<std::size_t, std::future<std::vector<rt::JobResult>>>>
      groups;
  while (!driver.lowered_all()) {
    const std::size_t first = driver.next_step();
    groups.emplace_back(first,
                        rt.submit_group(driver.lower_group(rt.worker_count())));
  }
  for (auto& [first, group] : groups) {
    driver.fold(first, group.get());
    if (driver.failed()) {
      throw SimError("tile: tile job failed: " + driver.error());
    }
  }

  GemmResult res;
  res.c = driver.result();
  res.schedule = driver.schedule();
  res.jobs = res.schedule.steps.size();
  res.sim_cycles = driver.totals().sim_cycles;
  const Scratchpad& scratch = driver.scratch();
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
  res.counters = driver.reply_counters();
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
