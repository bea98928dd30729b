#include "kernels/jobs.hpp"

#include "common/error.hpp"
#include "kernels/dwt_kernel.hpp"
#include "kernels/fir_kernel.hpp"
#include "kernels/matvec_kernel.hpp"
#include "kernels/motion_estimation.hpp"

namespace sring::kernels {

rt::Job make_spatial_fir_job(
    const RingGeometry& g, std::span<const Word> x,
    std::span<const Word> coeffs,
    std::shared_ptr<const LoadableProgram> program) {
  const std::size_t taps = coeffs.size();
  rt::Job job;
  job.name = "fir.spatial";
  job.program = program != nullptr
                    ? std::move(program)
                    : std::make_shared<const LoadableProgram>(
                          make_spatial_fir_program(g, coeffs));

  // x plus `taps` flush zeros in; the first `taps` received words are
  // pipeline warm-up (zero history).
  job.input.assign(x.begin(), x.end());
  job.input.insert(job.input.end(), taps, 0);
  job.run = rt::Job::Run::kUntilOutputs;
  job.expected_outputs = x.size() + taps;
  job.max_cycles = 64 + 16 * job.input.size();
  job.discard_prefix = taps;
  job.take_words = x.size();
  return job;
}

rt::Job make_motion_estimation_job(
    const RingGeometry& g, const Image& ref, std::size_t rx, std::size_t ry,
    const Image& cand, int range,
    std::shared_ptr<const LoadableProgram> program) {
  const std::size_t n = dsp::kBlockSize;
  const std::size_t units = g.layers;
  const auto disp = sad_displacements(range);
  const std::size_t batches = (disp.size() + units - 1) / units;

  rt::Job job;
  job.name = "motion_estimation";
  job.program = program != nullptr
                    ? std::move(program)
                    : std::make_shared<const LoadableProgram>(
                          make_sad_engine_program(g, n * n, batches));

  job.input = make_sad_feed(ref, rx, ry, cand, disp, units, n);
  job.run = rt::Job::Run::kUntilHalt;
  job.max_cycles = batches * (n * n + 16) + 1000;
  job.drain_cycles = 2;
  job.take_words = disp.size();
  return job;
}

dsp::MotionVector best_motion_vector(std::span<const Word> sads,
                                     int range) {
  const auto disp = sad_displacements(range);
  check(sads.size() >= disp.size(),
        "best_motion_vector: fewer SADs than candidates");
  dsp::MotionVector best;
  bool first = true;
  for (std::size_t c = 0; c < disp.size(); ++c) {
    if (first || sads[c] < best.sad) {
      best = {disp[c].first, disp[c].second, sads[c]};
      first = false;
    }
  }
  return best;
}

rt::Job make_dwt53_job(const RingGeometry& g, std::span<const Word> x,
                       std::shared_ptr<const LoadableProgram> program) {
  rt::Job job;
  job.name = "dwt53";
  job.program = program != nullptr
                    ? std::move(program)
                    : std::make_shared<const LoadableProgram>(
                          make_dwt53_program(g));

  job.input = make_dwt53_feed(x);
  job.run = rt::Job::Run::kUntilOutputs;
  job.expected_outputs = dwt53_output_words(x.size() / 2);
  job.max_cycles = 64 + 8 * job.input.size();
  return job;
}

rt::Job make_matvec8_job(const RingGeometry& g, const dsp::Matrix8& m,
                         std::span<const Word> x,
                         std::shared_ptr<const LoadableProgram> program) {
  check(x.size() % dsp::kMatvecN == 0 && !x.empty(),
        "make_matvec8_job: length must be a positive multiple of 8");
  const std::size_t blocks = x.size() / dsp::kMatvecN;

  rt::Job job;
  job.name = "matvec8";
  job.program = program != nullptr
                    ? std::move(program)
                    : std::make_shared<const LoadableProgram>(
                          make_matvec8_program(g, m, blocks));

  job.input.assign(x.begin(), x.end());
  job.run = rt::Job::Run::kUntilHalt;
  job.max_cycles = 64 + 40 * x.size();
  job.drain_cycles = 2;
  job.take_words = blocks * dsp::kMatvecN;
  return job;
}

}  // namespace sring::kernels
