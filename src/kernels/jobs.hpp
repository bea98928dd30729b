// Kernel job descriptors: each served DSP kernel as an rt::Job, the
// one definition of its launch.
//
// A descriptor packages the LoadableProgram, the host feed (warm-up,
// signal, flush), the run policy and the output slice that strips
// pipeline warm-up.  The fleet runs it on a pooled System and the
// kernel's local run_* helper runs it on a fresh one, both through
// rt::run_on, so the feed, budget, stop rule and slice are written
// only here.  Descriptors accept an optional pre-built shared program
// so a whole batch references a single build.  Jobs of one kernel
// share a program structure whatever their taps or matrix, so the
// runtime's SystemPool re-arms between them instead of reloading —
// the fleet-level form of the paper's preloaded configuration pages.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/image.hpp"
#include "dsp/matvec.hpp"
#include "dsp/sad.hpp"
#include "rt/job.hpp"
#include "sim/program.hpp"

namespace sring::kernels {

/// Spatial systolic FIR over `x` (outputs y[n] per sample, warm-up
/// stripped; run_spatial_fir runs this job).
/// `program` must be make_spatial_fir_program(g, coeffs) when given.
rt::Job make_spatial_fir_job(
    const RingGeometry& g, std::span<const Word> x,
    std::span<const Word> coeffs,
    std::shared_ptr<const LoadableProgram> program = nullptr);

/// Full-search block motion estimation: outputs one SAD word per
/// candidate displacement in row-major (dy, dx) order
/// (run_motion_estimation runs this job).  `program` must be the SAD
/// engine for (g, 64, batches(range, g.layers)) when given.
rt::Job make_motion_estimation_job(
    const RingGeometry& g, const Image& ref, std::size_t rx, std::size_t ry,
    const Image& cand, int range,
    std::shared_ptr<const LoadableProgram> program = nullptr);

/// Pick the best motion vector from a motion-estimation job's outputs
/// (first-wins ties, same order as run_motion_estimation).
dsp::MotionVector best_motion_vector(std::span<const Word> sads, int range);

/// Forward 1-D 5/3 wavelet over an even-length `x`: raw interleaved
/// output stream; decode with dwt53_bands_from_raw(outputs, x.size()/2).
/// The program depends only on the geometry, so DWT batches reuse
/// pooled Systems maximally.
rt::Job make_dwt53_job(
    const RingGeometry& g, std::span<const Word> x,
    std::shared_ptr<const LoadableProgram> program = nullptr);

/// Block matrix-vector product y = M x over consecutive 8-sample
/// blocks of `x`: outputs 8 words per block (run_block_matvec8 runs
/// this job).  `program` must match (g, m, x.size()/8) when
/// given.
rt::Job make_matvec8_job(
    const RingGeometry& g, const dsp::Matrix8& m, std::span<const Word> x,
    std::shared_ptr<const LoadableProgram> program = nullptr);

}  // namespace sring::kernels
