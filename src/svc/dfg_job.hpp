// Compiled-DFG jobs for the batch runtime — tentpole (d) of the
// compile service: once a graph is compiled and cached, its jobs flow
// through the existing worker fleet, superstep engine and telemetry
// spans exactly like the named kernels do.
//
// Both functions are thin wrappers over the mapper's one job builder
// and de-lacer (mapper::make_mapped_job, mapper::delace_outputs),
// which mapper::run_mapped runs too, so a DFG job executed by
// rt::Runtime is bit-identical to a local run_mapped call — the
// loopback acceptance test holds exactly that.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "rt/job.hpp"
#include "svc/compile_service.hpp"

namespace sring::svc {

/// Package a compiled DFG over equal-length input streams as an
/// rt::Job.  The job shares `compiled` (aliasing pointer into its
/// MappedProgram — no program copy); jobs of the same graph share its
/// structure, so the SystemPool re-arms instead of reloading between
/// them.  Outputs are the *raw* interleaved host words; split
/// them with delace_outputs.  Throws SimError on stream mismatch; the
/// job is named "dfg/<hash>".
rt::Job make_dfg_job(const std::shared_ptr<const CompiledDfg>& compiled,
                     const std::vector<std::vector<Word>>& input_streams);

/// De-lace a finished DFG job's raw output words into per-output
/// streams of `samples` words, in Dfg output order (bit-identical to
/// mapper::run_mapped).  Throws SimError if `raw` is too short.
std::vector<std::vector<Word>> delace_outputs(const CompiledDfg& compiled,
                                              std::span<const Word> raw,
                                              std::size_t samples);

}  // namespace sring::svc
