// Batch-execution job model.
//
// The paper deploys the Systolic Ring as an IP core serving a host SoC
// (§3, fig. 2); the runtime generalizes that to a *fleet* of ring
// instances executing a stream of independent kernel jobs.  A Job is
// everything the paper's host hands the core for one kernel launch:
// the configware + management code (LoadableProgram), the input word
// stream, and the run policy (halt- or output-bounded).  A JobResult
// is what comes back: the raw host output words plus the per-run
// RunReport.
//
// Jobs are value types — each one runs on a private System owned by
// exactly one worker thread, which is what makes per-job results
// bit-identical regardless of worker count.  run_on() is the one job
// executor: the fleet's workers and every local kernel helper
// (kernels::run_*, mapper::run_mapped) run their jobs through it, so a
// kernel's feed, budget, stop rule and output slice exist only in its
// job builder.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "sim/host_interface.hpp"
#include "sim/program.hpp"
#include "sim/report.hpp"

namespace sring {
class System;
namespace obs {
struct SpanRecord;
}
}  // namespace sring

namespace sring::rt {

struct Job {
  /// Run policy: halt-bounded programs stop at HALT (+ drain cycles);
  /// output-bounded ones stop once `expected_outputs` host words
  /// arrived.
  enum class Run : std::uint8_t { kUntilHalt = 0, kUntilOutputs };

  std::string name;  ///< job label; becomes the RunReport name

  /// The program, shared so a whole batch references one build, and
  /// never modified while a Job holds it.  The pool re-arms a resident
  /// System whose program has the same structure (content compared),
  /// and skips the compare when this is the very object that System
  /// was last armed from.
  std::shared_ptr<const LoadableProgram> program;

  std::vector<Word> input;  ///< words sent to the host FIFO before the run

  Run run = Run::kUntilHalt;
  std::size_t expected_outputs = 0;   ///< kUntilOutputs stop condition
  std::uint64_t max_cycles = 1'000'000;
  std::uint64_t drain_cycles = 0;     ///< kUntilHalt post-halt cycles

  /// Output slicing: drop `discard_prefix` warm-up words, then keep
  /// `take_words` words (0 = everything remaining).  Kernels use this
  /// to strip pipeline warm-up.
  std::size_t discard_prefix = 0;
  std::size_t take_words = 0;

  LinkRate link = LinkRate::unlimited();  ///< host-link model for the run

  /// Caller-chosen correlation id, echoed through JobResult (and, for
  /// remote jobs, the wire) so a request can be matched to its span
  /// timeline and flight-recorder entry.  0 = untraced.
  std::uint64_t trace_id = 0;
};

struct JobResult {
  bool ok = false;
  std::string error;          ///< SimError text when !ok
  std::vector<Word> outputs;  ///< sliced host output words
  RunReport report;           ///< full per-run record (deterministic)

  // Execution provenance — the only fields allowed to differ between
  // runs of the same batch at different worker counts.
  std::size_t worker = 0;        ///< worker index that ran the job
  bool reused_system = false;    ///< pooled System re-armed, no reload
  std::uint64_t trace_id = 0;    ///< Job::trace_id, echoed back
  obs::SpanTimeline timeline;    ///< wall-clock spans (empty if disabled)
};

/// Run `job` on `sys`, which must be armed with `job.program`: send
/// the input, run under the job's policy, and return the host output
/// words sliced by discard_prefix / take_words.  Throws SimError when
/// the run overruns its budget or leaves too few words to slice.
std::vector<Word> run_on(System& sys, const Job& job);

/// Add `result`'s ring totals (sim cycles, plan hits, superstep
/// cycles) and its phases to the flight record `rec`, saturating, and
/// make its worker the record's: a single job's record, or the sum
/// over a GEMM's tiles.
void add_to_record(obs::SpanRecord& rec, const JobResult& result);

}  // namespace sring::rt
