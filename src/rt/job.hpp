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
// bit-identical regardless of worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "sim/host_interface.hpp"
#include "sim/program.hpp"
#include "sim/report.hpp"

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
  /// to strip pipeline warm-up exactly like their run_* helpers do.
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

}  // namespace sring::rt
