// DFG -> Systolic Ring mapping (the paper's §6 "compiling tool").
//
// Strategy: ASAP levelization.  Every combinational node becomes one
// Dnode; its level (= ring layer) is one past its deepest operand.
// Inputs are `pass host` Dnodes on layer 0.  Constants fold into the
// consumer's immediate field.  kDelay nodes occupy no Dnode at all:
// a delay only deepens the feedback-pipeline read of the consuming
// edge — the paper's "required delays are automatically achieved in
// [the pipelines]".
//
// Edge transport for a consumer at layer c reading a producer at
// layer p with accumulated delay k samples:
//   * c == p+1 and k == 0 : direct switch route (PREV),
//   * otherwise           : feedback read of pipe p+1 at depth
//                           c - p - 2 + k  (one sample per cycle, so
//                           layer distance and z^-k delays are the
//                           same currency).
//
// MAC fusion: a kMul whose single consumer is a kAdd (either operand)
// or a kSub (as the subtrahend) is folded into that consumer as a
// one-cycle MAC/MSU — one Dnode instead of two, exploiting the Dnode's
// chained multiplier+adder.  When the fused node would need three
// adjacent-layer operands (only two direct input ports exist), its
// layer is bumped so every operand arrives through the feedback
// pipelines; feedback reads overflow from fifo1/fifo2 into unused
// in1/in2 ports (all four ports can carry pipeline reads).
//
// The mapped design is fully pipelined: one sample per clock cycle,
// one Dnode per operator, outputs streamed with per-output latency
// equal to the producer's layer.  Feed-forward graphs only (recursive
// filters need the half-rate scheme of kernels/iir_kernel).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mapper/dfg.hpp"
#include "rt/job.hpp"
#include "sim/program.hpp"
#include "sim/stats.hpp"

namespace sring::mapper {

struct MappedOutput {
  std::string name;
  std::size_t latency = 0;    ///< cycles from sample in to value out
  std::size_t push_rank = 0;  ///< position inside a cycle's push group
};

/// Where one DFG node landed.
struct Placement {
  NodeId node = 0;
  std::size_t layer = 0;
  std::size_t lane = 0;
  std::string description;  ///< the generated microinstruction
};

struct MappedProgram {
  LoadableProgram program;
  RingGeometry geometry;
  std::size_t input_count = 0;
  std::size_t pushes_per_cycle = 0;  ///< host words emitted per cycle
  std::vector<MappedOutput> outputs; ///< in Dfg output order
  std::size_t max_latency = 0;
  std::vector<Placement> placements; ///< one per Dnode-owning node

  /// Dnodes used (for occupancy reports).
  std::size_t dnodes_used = 0;
};

/// Human-readable placement table (the profiling report of the
/// paper's §6 compiling/profiling tool).
std::string mapping_report(const MappedProgram& mapped);

/// Map a validated feed-forward DFG onto the given geometry; throws
/// SimError with a diagnostic when the graph does not fit (too many
/// layers, too many ops in a layer, feedback depth exceeded, ...).
MappedProgram map_dfg(const Dfg& dfg, const RingGeometry& geometry);

struct MappedRun {
  std::vector<std::vector<Word>> outputs;  ///< in Dfg output order
  SystemStats stats;
  double cycles_per_sample = 0.0;
};

/// One run of `mapped` over equal-length input streams as an rt::Job,
/// the one definition of a mapped program's launch: one word per
/// stream per cycle, padded by max_latency so the last sample drains,
/// run until every push group has arrived.  Outputs are the raw
/// interleaved host words; split them with delace_outputs.  The job's
/// program aliases `mapped`, sharing its lifetime.  Throws SimError
/// when the stream count differs from input_count, on ragged streams
/// and on empty ones.
rt::Job make_mapped_job(std::shared_ptr<const MappedProgram> mapped,
                        const std::vector<std::vector<Word>>& input_streams);

/// De-lace a mapped job's raw output words into per-output streams of
/// `samples` words, in Dfg output order.  Throws SimError if `raw` is
/// shorter than the program promises.
std::vector<std::vector<Word>> delace_outputs(const MappedProgram& mapped,
                                              std::span<const Word> raw,
                                              std::size_t samples);

/// Execute a mapped program over equal-length input streams: its
/// make_mapped_job on a fresh System, de-laced.
MappedRun run_mapped(const MappedProgram& mapped,
                     const std::vector<std::vector<Word>>& input_streams);

}  // namespace sring::mapper
