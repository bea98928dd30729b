// Block matrix-vector kernel: y = M x on 8-sample blocks, M an 8x8
// constant matrix — with the Q7 DCT matrix this is the 8-point DCT
// engine the paper's introduction motivates (JPEG/MPEG core).
//
// Mapping: eight Dnodes (one per output row) listen to the shared bus;
// the controller broadcasts one block element per cycle (INPOP + BUSW)
// and pulses a per-element configuration page so every Dnode
// multiply-accumulates its own row coefficient — a "sequential
// synthesized datapath" in the paper's terms (hardware multiplexing of
// one MAC per row across the 8 columns).  Element 0 clears the
// accumulators; element 7 emits all eight dot products.
//
// Controller-timed: the input FIFO must be pre-filled.
#pragma once

#include <span>
#include <vector>

#include "dsp/matvec.hpp"
#include "sim/program.hpp"
#include "sim/stats.hpp"

namespace sring::kernels {

/// Build the engine for `blocks` 8-sample blocks (needs >= 8 Dnodes).
LoadableProgram make_matvec8_program(const RingGeometry& g,
                                     const dsp::Matrix8& m,
                                     std::size_t blocks);

/// Rewrite the matrix of a make_matvec8_program() program in place:
/// only the 64 MAC immediates of its element pages change, so the
/// result equals make_matvec8_program(g, m, blocks) and keeps the
/// structure a pooled System re-arms from.
void set_matvec8_matrix(LoadableProgram& program, const dsp::Matrix8& m);

struct MatvecResult {
  std::vector<Word> outputs;  ///< 8 words per input block
  SystemStats stats;
  double cycles_per_block = 0.0;
};

/// Run y = M x over consecutive blocks of `x` (multiple of 8 samples).
MatvecResult run_block_matvec8(const RingGeometry& g, const dsp::Matrix8& m,
                               std::span<const Word> x);

}  // namespace sring::kernels
