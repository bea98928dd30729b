// Seeded request generation for the served-path benchmark.
//
// A workload is a fixed traffic shape (connections x window, closed
// loop) plus a pool of requests generated from the run's seed.  The
// program never sees the seed: it receives only the encoded frames.
// Every request carries the exact reply words it must produce,
// computed locally through the repository's own reference paths
// before any timing starts:
//   kernel jobs        rt::Runtime (the same job descriptors, locally)
//   DFG jobs           mapper::run_mapped over mapper::map_dfg
//   tiled GEMMs        tile::gemm_reference
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace perfbench {

using sring::Word;

/// The four request shapes the generator sends.
enum class Kind : std::uint8_t { kJob, kDfgJob, kGemm, kBatch };

struct Request {
  Kind kind = Kind::kJob;

  // The typed message, selected by `kind`.  make_workload clears all
  // but `batch` once the frame is encoded and the reference computed;
  // a batch keeps its jobs for re-submitting busy-shed entries.
  sring::net::JobRequest job;
  sring::net::SubmitDfgJobMsg dfg;
  sring::net::SubmitGemmMsg gemm;
  sring::net::SubmitJobBatchMsg batch;

  /// Reply words expected from the program: one entry for single
  /// requests (DFG streams concatenated in output order, GEMM C
  /// row-major), one per job for batches.
  std::vector<std::vector<Word>> expected;

  /// The complete request frame (header, payload, CRC), encoded at
  /// `tag` with the public codec.
  std::vector<std::uint8_t> frame;
  std::uint32_t tag = 0;
};

struct Workload {
  std::string name;
  std::size_t connections = 1;
  std::size_t window = 1;
  /// true: the pool is replayed cyclically (programs repeat, caches
  /// hit); false: every request is sent once, so each carries content
  /// the server has never seen.
  bool cyclic = true;
  std::vector<Request> pool;
  /// One request of each kind from a held-out seed: the set-up pass.
  std::vector<Request> warmup;
};

/// Build a workload's pools from `seed` and compute every reference.
/// `fresh_requests` sizes the pool of a non-cyclic workload (ignored
/// for cyclic ones).  Throws sring::SimError on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t fresh_requests);

}  // namespace perfbench
