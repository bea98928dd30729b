#include "workload.hpp"

#include <array>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/image.hpp"
#include "common/rng.hpp"
#include "mapper/dfg.hpp"
#include "mapper/mapper.hpp"
#include "rt/runtime.hpp"
#include "svc/dfg_codec.hpp"
#include "tile/gemm_ref.hpp"

namespace perfbench {

using namespace sring;

namespace {

constexpr RingGeometry kGeom{8, 2, 16};

/// Held-out seed for the set-up pass: never equal to a run seed's own
/// data stream, so warm-up replies cannot pre-answer timed requests.
constexpr std::uint64_t kWarmupSalt = 0x5E7A'C0DE'0F0F'1234ull;

std::vector<Word> signal(Rng& rng, std::size_t n, std::int32_t lo,
                         std::int32_t hi) {
  std::vector<Word> out(n);
  for (auto& w : out) w = rng.next_word_in(lo, hi);
  return out;
}

/// taps+1 layers must fit the 8-layer ring: 3..7 taps.
std::vector<Word> fir_coeffs(Rng& rng, std::size_t taps) {
  return signal(rng, taps, -16, 16);
}

/// `kinds` repeated `each` times in a seeded order: a pool whose cost
/// does not depend on the seed, only its data and order do.
std::vector<std::size_t> balanced_order(Rng& rng, std::size_t kinds,
                                        std::size_t each) {
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < kinds; ++k) order.insert(order.end(), each, k);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

std::vector<Word> matvec_matrix(Rng& rng) { return signal(rng, 64, -32, 31); }

/// A small feed-forward graph that fits the 8x2 ring: one or two
/// inputs on layer 0, then 2..5 levels of one or two binary ops, each
/// reading the level just above (so ASAP puts it on the next layer)
/// and a constant, a delayed input or any earlier node.  Graphs the
/// mapper cannot place (MAC-fusion layer bumps past the ring) are
/// redrawn, so the workload never asks for an impossible compile.
///
/// Delays tap input streams only.  A delayed tap of a computed node
/// whose output is non-zero on zero input (e.g. `a = x + 1`, then
/// `a xor delay(a, 1)`) maps to a program whose first samples differ
/// from interpret_dfg (the pipeline holds the node's pre-start value,
/// the golden model holds 0), so the compile service rejects it.
mapper::Dfg random_dfg(Rng& rng) {
  using mapper::DfgOp;
  static constexpr std::array<DfgOp, 9> kOps = {
      DfgOp::kAdd, DfgOp::kSub, DfgOp::kMul, DfgOp::kAbsdiff, DfgOp::kMin,
      DfgOp::kMax, DfgOp::kAnd, DfgOp::kOr,  DfgOp::kXor};
  while (true) {
    mapper::Dfg g;
    std::vector<std::vector<mapper::NodeId>> levels(1);
    const std::size_t inputs = 1 + rng.next_below(2);
    for (std::size_t i = 0; i < inputs; ++i) {
      levels[0].push_back(g.add_input("x" + std::to_string(i)));
    }
    const std::size_t depth = 2 + rng.next_below(4);
    for (std::size_t l = 1; l <= depth; ++l) {
      levels.emplace_back();
      const std::size_t width = 1 + rng.next_below(2);
      for (std::size_t w = 0; w < width; ++w) {
        const auto& above = levels[l - 1];
        const mapper::NodeId a = above[rng.next_below(above.size())];
        mapper::NodeId b = 0;
        switch (rng.next_below(3)) {
          case 0:
            b = g.add_const(rng.next_word_in(-64, 64));
            break;
          case 1:
            b = g.add_delay(levels[0][rng.next_below(levels[0].size())],
                            1 + static_cast<unsigned>(rng.next_below(3)));
            break;
          default: {
            const auto& earlier = levels[rng.next_below(l)];
            b = earlier[rng.next_below(earlier.size())];
            break;
          }
        }
        const DfgOp op = kOps[rng.next_below(kOps.size())];
        levels[l].push_back(g.add_binary(op, a, b));
      }
    }
    for (const mapper::NodeId out : levels.back()) g.mark_output(out);
    try {
      mapper::map_dfg(g, kGeom);
      return g;
    } catch (const SimError&) {
      // Did not fit the ring; draw the next graph.
    }
  }
}

Request kernel_request(net::KernelId kernel) {
  Request r;
  r.kind = Kind::kJob;
  r.job.kernel = kernel;
  r.job.geometry = kGeom;
  return r;
}

Request fir_request(const std::vector<Word>& coeffs, std::vector<Word> x) {
  Request r = kernel_request(net::KernelId::kFir);
  r.job.fir_coeffs = coeffs;
  r.job.input = std::move(x);
  return r;
}

Request dwt_request(std::vector<Word> x) {
  Request r = kernel_request(net::KernelId::kDwt53);
  r.job.input = std::move(x);
  return r;
}

Request matvec_request(const std::vector<Word>& m, std::vector<Word> x) {
  Request r = kernel_request(net::KernelId::kMatvec8);
  r.job.matvec_m = m;
  r.job.input = std::move(x);
  return r;
}

Request me_request(Rng& rng) {
  Request r = kernel_request(net::KernelId::kMotionEstimation);
  r.job.me_ref = Image::synthetic(16, 16, rng.next_u64());
  const int dx = static_cast<int>(rng.next_below(5)) - 2;
  const int dy = static_cast<int>(rng.next_below(5)) - 2;
  r.job.me_cand = Image::shifted(r.job.me_ref, dx, dy, rng.next_u64(), 2);
  r.job.me_rx = 4;
  r.job.me_ry = 4;
  r.job.me_range = 2;
  return r;
}

/// A DFG job over `graph` with `samples` words per input stream.
Request dfg_request(const mapper::Dfg& graph,
                    const std::vector<std::uint8_t>& blob, Rng& rng,
                    std::size_t samples) {
  Request r;
  r.kind = Kind::kDfgJob;
  r.dfg.geometry = kGeom;
  r.dfg.dfg = blob;
  for (std::size_t i = 0; i < graph.inputs().size(); ++i) {
    r.dfg.streams.push_back(signal(rng, samples, -150, 150));
  }
  return r;
}

Request gemm_request(const tile::GemmSpec& spec, Rng& rng) {
  Request r;
  r.kind = Kind::kGemm;
  r.gemm.geometry = kGeom;
  r.gemm.spec = spec;
  r.gemm.a = tile::random_operand(spec.m * spec.k, spec.dtype, rng.next_u64());
  r.gemm.b = tile::random_operand(spec.k * spec.n, spec.dtype, rng.next_u64());
  return r;
}

// --- the per-workload program sets -----------------------------------

/// Programs of a cyclic workload, drawn once from the run seed; the
/// data of each request comes from a separate stream, so the set-up
/// pass (held-out data) warms exactly the programs the timed phase
/// uses.
struct Programs {
  std::vector<Word> fir;
  std::vector<Word> matrix;
  mapper::Dfg graph;
  std::vector<std::uint8_t> blob;

  explicit Programs(std::uint64_t seed) {
    Rng rng(seed);
    fir = fir_coeffs(rng, 5);
    matrix = matvec_matrix(rng);
    graph = random_dfg(rng);
    blob = svc::encode_dfg(graph);
  }
};

Request small_request(const Programs& p, Rng& rng, std::size_t kind) {
  switch (kind) {
    case 0:
      return fir_request(p.fir, signal(rng, 256, -128, 127));
    case 1:
      return me_request(rng);
    case 2:
      return dwt_request(signal(rng, 256, -128, 127));
    case 3:
      return matvec_request(p.matrix, signal(rng, 64, -64, 63));
    default:
      return dfg_request(p.graph, p.blob, rng, 64);
  }
}

void serve_small(Workload& w, std::uint64_t seed) {
  w.connections = 4;
  w.window = 4;
  const Programs p(seed);
  Rng data(seed + 1);
  for (const std::size_t kind : balanced_order(data, 5, 100)) {
    w.pool.push_back(small_request(p, data, kind));
  }
  Rng held(seed ^ kWarmupSalt);
  for (std::size_t kind = 0; kind < 5; ++kind) {
    w.warmup.push_back(small_request(p, held, kind));
  }
}

/// Long requests, kind = 8 * shape + step: fir and dwt53 over
/// 8k + step * 1k words, matvec8 over 8k or 16k words (the matvec8
/// program is baked per block count; two lengths keep the working set
/// at four programs, inside the per-worker pool).
Request long_request(const Programs& p, Rng& rng, std::size_t kind) {
  const std::size_t step = kind % 8;
  const std::size_t length = 8192 + 1024 * step;
  switch (kind / 8) {
    case 0:
      return fir_request(p.fir, signal(rng, length, -128, 127));
    case 1:
      return dwt_request(signal(rng, length, -128, 127));
    default:
      return matvec_request(p.matrix,
                            signal(rng, step < 4 ? 8192 : 16384, -64, 63));
  }
}

void stream_long(Workload& w, std::uint64_t seed) {
  w.connections = 2;
  w.window = 1;
  const Programs p(seed);
  Rng data(seed + 1);
  for (const std::size_t kind : balanced_order(data, 24, 1)) {
    w.pool.push_back(long_request(p, data, kind));
  }
  Rng held(seed ^ kWarmupSalt);
  for (const std::size_t kind : {0, 8, 16, 20}) {
    w.warmup.push_back(long_request(p, held, kind));
  }
}

tile::GemmSpec gemm_spec(std::size_t m, std::size_t k, std::size_t n,
                         tile::Mapping mapping) {
  tile::GemmSpec s;
  s.m = m;
  s.k = k;
  s.n = n;
  s.dtype = tile::Dtype::kInt8;
  s.shift = 7;
  s.mapping = mapping;
  return s;
}

Request fanout_request(const Programs& p, Rng& rng, std::size_t kind) {
  switch (kind) {
    case 0:
      return gemm_request(
          gemm_spec(32, 32, 32, tile::Mapping::kOutputStationary), rng);
    case 1:
      // Ragged in every dimension: 5 x 3 x 7 tiles, padded edges.
      return gemm_request(
          gemm_spec(40, 24, 56, tile::Mapping::kWeightStationary), rng);
    default: {
      Request r;
      r.kind = Kind::kBatch;
      // The first 64 of a 22-each shuffle of fir / dwt53 / matvec8.
      const std::vector<std::size_t> kinds = balanced_order(rng, 3, 22);
      for (std::uint32_t i = 0; i < 64; ++i) {
        Request job;
        switch (kinds[i]) {
          case 0:
            job = fir_request(p.fir, signal(rng, 32, -128, 127));
            break;
          case 1:
            job = dwt_request(signal(rng, 32, -128, 127));
            break;
          default:
            job = matvec_request(p.matrix, signal(rng, 16, -64, 63));
            break;
        }
        job.job.tag = i + 1;
        r.batch.jobs.push_back(std::move(job.job));
      }
      return r;
    }
  }
}

void fanout(Workload& w, std::uint64_t seed) {
  w.connections = 2;
  w.window = 1;
  const Programs p(seed);
  Rng data(seed + 1);
  for (std::size_t i = 0; i < 24; ++i) {
    w.pool.push_back(fanout_request(p, data, i % 3));
  }
  Rng held(seed ^ kWarmupSalt);
  for (std::size_t kind = 0; kind < 3; ++kind) {
    w.warmup.push_back(fanout_request(p, held, kind));
  }
}

/// Fresh program content for every request: FIR coefficient sets,
/// matvec matrices and DFGs never repeat within a run, set-up included.
class ChurnSource {
 public:
  Request next(Rng& rng, std::size_t kind) {
    switch (kind) {
      case 0: {
        std::vector<Word> c;
        do c = fir_coeffs(rng, 3 + rng.next_below(5));
        while (!firs_.insert(c).second);
        return fir_request(c, signal(rng, 256, -128, 127));
      }
      case 1: {
        std::vector<Word> m;
        do m = matvec_matrix(rng);
        while (!matrices_.insert(m).second);
        return matvec_request(m, signal(rng, 64, -64, 63));
      }
      default: {
        mapper::Dfg g;
        std::vector<std::uint8_t> blob;
        do {
          g = random_dfg(rng);
          blob = svc::encode_dfg(g);
        } while (!graphs_.insert(svc::dfg_hash(blob)).second);
        return dfg_request(g, blob, rng, 64);
      }
    }
  }

 private:
  std::set<std::vector<Word>> firs_;
  std::set<std::vector<Word>> matrices_;
  std::set<std::uint64_t> graphs_;
};

void cold_churn(Workload& w, std::uint64_t seed, std::size_t count) {
  w.connections = 2;
  w.window = 2;
  w.cyclic = false;
  ChurnSource source;
  Rng held(seed ^ kWarmupSalt);
  for (std::size_t kind = 0; kind < 3; ++kind) {
    w.warmup.push_back(source.next(held, kind));
  }
  Rng data(seed);
  for (std::size_t i = 0; i < count; ++i) {
    w.pool.push_back(source.next(data, data.next_below(3)));
  }
}

// --- references -------------------------------------------------------

std::vector<Word> concat(const std::vector<std::vector<Word>>& streams) {
  std::vector<Word> out;
  for (const auto& s : streams) out.insert(out.end(), s.begin(), s.end());
  return out;
}

/// Fill `expected` of every request.  Kernel jobs (single or batch
/// entries) run through a local rt::Runtime, a bounded chunk at a time
/// so the full RunReports of a large one-shot pool never coexist.
void compute_references(const std::vector<Request*>& reqs) {
  constexpr std::size_t kChunk = 256;
  rt::RuntimeConfig cfg;
  cfg.workers = 2;
  rt::Runtime runtime(cfg);
  std::vector<rt::Job> jobs;
  std::vector<std::pair<Request*, std::size_t>> slots;
  const auto flush = [&] {
    std::vector<rt::JobResult> results = runtime.submit_batch(std::move(jobs));
    for (std::size_t i = 0; i < results.size(); ++i) {
      check(results[i].ok, "perfbench: reference job failed: " + results[i].error);
      slots[i].first->expected[slots[i].second] = std::move(results[i].outputs);
    }
    jobs.clear();
    slots.clear();
  };
  const auto add_job = [&](Request* r, std::size_t slot, const net::JobRequest& jr) {
    jobs.push_back(net::to_rt_job(jr));
    slots.emplace_back(r, slot);
    if (jobs.size() >= kChunk) flush();
  };
  for (Request* r : reqs) {
    switch (r->kind) {
      case Kind::kJob:
        r->expected.resize(1);
        add_job(r, 0, r->job);
        break;
      case Kind::kBatch:
        r->expected.resize(r->batch.jobs.size());
        for (std::size_t i = 0; i < r->batch.jobs.size(); ++i) {
          add_job(r, i, r->batch.jobs[i]);
        }
        break;
      case Kind::kDfgJob: {
        const mapper::Dfg g = svc::decode_dfg(r->dfg.dfg);
        const mapper::MappedProgram mapped = mapper::map_dfg(g, kGeom);
        r->expected = {concat(mapper::run_mapped(mapped, r->dfg.streams).outputs)};
        break;
      }
      case Kind::kGemm:
        r->expected = {
            tile::gemm_reference(r->gemm.spec, r->gemm.a, r->gemm.b)};
        break;
    }
  }
  flush();
}

/// The complete request frame of `req`, encoded at `tag`.
std::vector<std::uint8_t> encode_request(const Request& req,
                                         std::uint32_t tag) {
  std::vector<std::uint8_t> frame;
  switch (req.kind) {
    case Kind::kJob: {
      net::JobRequest msg = req.job;
      msg.tag = tag;
      net::append_frame(frame, net::MsgType::kSubmitJob,
                        net::encode_job_request(msg));
      break;
    }
    case Kind::kDfgJob: {
      net::SubmitDfgJobMsg msg = req.dfg;
      msg.tag = tag;
      net::append_frame(frame, net::MsgType::kSubmitDfgJob,
                        net::encode_submit_dfg_job(msg));
      break;
    }
    case Kind::kGemm: {
      net::SubmitGemmMsg msg = req.gemm;
      msg.tag = tag;
      net::append_frame(frame, net::MsgType::kSubmitGemm,
                        net::encode_submit_gemm(msg));
      break;
    }
    case Kind::kBatch: {
      net::SubmitJobBatchMsg msg = req.batch;
      msg.tag = tag;
      net::append_frame(frame, net::MsgType::kSubmitJobBatch,
                        net::encode_submit_job_batch(msg));
      break;
    }
  }
  return frame;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t fresh_requests) {
  Workload w;
  w.name = name;
  if (name == "serve_small") {
    serve_small(w, seed);
  } else if (name == "stream_long") {
    stream_long(w, seed);
  } else if (name == "fanout") {
    fanout(w, seed);
  } else if (name == "cold_churn") {
    cold_churn(w, seed, fresh_requests);
  } else {
    throw SimError("perfbench: unknown workload '" + name + "'");
  }
  std::vector<Request*> all;
  for (std::size_t i = 0; i < w.pool.size(); ++i) {
    w.pool[i].tag = static_cast<std::uint32_t>(i + 1);
    all.push_back(&w.pool[i]);
  }
  for (std::size_t i = 0; i < w.warmup.size(); ++i) {
    w.warmup[i].tag = 0x8000'0000u + static_cast<std::uint32_t>(i);
    all.push_back(&w.warmup[i]);
  }
  for (Request* r : all) r->frame = encode_request(*r, r->tag);
  compute_references(all);
  // From here on only the frames are sent; a batch keeps its typed
  // jobs for re-submitting busy-shed entries.  Dropping the rest keeps
  // a large one-shot pool's footprint at its frames and references.
  for (Request* r : all) {
    r->job = {};
    r->dfg = {};
    r->gemm = {};
  }
  return w;
}

}  // namespace perfbench
