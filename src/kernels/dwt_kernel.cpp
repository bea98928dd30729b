#include "kernels/dwt_kernel.hpp"

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "kernels/jobs.hpp"
#include "sim/system.hpp"

namespace sring::kernels {

namespace {

/// Latency (in cycles) from feeding pair i to the d_i push.
constexpr std::size_t kDetailLatency = 4;
/// Latency from feeding pair i to the s_i push.
constexpr std::size_t kSmoothLatency = 8;

DnodeInstr pass_out(DnodeSrc src) {
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = src;
  i.out_en = true;
  return i;
}

}  // namespace

LoadableProgram make_dwt53_program(const RingGeometry& g) {
  check(g.layers >= 8 && g.lanes >= 2,
        "dwt53: needs 8 layers x 2 lanes (a Ring-16)");
  check(g.fb_depth >= 7, "dwt53: needs feedback depth >= 7");
  ProgramBuilder pb(g, "dwt53_lifting");
  PageBuilder page(g);

  // L0: even/odd split.  Pop order per cycle: lane0 (e) then lane1 (o).
  SwitchRoute host_route;
  host_route.in1 = PortRoute::host();
  page.route(0, 0, host_route);
  page.route(0, 1, host_route);
  page.instr(0, 0, pass_out(DnodeSrc::kIn1));
  page.instr(0, 1, pass_out(DnodeSrc::kIn1));

  // L1 lane0: e[i-1] + e[i]   (direct + depth-0 feedback tap of L0).
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    r.fifo1 = {1, 0, 0};
    page.route(1, 0, r);
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kIn1;
    add.src_b = DnodeSrc::kFifo1;
    add.out_en = true;
    page.instr(1, 0, add);
  }
  // L1 lane1: o re-aligned one cycle (feedback tap of L0 lane1).
  {
    SwitchRoute r;
    r.fifo1 = {1, 1, 0};
    page.route(1, 1, r);
    page.instr(1, 1, pass_out(DnodeSrc::kFifo1));
  }

  // L2 lane0: halfsum = (e[i-1]+e[i]) >> 1 (arithmetic).
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    page.route(2, 0, r);
    DnodeInstr asr;
    asr.op = DnodeOp::kAsr;
    asr.src_a = DnodeSrc::kIn1;
    asr.src_b = DnodeSrc::kImm;
    asr.imm = 1;
    asr.out_en = true;
    page.instr(2, 0, asr);
  }
  // L2 lane1: carry o along.
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(1);
    page.route(2, 1, r);
    page.instr(2, 1, pass_out(DnodeSrc::kIn1));
  }

  // L3 lane0: d = o - halfsum; emits the detail stream.
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);  // halfsum
    r.in2 = PortRoute::prev(1);  // o
    page.route(3, 0, r);
    DnodeInstr sub;
    sub.op = DnodeOp::kSub;
    sub.src_a = DnodeSrc::kIn2;
    sub.src_b = DnodeSrc::kIn1;
    sub.out_en = true;
    sub.host_en = true;
    page.instr(3, 0, sub);
  }

  // L4 lane0: d[i-1] + d[i] (direct + depth-0 feedback tap of L3).
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    r.fifo1 = {4, 0, 0};
    page.route(4, 0, r);
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kIn1;
    add.src_b = DnodeSrc::kFifo1;
    add.out_en = true;
    page.instr(4, 0, add);
  }

  // L5 lane0: + 2 (rounding).
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    page.route(5, 0, r);
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kIn1;
    add.src_b = DnodeSrc::kImm;
    add.imm = 2;
    add.out_en = true;
    page.instr(5, 0, add);
  }

  // L6 lane0: >> 2 (update term).
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    page.route(6, 0, r);
    DnodeInstr asr;
    asr.op = DnodeOp::kAsr;
    asr.src_a = DnodeSrc::kIn1;
    asr.src_b = DnodeSrc::kImm;
    asr.imm = 2;
    asr.out_en = true;
    page.instr(6, 0, asr);
  }

  // L7 lane0: s = e + update.  e[i] comes from L0's history, delayed
  // six extra stages to re-align with the update term.
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    r.fifo1 = {1, 0, 6};
    page.route(7, 0, r);
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kIn1;
    add.src_b = DnodeSrc::kFifo1;
    add.host_en = true;
    page.instr(7, 0, add);
  }

  pb.add_page(std::move(page));
  pb.page_switch(0);
  pb.halt();
  return std::move(pb).build();
}

std::vector<Word> make_dwt53_feed(std::span<const Word> x) {
  check(x.size() >= 2 && x.size() % 2 == 0,
        "dwt53: even-length input required");
  // Warm-up pair (e_{-1}, o_{-1}) = (0, x[0] >> 1): it forces the
  // pipeline's in-flight d_{-1} to exactly 0, which is the golden
  // model's zero-extension of the detail subband.  Then the signal,
  // then zero pairs to flush the tail.
  std::vector<Word> feed;
  feed.reserve(x.size() + 2 + 2 * kSmoothLatency);
  feed.push_back(0);
  feed.push_back(to_word(as_signed(x[0]) >> 1));
  feed.insert(feed.end(), x.begin(), x.end());
  feed.insert(feed.end(), 2 * kSmoothLatency, 0);
  return feed;
}

std::size_t dwt53_output_words(std::size_t pairs) {
  return 2 * (1 + pairs + kSmoothLatency);
}

dsp::Subbands dwt53_bands_from_raw(std::span<const Word> raw,
                                   std::size_t pairs) {
  check(raw.size() >= dwt53_output_words(pairs),
        "dwt53_bands_from_raw: truncated output stream");
  // Each executed cycle t pushes [d_{t-4}, s_{t-8}] in Dnode order;
  // the warm-up pair shifts every index by one.
  dsp::Subbands bands;
  bands.high.resize(pairs);
  bands.low.resize(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    bands.high[i] = raw[2 * (i + 1 + kDetailLatency)];
    bands.low[i] = raw[2 * (i + 1 + kSmoothLatency) + 1];
  }
  return bands;
}

DwtResult run_dwt53(const RingGeometry& g, std::span<const Word> x) {
  const rt::Job job = make_dwt53_job(g, x);
  System sys({g});
  sys.load(*job.program);

  DwtResult result;
  result.bands = dwt53_bands_from_raw(rt::run_on(sys, job), x.size() / 2);
  result.stats = sys.stats();
  result.cycles_per_sample =
      static_cast<double>(result.stats.cycles) /
      static_cast<double>(x.size());
  return result;
}

Dwt2DResult run_dwt53_2d(const RingGeometry& g, const Image& img) {
  check(img.width() % 2 == 0 && img.height() % 2 == 0,
        "run_dwt53_2d: even dimensions required");
  const std::size_t hw = img.width() / 2;
  const std::size_t hh = img.height() / 2;

  Dwt2DResult result;
  Image low_plane(hw, img.height());
  Image high_plane(hw, img.height());

  // Row pass.
  for (std::size_t y = 0; y < img.height(); ++y) {
    std::vector<Word> row(img.width());
    for (std::size_t x = 0; x < img.width(); ++x) row[x] = img.at(x, y);
    const auto r = run_dwt53(g, row);
    result.total_cycles += r.stats.cycles;
    for (std::size_t x = 0; x < hw; ++x) {
      low_plane.at(x, y) = r.bands.low[x];
      high_plane.at(x, y) = r.bands.high[x];
    }
  }

  // Column pass.
  result.bands = dsp::Subbands2D{Image(hw, hh), Image(hw, hh),
                                 Image(hw, hh), Image(hw, hh)};
  for (std::size_t x = 0; x < hw; ++x) {
    std::vector<Word> lcol(img.height());
    std::vector<Word> hcol(img.height());
    for (std::size_t y = 0; y < img.height(); ++y) {
      lcol[y] = low_plane.at(x, y);
      hcol[y] = high_plane.at(x, y);
    }
    const auto rl = run_dwt53(g, lcol);
    const auto rh = run_dwt53(g, hcol);
    result.total_cycles += rl.stats.cycles + rh.stats.cycles;
    for (std::size_t y = 0; y < hh; ++y) {
      result.bands.ll.at(x, y) = rl.bands.low[y];
      result.bands.lh.at(x, y) = rl.bands.high[y];
      result.bands.hl.at(x, y) = rh.bands.low[y];
      result.bands.hh.at(x, y) = rh.bands.high[y];
    }
  }
  result.cycles_per_sample =
      static_cast<double>(result.total_cycles) /
      static_cast<double>(img.width() * img.height());
  return result;
}

LoadableProgram make_idwt53_program(const RingGeometry& g) {
  check(g.layers >= 8 && g.lanes >= 2,
        "idwt53: needs 8 layers x 2 lanes (a Ring-16)");
  check(g.fb_depth >= 7, "idwt53: needs feedback depth >= 7");
  ProgramBuilder pb(g, "idwt53_lifting");
  PageBuilder page(g);

  // L0: s/d split.  Pop order per cycle: lane0 (s) then lane1 (d).
  SwitchRoute host_route;
  host_route.in1 = PortRoute::host();
  page.route(0, 0, host_route);
  page.route(0, 1, host_route);
  page.instr(0, 0, pass_out(DnodeSrc::kIn1));
  page.instr(0, 1, pass_out(DnodeSrc::kIn1));

  // L1 lane0: d[i-1] + d[i].  lane1: carry s.
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(1);
    r.fifo1 = {1, 1, 0};
    page.route(1, 0, r);
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kIn1;
    add.src_b = DnodeSrc::kFifo1;
    add.out_en = true;
    page.instr(1, 0, add);

    SwitchRoute rs;
    rs.in1 = PortRoute::prev(0);
    page.route(1, 1, rs);
    page.instr(1, 1, pass_out(DnodeSrc::kIn1));
  }

  // L2 lane0: +2.  lane1: carry s.
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    page.route(2, 0, r);
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kIn1;
    add.src_b = DnodeSrc::kImm;
    add.imm = 2;
    add.out_en = true;
    page.instr(2, 0, add);

    SwitchRoute rs;
    rs.in1 = PortRoute::prev(1);
    page.route(2, 1, rs);
    page.instr(2, 1, pass_out(DnodeSrc::kIn1));
  }

  // L3 lane0: >>2 (the update term).  lane1: carry s.
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    page.route(3, 0, r);
    DnodeInstr asr;
    asr.op = DnodeOp::kAsr;
    asr.src_a = DnodeSrc::kIn1;
    asr.src_b = DnodeSrc::kImm;
    asr.imm = 2;
    asr.out_en = true;
    page.instr(3, 0, asr);

    SwitchRoute rs;
    rs.in1 = PortRoute::prev(1);
    page.route(3, 1, rs);
    page.instr(3, 1, pass_out(DnodeSrc::kIn1));
  }

  // L4 lane0: e = s - update; emits the even samples.
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);  // update term
    r.in2 = PortRoute::prev(1);  // s
    page.route(4, 0, r);
    DnodeInstr sub;
    sub.op = DnodeOp::kSub;
    sub.src_a = DnodeSrc::kIn2;
    sub.src_b = DnodeSrc::kIn1;
    sub.out_en = true;
    sub.host_en = true;
    page.instr(4, 0, sub);
  }

  // L5 lane0: e[i] + e[i+1] (consecutive evens via the feedback tap).
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    r.fifo1 = {5, 0, 0};
    page.route(5, 0, r);
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kIn1;
    add.src_b = DnodeSrc::kFifo1;
    add.out_en = true;
    page.instr(5, 0, add);
  }

  // L6 lane0: >>1 (the predict term).
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    page.route(6, 0, r);
    DnodeInstr asr;
    asr.op = DnodeOp::kAsr;
    asr.src_a = DnodeSrc::kIn1;
    asr.src_b = DnodeSrc::kImm;
    asr.imm = 1;
    asr.out_en = true;
    page.instr(6, 0, asr);
  }

  // L7 lane0: o = d + predict; emits the odd samples.  d[i] arrives
  // from L0's history six stages deep.
  {
    SwitchRoute r;
    r.in1 = PortRoute::prev(0);
    r.fifo1 = {1, 1, 6};
    page.route(7, 0, r);
    DnodeInstr add;
    add.op = DnodeOp::kAdd;
    add.src_a = DnodeSrc::kIn1;
    add.src_b = DnodeSrc::kFifo1;
    add.host_en = true;
    page.instr(7, 0, add);
  }

  pb.add_page(std::move(page));
  pb.page_switch(0);
  pb.halt();
  return std::move(pb).build();
}

IdwtResult run_idwt53(const RingGeometry& g, const dsp::Subbands& bands) {
  check(bands.low.size() == bands.high.size() && !bands.low.empty(),
        "run_idwt53: equal non-empty subbands required");
  const std::size_t half = bands.low.size();

  System sys({g});
  sys.load(make_idwt53_program(g));

  // Latencies: even sample i emitted during cycle i+4, odd during
  // cycle i+8 (same structure as the forward pipeline).
  constexpr std::size_t kEvenLatency = 4;
  constexpr std::size_t kOddLatency = 8;

  std::vector<Word> feed;
  feed.reserve(2 * (half + 1 + kOddLatency));
  for (std::size_t i = 0; i < half; ++i) {
    feed.push_back(bands.low[i]);
    feed.push_back(bands.high[i]);
  }
  // Boundary pad: the golden zero-extension inverse treats e[half] as
  // exactly 0; choosing s_pad = (d[half-1] + 2) >> 2 (with d_pad = 0)
  // forces the pipeline's e[half] to 0 as well.
  feed.push_back(to_word((as_signed(bands.high[half - 1]) + 2) >> 2));
  feed.push_back(0);
  feed.insert(feed.end(), 2 * kOddLatency, 0);
  sys.host().send(feed);

  const std::size_t total_cycles = half + 1 + kOddLatency;
  sys.run_until_outputs(2 * total_cycles, 64 + 8 * feed.size());

  const auto raw = sys.host().take_received();
  IdwtResult result;
  result.signal.resize(2 * half);
  for (std::size_t i = 0; i < half; ++i) {
    result.signal[2 * i] = raw[2 * (i + kEvenLatency)];
    result.signal[2 * i + 1] = raw[2 * (i + kOddLatency) + 1];
  }
  result.stats = sys.stats();
  result.cycles_per_sample = static_cast<double>(result.stats.cycles) /
                             static_cast<double>(2 * half);
  return result;
}

DwtPyramidResult run_dwt53_pyramid(const RingGeometry& g, const Image& img,
                                   int levels) {
  check(levels >= 1, "run_dwt53_pyramid: levels must be >= 1");
  DwtPyramidResult result;
  Image current = img;
  for (int l = 0; l < levels; ++l) {
    auto level = run_dwt53_2d(g, current);
    result.total_cycles += level.total_cycles;
    current = level.bands.ll;
    result.levels.push_back(std::move(level.bands));
  }
  return result;
}

}  // namespace sring::kernels
