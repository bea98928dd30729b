#include "kernels/fir_kernel.hpp"

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "dsp/fir.hpp"
#include "kernels/jobs.hpp"
#include "sim/system.hpp"

namespace sring::kernels {

namespace {

DnodeInstr pass_out(DnodeSrc src) {
  DnodeInstr i;
  i.op = DnodeOp::kPass;
  i.src_a = src;
  i.out_en = true;
  return i;
}

/// MAC with immediate coefficient: result = a * coeff + c.
DnodeInstr mac_imm(DnodeSrc a, Word coeff, DnodeSrc c) {
  DnodeInstr i;
  i.op = DnodeOp::kMac;
  i.src_a = a;
  i.src_b = DnodeSrc::kImm;
  i.src_c = c;
  i.imm = coeff;
  return i;
}

}  // namespace

LoadableProgram make_spatial_fir_program(const RingGeometry& g,
                                         std::span<const Word> coeffs) {
  const std::size_t taps = coeffs.size();
  check(taps >= 1, "spatial FIR: at least one tap");
  check(g.lanes >= 2, "spatial FIR: needs 2 lanes (x and partial sums)");
  check(g.layers >= taps + 1,
        "spatial FIR: needs taps+1 layers (injection + one per tap)");

  ProgramBuilder pb(g, "spatial_fir");
  PageBuilder page(g);

  // Layer 0: x injection (lane 0) and partial-sum seed 0 (lane 1).
  SwitchRoute inject;
  inject.in1 = PortRoute::host();
  page.route(0, 0, inject);
  page.instr(0, 0, pass_out(DnodeSrc::kIn1));
  page.instr(0, 1, pass_out(DnodeSrc::kZero));

  // Layers 1..T: lane 0 re-times x through the feedback pipeline (one
  // extra cycle per stage), lane 1 accumulates c_k * x + psum.
  for (std::size_t k = 1; k <= taps; ++k) {
    SwitchRoute xroute;
    xroute.in1 = PortRoute::feedback(
        {static_cast<std::uint8_t>(k), 0, 0});
    page.route(k, 0, xroute);
    page.instr(k, 0, pass_out(DnodeSrc::kIn1));

    SwitchRoute proute;
    proute.in1 = PortRoute::prev(0);
    proute.in2 = PortRoute::prev(1);
    page.route(k, 1, proute);
    DnodeInstr mac = mac_imm(DnodeSrc::kIn1, coeffs[k - 1], DnodeSrc::kIn2);
    mac.out_en = true;
    if (k == taps) mac.host_en = true;  // the y stream
    page.instr(k, 1, mac);
  }
  pb.add_page(std::move(page));
  pb.page_switch(0);
  pb.halt();
  return std::move(pb).build();
}

FirResult run_spatial_fir(const RingGeometry& g, std::span<const Word> x,
                          std::span<const Word> coeffs, LinkRate link) {
  rt::Job job = make_spatial_fir_job(g, x, coeffs);
  job.link = link;
  System sys({g, link});
  sys.load(*job.program);

  FirResult result;
  result.outputs = rt::run_on(sys, job);
  result.stats = sys.stats();
  result.cycles_per_sample =
      x.empty() ? 0.0
                : static_cast<double>(result.stats.cycles) /
                      static_cast<double>(x.size());
  result.report = RunReport::from_system(job.name, sys);
  result.report.extra("taps", std::uint64_t{coeffs.size()})
      .extra("samples", std::uint64_t{x.size()})
      .extra("cycles_per_sample", result.cycles_per_sample);
  return result;
}

// ---------------------------------------------------------------------------
// Resource-shared serial FIR, page-multiplexed (one multiplier, T taps).
// Dataflow: X_j at (j, 0) hold x[n-j] (they all shift simultaneously in
// the SHIFT phase); the MAC Dnode at (taps, 0) computes one tap per
// phase, reading X_{T-1} directly and the others through depth-0
// feedback taps.
// ---------------------------------------------------------------------------

LoadableProgram make_paged_serial_fir_program(const RingGeometry& g,
                                              std::span<const Word> coeffs,
                                              std::size_t samples) {
  const std::size_t taps = coeffs.size();
  check(taps >= 1, "serial FIR: at least one tap");
  check(g.layers >= taps + 1, "serial FIR: needs taps+1 layers");
  check(samples >= 1, "serial FIR: at least one sample");

  ProgramBuilder pb(g, "paged_serial_fir");
  const std::size_t mac_layer = taps;
  const std::size_t mac_dnode = mac_layer * g.lanes;

  // Page 0 (SHIFT): delay line shifts once, MAC emits y[n-1].
  {
    PageBuilder page(g);
    SwitchRoute x0route;
    x0route.in1 = PortRoute::host();
    page.route(0, 0, x0route);
    page.instr(0, 0, pass_out(DnodeSrc::kIn1));
    for (std::size_t j = 1; j < taps; ++j) {
      SwitchRoute r;
      r.in1 = PortRoute::prev(0);
      page.route(j, 0, r);
      page.instr(j, 0, pass_out(DnodeSrc::kIn1));
    }
    DnodeInstr emit;
    emit.op = DnodeOp::kPass;
    emit.src_a = DnodeSrc::kR0;
    emit.host_en = true;
    page.instr(mac_layer, 0, emit);
    pb.add_page(std::move(page));
  }

  // Pages 1..T (TAP k): tap j = T-k; phase 1 reads X_{T-1} directly
  // (its feedback image is not yet fresh) and resets the accumulator.
  for (std::size_t k = 1; k <= taps; ++k) {
    const std::size_t j = taps - k;
    PageBuilder page(g);
    SwitchRoute r;
    DnodeInstr mac;
    if (k == 1) {
      r.in1 = PortRoute::prev(0);
      mac = mac_imm(DnodeSrc::kIn1, coeffs[j], DnodeSrc::kZero);
    } else {
      r.fifo1 = {static_cast<std::uint8_t>(j + 1), 0, 0};
      mac = mac_imm(DnodeSrc::kFifo1, coeffs[j],
                    taps == 1 ? DnodeSrc::kZero : DnodeSrc::kR0);
    }
    mac.dst = DnodeDst::kR0;
    page.route(mac_layer, 0, r);
    page.instr(mac_layer, 0, mac);
    pb.add_page(std::move(page));
  }

  // Page T+1 (IDLE): everything NOP.
  const std::size_t idle = pb.add_page(PageBuilder(g));

  // Controller: per sample, issue SHIFT, TAP 1..T, IDLE, loop upkeep.
  pb.set_reg(1, samples);
  pb.ldi(2, 0);
  pb.label("sample");
  for (std::size_t p = 0; p <= taps; ++p) {
    pb.page_switch(p);
  }
  pb.page_switch(idle);
  pb.addi(1, 1, -1);
  pb.branch(RiscOp::kBne, 1, 2, "sample");
  // Flush: one more SHIFT emits the last y (pops one padding word).
  pb.page_switch(0);
  pb.page_switch(idle);
  pb.halt();

  // The MAC Dnode index is only documented here for readers of the
  // disassembly; nothing at runtime needs it.
  (void)mac_dnode;
  return std::move(pb).build();
}

namespace {

FirResult run_serial_common(const RingGeometry& g,
                            const LoadableProgram& prog,
                            std::span<const Word> x, std::size_t pad_words,
                            std::string_view report_name) {
  System sys({g});
  sys.load(prog);
  std::vector<Word> feed(x.begin(), x.end());
  feed.insert(feed.end(), pad_words, 0);
  sys.host().send(feed);
  sys.run_until_halt(1000 + 200 * feed.size());

  FirResult result;
  const auto raw = sys.host().take_received();
  check(raw.size() >= x.size() + 1,
        "serial FIR: fewer outputs than expected");
  // First emission is the boot-time accumulator (garbage by contract).
  result.outputs.assign(raw.begin() + 1,
                        raw.begin() + 1 + static_cast<std::ptrdiff_t>(
                                              x.size()));
  result.stats = sys.stats();
  result.cycles_per_sample =
      x.empty() ? 0.0
                : static_cast<double>(result.stats.cycles) /
                      static_cast<double>(x.size());
  result.report = RunReport::from_system(report_name, sys);
  result.report.extra("samples", std::uint64_t{x.size()})
      .extra("cycles_per_sample", result.cycles_per_sample);
  return result;
}

}  // namespace

FirResult run_paged_serial_fir(const RingGeometry& g,
                               std::span<const Word> x,
                               std::span<const Word> coeffs) {
  return run_serial_common(
      g, make_paged_serial_fir_program(g, coeffs, x.size()), x,
      /*pad_words=*/1, "fir.paged_serial");
}

// ---------------------------------------------------------------------------
// Resource-shared serial FIR with word-by-word reconfiguration: the
// baseline showing what the dedicated page mechanism buys.  The
// controller pulses each Dnode's instruction on for exactly one cycle
// (write instr, write NOP back), shifting the delay line tail-first so
// word-at-a-time writes preserve the simultaneous-shift semantics.
//
// Register map (steady state): r1..rT tap microinstructions,
// r5+T.. routes would not fit for large T, so taps are limited by the
// 16-register file: 2T + 7 <= 16, i.e. taps <= 4.
// ---------------------------------------------------------------------------

LoadableProgram make_wordwise_serial_fir_program(
    const RingGeometry& g, std::span<const Word> coeffs,
    std::size_t samples) {
  const std::size_t taps = coeffs.size();
  check(taps >= 1 && taps <= 4,
        "wordwise serial FIR: 1..4 taps (register-file bound)");
  check(g.layers >= taps + 1, "wordwise serial FIR: needs taps+1 layers");
  check(samples >= 1, "wordwise serial FIR: at least one sample");

  ProgramBuilder pb(g, "wordwise_serial_fir");
  const std::size_t mac_layer = taps;
  const std::size_t mac_dnode = mac_layer * g.lanes;

  // Static switch routing (it never changes in this variant): the
  // delay line chains prev0; the MAC reads X_{taps-1} directly on in1
  // and X_j through fifo reads rewritten per tap would cost extra
  // registers, so instead each tap instruction selects a distinct
  // fifo port... two ports only — therefore the route IS rewritten per
  // tap, from a precomputed register.
  PageBuilder boot(g);
  {
    SwitchRoute x0route;
    x0route.in1 = PortRoute::host();
    boot.route(0, 0, x0route);
    for (std::size_t j = 1; j < taps; ++j) {
      SwitchRoute r;
      r.in1 = PortRoute::prev(0);
      boot.route(j, 0, r);
    }
  }
  pb.add_page(std::move(boot));

  // Register allocation (exactly fills the 16-entry file at taps = 4):
  // r0 sample counter, r1..rT tap instructions, r(T+1)..r(2T) tap
  // routes, r9/r10 delay-line microinstructions, r11/r12 MAC
  // addresses, r13 NOP constant, r14 emit, r15 loop scratch.
  const std::uint8_t rSamples = 0;
  const std::uint8_t rZero = 13;       // NOP microinstruction (0)
  const std::uint8_t rMacIdx = 12;     // MAC Dnode index (WRCFG address)
  const std::uint8_t rMacSw = 11;      // MAC switch address (WRSW)
  const std::uint8_t rXPass = 10;      // delay-line pass microinstruction
  const std::uint8_t rX0Pass = 9;      // head-of-line pass (pops host)
  const std::uint8_t rEmit = 14;       // emit microinstruction
  const auto tap_instr_reg = [&](std::size_t k) {
    return static_cast<std::uint8_t>(1 + (k - 1));
  };
  const auto tap_route_reg = [&](std::size_t k) {
    return static_cast<std::uint8_t>(1 + taps + (k - 1));
  };

  // --- boot: materialize constants, apply static routes -------------
  pb.page_switch(0);
  pb.ldi(rZero, 0);
  pb.set_reg(rMacIdx, mac_dnode);
  pb.set_reg(rMacSw, mac_layer * 16 + 0);
  pb.set_reg(rXPass, pass_out(DnodeSrc::kIn1).encode());
  pb.set_reg(rX0Pass, pass_out(DnodeSrc::kIn1).encode());
  DnodeInstr emit;
  emit.op = DnodeOp::kPass;
  emit.src_a = DnodeSrc::kR0;
  emit.host_en = true;
  pb.set_reg(rEmit, emit.encode());
  for (std::size_t k = 1; k <= taps; ++k) {
    const std::size_t j = taps - k;
    SwitchRoute r;
    DnodeInstr mac;
    if (k == 1) {
      r.in1 = PortRoute::prev(0);
      mac = mac_imm(DnodeSrc::kIn1, coeffs[j], DnodeSrc::kZero);
    } else {
      r.fifo1 = {static_cast<std::uint8_t>(j + 1), 0, 0};
      mac = mac_imm(DnodeSrc::kFifo1, coeffs[j],
                    taps == 1 ? DnodeSrc::kZero : DnodeSrc::kR0);
    }
    mac.dst = DnodeDst::kR0;
    pb.set_reg(tap_instr_reg(k), mac.encode());
    pb.set_reg(tap_route_reg(k), r.encode());
  }
  pb.set_reg(rSamples, samples);

  const auto pulse = [&](std::uint8_t idx_reg, std::uint8_t instr_reg) {
    // Enable for exactly one cycle, then write NOP back.
    pb.emit({RiscOp::kWrcfg, 0, idx_reg, instr_reg, 0});
    pb.emit({RiscOp::kWrcfg, 0, idx_reg, rZero, 0});
  };

  // --- steady state: one iteration per sample -----------------------
  pb.label("sample");
  // Emit y[n-1].
  pulse(rMacIdx, rEmit);
  // Shift the delay line tail-first (each X reads its upstream
  // neighbour's PRE-edge value, so one-per-cycle shifting from the
  // tail is equivalent to the simultaneous shift).
  for (std::size_t j = taps; j-- > 0;) {
    pb.ldi(15, static_cast<std::int32_t>(j * g.lanes));
    pulse(15, j == 0 ? rX0Pass : rXPass);
  }
  // Taps.
  for (std::size_t k = 1; k <= taps; ++k) {
    pb.emit({RiscOp::kWrsw, 0, rMacSw, tap_route_reg(k), 0});
    pulse(rMacIdx, tap_instr_reg(k));
  }
  pb.addi(rSamples, rSamples, -1);
  // rZero holds the NOP encoding, which is numerically 0 — reuse it as
  // the zero comparand.
  pb.branch(RiscOp::kBne, rSamples, rZero, "sample");
  // Flush: emit the final y (no extra input pop in this variant).
  pulse(rMacIdx, rEmit);
  pb.halt();
  return std::move(pb).build();
}

FirResult run_wordwise_serial_fir(const RingGeometry& g,
                                  std::span<const Word> x,
                                  std::span<const Word> coeffs) {
  return run_serial_common(
      g, make_wordwise_serial_fir_program(g, coeffs, x.size()), x,
      /*pad_words=*/0, "fir.wordwise_serial");
}

}  // namespace sring::kernels
