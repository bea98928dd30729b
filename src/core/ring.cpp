#include "core/ring.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "core/alu.hpp"

namespace sring {

Ring::Ring(const RingGeometry& g) : geom_(g) {
  geom_.validate();
  locals_.resize(geom_.dnode_count());
  last_mode_.assign(geom_.dnode_count(), DnodeMode::kGlobal);
  ops_per_dnode_.assign(geom_.dnode_count(), 0);
  mac_ops_per_dnode_.assign(geom_.dnode_count(), 0);
  local_cycles_per_dnode_.assign(geom_.dnode_count(), 0);
  global_cycles_per_dnode_.assign(geom_.dnode_count(), 0);
  host_out_words_per_switch_.assign(geom_.switch_count(), 0);
  fb_reads_per_pipe_.assign(geom_.switch_count(), 0);
  fb_read_depth_counts_.assign(geom_.switch_count() * geom_.fb_depth, 0);
  fetched_.assign(geom_.dnode_count(), nullptr);
  is_local_.assign(geom_.dnode_count(), false);
  needs_.assign(geom_.dnode_count(), {});
  effects_.assign(geom_.dnode_count(), {});
  stride_ = TapeLayout{geom_.dnode_count()}.size();
  flat_.assign(2 * stride_, 0);
  // Enough slack rows that relocating the window (fb_depth - 1 rows)
  // is rare next to the one-row push every cycle.
  window_slack_ = std::max<std::size_t>(geom_.fb_depth,
                                        4096 / geom_.dnode_count());
  window_.assign((window_slack_ + geom_.fb_depth) * geom_.dnode_count(), 0);
  head_ = window_slack_;
  local_imm_.assign(geom_.dnode_count() * kLocalProgramSlots, 0);
}

std::size_t Ring::flat_index(std::size_t layer, std::size_t lane) const {
  check(layer < geom_.layers && lane < geom_.lanes,
        "Ring: dnode coordinates out of range");
  return layer * geom_.lanes + lane;
}

std::size_t Ring::upstream_layer(std::size_t layer) const noexcept {
  return (layer + geom_.layers - 1) % geom_.layers;
}

Word Ring::out(std::size_t layer, std::size_t lane) const {
  const TapeLayout lay{locals_.size()};
  return flat_[cur_ + lay.out(flat_index(layer, lane))];
}

Word Ring::reg(std::size_t layer, std::size_t lane, std::size_t r) const {
  check(r < kDnodeRegCount, "Ring: register index out of range");
  const TapeLayout lay{locals_.size()};
  return flat_[cur_ + lay.reg(flat_index(layer, lane), r)];
}

const LocalControl& Ring::local(std::size_t dnode_index) const {
  check(dnode_index < locals_.size(), "Ring: dnode index out of range");
  return locals_[dnode_index];
}

std::size_t Ring::fb_occupancy(std::size_t sw) const {
  check(sw < geom_.switch_count(), "Ring: switch index out of range");
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(edges_, geom_.fb_depth));
}

void Ring::write_local(std::size_t dnode_index, std::size_t slot,
                       std::uint64_t value) {
  check(dnode_index < locals_.size(), "Ring: dnode index out of range");
  LocalControl& lc = locals_[dnode_index];
  lc.write(slot, value);
  locals_written_ = true;
  if (slot < kLocalProgramSlots) {
    local_imm_[dnode_index * kLocalProgramSlots + slot] =
        lc.instr_at(slot).imm;
  }
  ++local_generation_;
  // The write may move a local counter: the last tape's phase no
  // longer predicts the next one.
  settle_last_tape();
}

Word Ring::read_feedback(const FeedbackAddr& addr) const {
  addr.check_in_range(geom_.switch_count(), geom_.lanes, geom_.fb_depth);
  // Pipeline s latches layer upstream(s): its lanes sit there in a row.
  return window_[(head_ + addr.depth) * locals_.size() +
                 upstream_layer(addr.pipe) * geom_.lanes + addr.lane];
}

void Ring::note_fb_read(const FeedbackAddr& addr) {
  ++fb_reads_per_pipe_[addr.pipe];
  ++fb_read_depth_counts_[addr.pipe * geom_.fb_depth + addr.depth];
}

void Ring::set_plan_cache_enabled(bool enabled) noexcept {
  plan_enabled_ = enabled;
  if (!enabled) {
    current_plan_ = nullptr;
    handoff_.reset();
  }
}

void Ring::reset_for_rerun() {
  // Compiled plans and the page index stay.  The local programs are
  // cleared below, so the local generation moves on; it never repeats,
  // because a data-dependent WRLOC can reach the same count in two runs
  // with different local programs.  An index stamped with an earlier
  // generation lapses unless finish_arm() carries it over.
  if (locals_written_) {
    std::fill(locals_.begin(), locals_.end(), LocalControl{});
    std::fill(local_imm_.begin(), local_imm_.end(), 0);
    locals_written_ = false;
  }
  last_mode_.assign(geom_.dnode_count(), DnodeMode::kGlobal);
  ops_per_dnode_.assign(geom_.dnode_count(), 0);
  mac_ops_per_dnode_.assign(geom_.dnode_count(), 0);
  local_cycles_per_dnode_.assign(geom_.dnode_count(), 0);
  global_cycles_per_dnode_.assign(geom_.dnode_count(), 0);
  host_out_words_per_switch_.assign(geom_.switch_count(), 0);
  fb_reads_per_pipe_.assign(geom_.switch_count(), 0);
  fb_read_depth_counts_.assign(geom_.switch_count() * geom_.fb_depth, 0);
  bus_drives_ = 0;
  bus_conflicts_ = 0;
  superstep_dispatches_ = 0;
  superstep_cycles_ = 0;
  trace_cycles_ = 0;
  // A dispatch cut short by a controller fault leaves unflushed tapes.
  for (SuperstepTape* const t : ran_) {
    std::fill(t->phase_cycles.begin(), t->phase_cycles.end(), 0);
    t->queued = false;
  }
  ran_.clear();
  rec_.on = false;
  // The reset datapath is all zeros: the flat state and the window's
  // visible rows.
  const std::size_t n = locals_.size();
  std::fill(flat_.begin(), flat_.end(), 0);
  std::fill_n(window_.begin() + static_cast<std::ptrdiff_t>(window_slack_ * n),
              geom_.fb_depth * n, 0);
  cur_ = 0;
  head_ = window_slack_;
  edges_ = 0;
  last_tape_ = nullptr;
  handoff_.reset();
  current_plan_ = nullptr;
  mode_synced_ = false;
  synced_local_.clear();
  synced_valid_ = true;
  ++local_generation_;
  plan_compiles_ = 0;
  plan_hits_ = 0;
  plan_invalidations_ = 0;
  plan_content_hits_ = 0;
  plan_evictions_ = 0;
}

void Ring::finish_arm(bool same_structure) noexcept {
  // A re-arm of the same structure rebuilt exactly the local programs
  // the previous arm ended with, over the same ConfigMemory, so an
  // index stamped at that arm's generation still names the right plans.
  if (same_structure && page_index_local_gen_ == armed_local_gen_) {
    page_index_local_gen_ = local_generation_;
  }
  armed_local_gen_ = local_generation_;
}

Ring::CycleResult Ring::step(const ConfigMemory& cfg, Word bus,
                             HostFifo& host_in,
                             std::vector<Word>& host_out) {
  check(cfg.geometry().layers == geom_.layers &&
            cfg.geometry().lanes == geom_.lanes,
        "Ring::step: configuration memory geometry mismatch");

  // A dispatch that ended with ring_pending already looked this cycle up.
  PlanCacheEntry* const e = handoff_ ? *std::exchange(handoff_, std::nullopt)
                            : plan_enabled_ ? lookup(cfg)
                                            : nullptr;
  if (e == nullptr) return step_interpreted(cfg, bus, host_in, host_out);

  const SuperstepResult r =
      run_tape(*e, {.cfg = cfg,
                    .bus = bus,
                    .host_in = host_in,
                    .host_out = host_out,
                    .max_cycles = 1,
                    .host_out_stop = std::numeric_limits<std::size_t>::max()});
  CycleResult result;
  result.stalled = r.cycles == 0;
  result.ops = static_cast<unsigned>(r.ops);
  result.arith_ops = static_cast<unsigned>(r.arith_ops);
  result.host_words_in = static_cast<unsigned>(r.host_words_in);
  result.host_words_out = static_cast<unsigned>(r.host_words_out);
  if (r.bus_driven) result.bus_drive = r.bus;
  if (trace_views_ && !result.stalled) {
    // Issue views from the phase that ran and its micro-op results (in
    // the state it wrote); the fetched instruction is the live one (the
    // plan holds no imm).
    std::fill(effects_.begin(), effects_.end(), Effects{});
    const SuperstepTape& t = *last_tape_;
    for (std::uint32_t k = t.phases[last_phase_].ops;
         k < t.phases[last_phase_ + 1].ops; ++k) {
      const SuperstepTape::Source& src = t.sources[k];
      const DnodeInstr& in =
          e->plan.dnodes[src.dnode].is_local
              ? locals_[src.dnode].instr_at(src.local_slot)
              : cfg.dnode_instr(src.dnode);
      fetched_[src.dnode] = &in;
      effects_[src.dnode] = {true, flat_[cur_ + t.ops[k].dst], in.out_en,
                             in.bus_en, in.host_en};
    }
  }
  return result;
}

Ring::PlanCacheEntry* Ring::lookup_changed(const ConfigMemory& cfg) {
  if (current_plan_ != nullptr) {
    current_plan_ = nullptr;
    ++plan_invalidations_;
  }

  // A page swap back to a page that had a plan attached: the page is
  // immutable, so the index proves the structure — no hashing, no scan.
  if (PlanCacheEntry* const e = indexed(cfg)) {
    ++plan_content_hits_;
    ++plan_hits_;
    attach_plan(e, cfg);
    return e;
  }

  // Structure-keyed lookup: hash the live configuration without its
  // immediates and scan the cache (full-structure verified).
  const std::uint64_t key = live_key_hash(cfg);
  PlanCacheEntry* const e = find_entry(cfg, key);
  if (e == nullptr) {
    insert_entry(cfg, key)->sightings = 1;
    return nullptr;  // first sighting: interpret
  }
  if (e->compiled) {
    if (e->plan.superstep_period == 0) return nullptr;  // interpret-only
    ++plan_content_hits_;
    ++plan_hits_;
    attach_plan(e, cfg);
    return e;
  }
  if (++e->sightings < 2) return nullptr;
  // Second sighting of this structure: compile.  compile throws exactly
  // where the interpreter would reject the configuration at execution
  // time.  A plan without a tape (local period over the cap) stays
  // interpret-only and is never attached.
  compile_cycle_plan(geom_, cfg, locals_, e->plan);
  e->compiled = true;
  e->tape.valid = false;
  ++plan_compiles_;
  if (e->plan.superstep_period == 0) return nullptr;
  attach_plan(e, cfg);
  return e;
}

// --- plan cache internals ----------------------------------------------

std::uint64_t Ring::local_content_hash() {
  if (local_hash_gen_ == local_generation_) return local_hash_;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const LocalControl& lc : locals_) {
    h = hash_mix(h, lc.limit());
    for (const std::uint64_t w : lc.raw_slots()) {
      h = hash_mix(h, w & ~kImmFieldMask);
    }
  }
  local_hash_ = h;
  local_hash_gen_ = local_generation_;
  return h;
}

std::uint64_t Ring::live_key_hash(const ConfigMemory& cfg) {
  std::uint64_t h = cfg.content_hash();
  h ^= local_content_hash() + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

void Ring::build_content(const ConfigMemory& cfg,
                         std::vector<std::uint64_t>& out) const {
  const auto& iw = cfg.live_instr_words();
  const auto& mb = cfg.live_mode_bytes();
  const auto& rw = cfg.live_route_words();
  out.reserve(iw.size() + mb.size() + rw.size() +
              locals_.size() * (1 + kLocalProgramSlots));
  for (const std::uint64_t w : iw) out.push_back(w & ~kImmFieldMask);
  for (const std::uint8_t b : mb) out.push_back(b);
  out.insert(out.end(), rw.begin(), rw.end());
  for (const LocalControl& lc : locals_) {
    out.push_back(lc.limit());
    for (const std::uint64_t w : lc.raw_slots()) {
      out.push_back(w & ~kImmFieldMask);
    }
  }
}

bool Ring::content_matches(const ConfigMemory& cfg,
                           const std::vector<std::uint64_t>& content) const {
  const auto& iw = cfg.live_instr_words();
  const auto& mb = cfg.live_mode_bytes();
  const auto& rw = cfg.live_route_words();
  const std::size_t total = iw.size() + mb.size() + rw.size() +
                            locals_.size() * (1 + kLocalProgramSlots);
  if (content.size() != total) return false;
  std::size_t k = 0;
  for (const std::uint64_t w : iw) {
    if (content[k++] != (w & ~kImmFieldMask)) return false;
  }
  for (const std::uint8_t b : mb) {
    if (content[k++] != b) return false;
  }
  for (const std::uint64_t w : rw) {
    if (content[k++] != w) return false;
  }
  for (const LocalControl& lc : locals_) {
    if (content[k++] != lc.limit()) return false;
    for (const std::uint64_t w : lc.raw_slots()) {
      if (content[k++] != (w & ~kImmFieldMask)) return false;
    }
  }
  return true;
}

Ring::PlanCacheEntry* Ring::find_entry(const ConfigMemory& cfg,
                                       std::uint64_t key) {
  for (auto& p : plan_cache_) {
    if (p->key_hash != key) continue;
    if (content_matches(cfg, p->content)) {
      p->last_use = ++plan_use_clock_;  // protect from eviction
      return p.get();
    }
  }
  return nullptr;
}

Ring::PlanCacheEntry* Ring::insert_entry(const ConfigMemory& cfg,
                                         std::uint64_t key) {
  PlanCacheEntry* e = nullptr;
  if (plan_cache_.size() < kPlanCacheCapacity) {
    plan_cache_.push_back(std::make_unique<PlanCacheEntry>());
    e = plan_cache_.back().get();
  } else {
    // Evict the least-recently-attached entry and reuse its storage.
    // The page index may reference the victim — drop it.
    e = plan_cache_.front().get();
    for (auto& p : plan_cache_) {
      if (p->last_use < e->last_use) e = p.get();
    }
    ++plan_evictions_;
    clear_page_index();
    e->compiled = false;
    e->content.clear();
  }
  e->key_hash = key;
  build_content(cfg, e->content);
  e->sightings = 0;
  e->last_use = ++plan_use_clock_;
  return e;
}

void Ring::attach_plan(PlanCacheEntry* e, const ConfigMemory& cfg) {
  CyclePlan& plan = e->plan;
  plan.cfg_uid = cfg.uid();
  plan.cfg_generation = cfg.generation();
  plan.local_generation = local_generation_;
  e->last_use = ++plan_use_clock_;
  if (cfg.live_page() >= 0) {
    const auto page = static_cast<std::size_t>(cfg.live_page());
    if (page_index_uid_ != cfg.uid() ||
        page_index_local_gen_ != local_generation_) {
      clear_page_index();
      page_index_uid_ = cfg.uid();
      page_index_local_gen_ = local_generation_;
    }
    if (page >= page_index_.size()) {
      page_index_.resize(cfg.page_count(), nullptr);
    }
    page_index_[page] = e;
  }
  // The sync would rewrite last_mode_ to what it already holds when
  // the local set is unchanged (page rotations over global-mode pages).
  mode_synced_ = synced_valid_ && plan.local_dnodes == synced_local_;
  current_plan_ = e;
}

void Ring::sync_modes(const CyclePlan& plan) {
  for (const std::uint16_t i : plan.local_dnodes) {
    if (last_mode_[i] == DnodeMode::kGlobal) locals_[i].reset_counter();
    last_mode_[i] = DnodeMode::kLocal;
  }
  for (const std::uint16_t i : plan.global_dnodes) {
    last_mode_[i] = DnodeMode::kGlobal;
  }
  synced_local_ = plan.local_dnodes;
  synced_valid_ = true;
  mode_synced_ = true;
}

// --- cycle execution ----------------------------------------------------

namespace {

/// Clock edge of the feedback pipelines: the `row` pre-edge outputs at
/// `outs` become the window's depth-0 row, `h` moving down one row.
/// With no slack row left, the other visible rows (`keep` words) move
/// to the far end first.
void push_window(Word* win, std::size_t& h, std::size_t slack,
                 std::size_t keep, std::size_t row, const Word* outs) {
  if (h == 0) {
    std::copy(win, win + keep, win + (slack + 1) * row);
    h = slack + 1;
  }
  --h;
  // A plain loop, not std::copy: that is a memmove call every cycle.
  Word* const to = win + h * row;
  for (std::size_t k = 0; k < row; ++k) to[k] = outs[k];
}

}  // namespace

void Ring::drain_effects(CycleResult& result, std::vector<Word>& host_out) {
  const std::size_t n = geom_.dnode_count();
  for (std::size_t i = 0; i < n; ++i) {
    if (effects_[i].executed && effects_[i].host_en) {
      host_out.push_back(effects_[i].result);
      ++result.host_words_out;
    }
    if (effects_[i].executed && effects_[i].bus_en) {
      ++bus_drives_;
      if (result.bus_drive.has_value()) ++bus_conflicts_;
      result.bus_drive = effects_[i].result;
    }
  }
}

Ring::CycleResult Ring::step_interpreted(const ConfigMemory& cfg, Word bus,
                                         HostFifo& host_in,
                                         std::vector<Word>& host_out) {
  const std::size_t n = geom_.dnode_count();

  // Phase 1: fetch.  Mode transitions are observed but NOT committed —
  // a Dnode entering local mode this cycle fetches slot 0 directly, and
  // its counter is reset only once the cycle is known to advance, so a
  // stalled transition cycle leaves every local program untouched.
  for (std::size_t i = 0; i < n; ++i) {
    is_local_[i] = cfg.dnode_mode(i) == DnodeMode::kLocal;
    if (is_local_[i]) {
      fetched_[i] = last_mode_[i] == DnodeMode::kGlobal
                        ? &locals_[i].instr_at(0)
                        : &locals_[i].current();
    } else {
      fetched_[i] = &cfg.dnode_instr(i);
    }
  }

  // Phase 2: count the host pops this cycle needs.
  std::size_t pops_needed = 0;
  for (std::size_t layer = 0; layer < geom_.layers; ++layer) {
    for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
      const std::size_t i = layer * geom_.lanes + lane;
      needs_[i] = PortNeed{};
      const DnodeInstr& instr = *fetched_[i];
      if (instr.op == DnodeOp::kNop) continue;
      const SwitchRoute& route = cfg.switch_route(layer, lane);
      if (route.in1.kind == RouteKind::kHost &&
          instr_reads(instr, DnodeSrc::kIn1)) {
        needs_[i].in1_host = true;
        ++pops_needed;
      }
      if (route.in2.kind == RouteKind::kHost &&
          instr_reads(instr, DnodeSrc::kIn2)) {
        needs_[i].in2_host = true;
        ++pops_needed;
      }
      if (instr_reads(instr, DnodeSrc::kHost)) {
        needs_[i].direct_host = true;
        ++pops_needed;
      }
    }
  }

  CycleResult result;
  if (host_in.size() < pops_needed) {
    result.stalled = true;
    return result;  // systolic back-pressure: nothing advances
  }

  // The cycle advances: commit mode transitions (a Dnode entering
  // local mode restarts its program at slot 0) and record the mode
  // every Dnode ran under.
  synced_valid_ = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_local_[i]) {
      if (last_mode_[i] == DnodeMode::kGlobal) locals_[i].reset_counter();
      last_mode_[i] = DnodeMode::kLocal;
      ++local_cycles_per_dnode_[i];
    } else {
      last_mode_[i] = DnodeMode::kGlobal;
      ++global_cycles_per_dnode_[i];
    }
  }

  // The next buffer takes the last tape's writes, so the edge below
  // can latch into both buffers.
  settle_last_tape();
  const TapeLayout lay{n};
  Word* const cur = flat_.data() + cur_;
  Word* const nxt = flat_.data() + (stride_ - cur_);

  // Phase 3+4: route and execute.  Routing reads only pre-edge state
  // (output registers, feedback window, bus), so evaluation order across
  // Dnodes does not matter except for the documented host pop order.
  for (std::size_t layer = 0; layer < geom_.layers; ++layer) {
    const std::size_t up = upstream_layer(layer);
    for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
      const std::size_t i = layer * geom_.lanes + lane;
      effects_[i] = Effects{};
      const DnodeInstr& instr = *fetched_[i];
      if (instr.op == DnodeOp::kNop) continue;
      const SwitchRoute& route = cfg.switch_route(layer, lane);

      const auto pop = [&] {
        const Word w = host_in.front();
        host_in.pop_front();
        ++result.host_words_in;
        return w;
      };
      const auto resolve_port = [&](const PortRoute& p, bool pops) -> Word {
        switch (p.kind) {
          case RouteKind::kZero:
            return 0;
          case RouteKind::kPrev:
            check(p.lane < geom_.lanes, "Ring: route lane out of range");
            return cur[lay.out(up * geom_.lanes + p.lane)];
          case RouteKind::kHost:
            return pops ? pop() : 0;
          case RouteKind::kFeedback:
            return read_feedback(p.fb);
          case RouteKind::kBus:
            return bus;
          case RouteKind::kKindCount:
            break;
        }
        throw SimError("Ring: bad route kind");
      };

      const Word in1 = resolve_port(route.in1, needs_[i].in1_host);
      const Word in2 = resolve_port(route.in2, needs_[i].in2_host);
      const Word fifo1 = read_feedback(route.fifo1);
      const Word fifo2 = read_feedback(route.fifo2);
      // Feedback-occupancy accounting: only reads the instruction
      // actually consumes (the ports above are sampled regardless).
      if (route.in1.kind == RouteKind::kFeedback &&
          instr_reads(instr, DnodeSrc::kIn1)) {
        note_fb_read(route.in1.fb);
      }
      if (route.in2.kind == RouteKind::kFeedback &&
          instr_reads(instr, DnodeSrc::kIn2)) {
        note_fb_read(route.in2.fb);
      }
      if (instr_reads(instr, DnodeSrc::kFifo1)) note_fb_read(route.fifo1);
      if (instr_reads(instr, DnodeSrc::kFifo2)) note_fb_read(route.fifo2);
      const Word host = needs_[i].direct_host ? pop() : 0;

      const auto operand = [&](DnodeSrc src) -> Word {
        switch (src) {
          case DnodeSrc::kZero:
            return 0;
          case DnodeSrc::kIn1:
            return in1;
          case DnodeSrc::kIn2:
            return in2;
          case DnodeSrc::kFifo1:
            return fifo1;
          case DnodeSrc::kFifo2:
            return fifo2;
          case DnodeSrc::kBus:
            return bus;
          case DnodeSrc::kHost:
            return host;
          case DnodeSrc::kImm:
            return instr.imm;
          case DnodeSrc::kR0:
          case DnodeSrc::kR1:
          case DnodeSrc::kR2:
          case DnodeSrc::kR3:
            return cur[lay.reg(i, static_cast<std::size_t>(src) -
                                      static_cast<std::size_t>(DnodeSrc::kR0))];
          case DnodeSrc::kSrcCount:
            break;
        }
        raise_sim_error("Dnode::resolve: bad operand source");
      };
      const Word a = operand(instr.src_a);
      const Word b = op_uses_b(instr.op) ? operand(instr.src_b) : Word{0};
      const Word c = op_uses_c(instr.op) ? operand(instr.src_c) : Word{0};
      effects_[i] = {true, alu_execute(instr.op, a, b, c), instr.out_en,
                     instr.bus_en, instr.host_en};
      ++result.ops;
      const bool is_mac =
          instr.op == DnodeOp::kMac || instr.op == DnodeOp::kMsu;
      result.arith_ops += is_mac ? 2 : 1;
      ++ops_per_dnode_[i];
      if (is_mac) ++mac_ops_per_dnode_[i];
    }
  }

  // Phase 5: clock edge.  Every pipeline latches its upstream layer's
  // pre-edge outputs (one window row), then the register and output
  // writes land in both buffers and local counters advance.
  push_window(window_.data(), head_, window_slack_,
              (geom_.fb_depth - 1) * n, n, cur + lay.outs());
  ++edges_;
  const Word* const pre_outs = window_.data() + head_ * n;
  for (std::size_t i = 0; i < n; ++i) {
    const Effects& e = effects_[i];
    if (e.executed) {
      const DnodeInstr& instr = *fetched_[i];
      if (instr.dst != DnodeDst::kNone) {
        const std::uint16_t r = lay.reg(i, dst_reg_index(instr.dst));
        cur[r] = nxt[r] = e.result;
      }
      if (e.out_en) cur[lay.out(i)] = nxt[lay.out(i)] = e.result;
    }
    if (is_local_[i]) locals_[i].advance();
  }

  // Host output: switch taps first (switch order), then Dnode hostEn
  // results (dnode order).  Bus drive: highest dnode index wins.
  for (std::size_t s = 0; s < geom_.switch_count(); ++s) {
    for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
      const SwitchRoute& route = cfg.switch_route(s, lane);
      if (route.host_out_en) {
        check(route.host_out_lane < geom_.lanes,
              "Ring: host-out lane out of range");
        host_out.push_back(
            pre_outs[upstream_layer(s) * geom_.lanes + route.host_out_lane]);
        ++result.host_words_out;
        ++host_out_words_per_switch_[s];
      }
    }
  }
  drain_effects(result, host_out);
  return result;
}

// --- superstep engine ---------------------------------------------------

SuperstepTape& Ring::enter_tape(PlanCacheEntry& e, std::size_t& phase,
                                bool& continued) {
  SuperstepTape& t = e.tape;
  continued = last_tape_ == &t;
  if (continued) {
    phase = last_phase_ + 1 == t.period ? 0 : last_phase_ + 1;
    last_tape_ = nullptr;  // the run owns the buffers now
  } else {
    settle_last_tape();
    // (Re)lower the tape when missing or when the local counters match
    // none of its phases.
    const std::ptrdiff_t p = t.valid ? tape_phase(t, e.plan, locals_) : -1;
    if (p < 0) {
      compile_tape(geom_, e.plan, locals_, t);
      fit_stride(t);
    }
    phase = p < 0 ? 0 : static_cast<std::size_t>(p);
  }
  queue_tape(t);
  return t;
}

void Ring::settle_last_tape() noexcept {
  if (last_tape_ == nullptr) return;
  const Word* const cur = flat_.data() + cur_;
  Word* const nxt = flat_.data() + (stride_ - cur_);
  for (const std::uint16_t slot : last_tape_->written) nxt[slot] = cur[slot];
  last_tape_ = nullptr;
}

void Ring::fit_stride(const SuperstepTape& t) {
  if (t.slots <= stride_) return;
  std::vector<Word> grown(2 * t.slots, 0);
  std::copy_n(flat_.begin(), stride_, grown.begin());
  std::copy_n(flat_.begin() + static_cast<std::ptrdiff_t>(stride_), stride_,
              grown.begin() + static_cast<std::ptrdiff_t>(t.slots));
  if (cur_ != 0) cur_ = t.slots;
  stride_ = t.slots;
  flat_.swap(grown);
}

void Ring::load_consts(const SuperstepTape& t, const Word* imms) noexcept {
  Word* const b0 = flat_.data();
  Word* const b1 = b0 + stride_;
  for (const SuperstepTape::Const& k : t.consts) {
    b0[k.slot] = b1[k.slot] = k.local ? local_imm_[k.from] : imms[k.from];
  }
}

namespace {

/// BEQ, BNE, BLT, BGE: the branches a loop-tape replay guards.
bool is_conditional(RiscOp op) noexcept {
  return op == RiscOp::kBeq || op == RiscOp::kBne || op == RiscOp::kBlt ||
         op == RiscOp::kBge;
}

/// Credit `probe` with the host-FIFO depths at the top of `k` cycles
/// from phase `s`: `depth` at the first, less the words (`sum`, see
/// tape_sum) of the cycles before each.  The depths only fall, so every
/// bucket takes one run of cycles.
void credit_depths(const Ring::HostDepthProbe& probe,
                   std::span<const std::uint32_t> sum, std::size_t s,
                   std::uint64_t k, std::size_t depth) {
  if (probe.counts == nullptr) return;
  const std::uint8_t* const lut_end = probe.lut + probe.lut_max + 1;
  for (std::uint64_t j = 0; j < k;) {
    const std::size_t d = depth - tape_sum(sum, s, j);
    const std::uint8_t b = probe.lut[std::min(d, probe.lut_max)];
    // The bucket's lowest depth: cycles stay in it while the words
    // consumed before them leave at least that many.
    const auto lo =
        static_cast<std::size_t>(std::lower_bound(probe.lut, lut_end, b) -
                                 probe.lut);
    const std::uint64_t end = std::min(k - 1, tape_fit(sum, s, depth - lo)) + 1;
    probe.counts[b] += end - j;
    j = end;
  }
}

}  // namespace

void Ring::flush_tape(SuperstepTape& t, SuperstepResult& res) {
  for (std::size_t p = 0; p < t.phase_cycles.size(); ++p) {
    const std::uint64_t cnt = t.phase_cycles[p];
    if (cnt == 0) continue;
    t.phase_cycles[p] = 0;
    const SuperstepTape::Phase& a = t.phases[p];
    const SuperstepTape::Phase& b = t.phases[p + 1];
    for (std::uint32_t k = a.taps; k < b.taps; ++k) {
      host_out_words_per_switch_[t.taps[k].sw] += cnt;
    }
    for (std::uint32_t k = a.ops; k < b.ops; ++k) {
      const SuperstepTape::Source& src = t.sources[k];
      const PlannedSlot& ps = *src.slot;
      res.ops += cnt;
      res.arith_ops += cnt * (ps.is_mac ? 2u : 1u);
      ops_per_dnode_[src.dnode] += cnt;
      if (ps.is_mac) mac_ops_per_dnode_[src.dnode] += cnt;
      const auto note_n = [&](const FeedbackAddr& fb) {
        fb_reads_per_pipe_[fb.pipe] += cnt;
        fb_read_depth_counts_[fb.pipe * geom_.fb_depth + fb.depth] += cnt;
      };
      if (ps.in1 == PlannedSlot::Port::kFeedback) note_n(ps.in1_fb);
      if (ps.in2 == PlannedSlot::Port::kFeedback) note_n(ps.in2_fb);
      if (ps.read_fifo1) note_n(ps.fifo1);
      if (ps.read_fifo2) note_n(ps.fifo2);
    }
  }
}

Ring::SuperstepResult Ring::run_planned(const SuperstepContext& ctx) {
  if (ctx.max_cycles == 0 || !plan_enabled_ || current_plan_ == nullptr ||
      !plan_current(current_plan_->plan, ctx.cfg) ||
      (ctx.control != nullptr &&
       !current_plan_->plan.local_dnodes.empty())) {
    SuperstepResult res;  // step() owns attachment and invalidation
    res.bus = ctx.bus;
    return res;
  }
  SuperstepResult res = run_tape(*current_plan_, ctx);
  // Controller-driven cycles count their hits in the loop's lookup.
  if (ctx.control == nullptr) plan_hits_ += res.cycles;
  if (res.cycles > 0) {
    ++superstep_dispatches_;
    superstep_cycles_ += res.cycles;
  }
  return res;
}

Ring::SuperstepResult Ring::run_tape(PlanCacheEntry& start,
                                     const SuperstepContext& ctx) {
  SuperstepResult res;
  res.bus = ctx.bus;
  HostFifo& host_in = ctx.host_in;
  std::vector<Word>& host_out = ctx.host_out;
  ControlHook* const control = ctx.control;
  PlanCacheEntry* entry = &start;
  if (control == nullptr && !mode_synced_) {
    // First advancing cycle under this attachment.  Stall check before
    // any state is touched: a Dnode whose local-mode entry has not
    // committed yet fetches slot 0 — which is also where its counter
    // lands after the mode sync, so the tape phase chosen from
    // post-sync counters agrees.
    const CyclePlan& plan = entry->plan;
    std::size_t pops = plan.static_pops;
    for (const std::uint16_t i : plan.local_dnodes) {
      const std::uint8_t slot = last_mode_[i] == DnodeMode::kGlobal
                                    ? std::uint8_t{0}
                                    : locals_[i].counter();
      pops += plan.dnodes[i].local[slot].pops;
    }
    if (host_in.size() < pops) return res;  // step() replays it
    sync_modes(plan);
  }

  std::size_t phase = 0;
  bool tape_ran = false;  // `tape` ran a cycle since its last phase
  SuperstepTape* tape = &enter_tape(*entry, phase, tape_ran);
  // The immediates move only when the configuration does: between
  // dispatches, in a controller step (a page swap or a word write) or
  // at a replay's start, which reads every page's own.  Each of those
  // refills the running tape's constant slots.
  load_consts(*tape, ctx.cfg.live_imms());

  const std::size_t n = locals_.size();
  const TapeLayout lay{n};
  const std::uint16_t outs = lay.outs();
  // The two buffers.  Lowering a tape may move them (fit_stride), so
  // they are re-derived after each step that may lower one.
  const auto cur = [&] { return flat_.data() + cur_; };
  const auto nxt = [&] { return flat_.data() + (stride_ - cur_); };
  cur()[TapeLayout::kBus] = ctx.bus;
  std::size_t head = head_;       // window row of feedback depth 0
  std::uint64_t edges = 0;        // non-stalled cycles
  std::size_t prev_top = 0;
  bool have_prev_top = false;
  bool inert = false;
  bool driven = false;  // a Dnode drove the bus in the last cycle

  const auto sample_depth = [&] {
    if (ctx.probe.counts != nullptr) {
      const std::size_t d = host_in.size();
      ++ctx.probe.counts[ctx.probe.lut[d < ctx.probe.lut_max
                                           ? d
                                           : ctx.probe.lut_max]];
    }
  };

  // Controller loop traces: the trace to enter at the top of the next
  // cycle, the one replaying (since cycle replay_from of this run) and
  // the controller registers it runs on.
  const std::uint64_t code_id = control != nullptr ? control->code_id() : 0;
  rec_.on = false;
  LoopTrace* pending = nullptr;
  LoopTrace* replay = nullptr;
  std::uint64_t replay_from = 0;
  std::uint64_t* regs = nullptr;
  // Change the running tape at a cycle boundary.  The buffer written
  // next still holds the old tape's slots from two cycles ago.
  const auto switch_to = [&](SuperstepTape& t) {
    const Word* const c = cur();
    Word* const x = nxt();
    for (const std::uint16_t slot : tape->written) x[slot] = c[slot];
    tape = &t;
  };
  const auto stop_replay = [&] {
    end_replay(*replay, (res.cycles - replay_from) / replay->tape.period,
               phase, ctx.cfg, *control);
    replay = nullptr;
    entry = current_plan_;
  };

  // The cycles from `phase` that no guard can stop, the first admitted
  // by the caller: the budget left, what the host-input words feed, and
  // the output stop, which admits cycle j > 0 against host_out's size
  // at the top of cycle j - 1.  A replay's span runs whole iterations,
  // at most twice as many as the replay has run (one at first): a loop
  // exit ends it early (its branch guard), and the output range it
  // reserves stays within twice what the replay wrote.
  const auto span_len = [&] {
    const SuperstepTape& t = *tape;
    std::uint64_t k = ctx.max_cycles - res.cycles;
    if (replay != nullptr) {
      const std::uint64_t iters =
          std::max<std::uint64_t>(1, (res.cycles - replay_from) / t.period * 2);
      k = std::min(k, iters * t.period - phase);
    }
    k = std::min(k, tape_fit(t.pop_sum, phase, host_in.size()));
    const std::size_t stop = ctx.host_out_stop;
    if (stop != std::numeric_limits<std::size_t>::max()) {
      const std::size_t top = host_out.size();
      if (top >= stop) return std::uint64_t{1};
      const std::uint64_t fit = tape_fit(t.out_sum, phase, stop - top - 1);
      if (fit < k - 1) k = fit + 2;
    }
    return k;
  };

  // Run up to `k` cycles of `tape` from `phase` with no stop check: the
  // caller admitted the first (host_out held `top` words at its top)
  // and sized `k` so no budget, output-stop or host-input guard can stop
  // the rest.  A replay runs each cycle's recorded instruction first
  // and, from the second cycle on, guards its conditional branches: a
  // miss (the loop exit among them) ends the span before that cycle,
  // and the output reserved for the cycles not run is given back.
  // Returns the cycles run.  Not inlined: the loop keeps more of its
  // state in registers outside run_tape's frame.
  const auto run_span = [&](std::uint64_t k, std::size_t top,
                            auto replaying) __attribute__((noinline)) {
    constexpr bool kReplay = decltype(replaying)::value;
    const SuperstepTape& t = *tape;
    const std::size_t out_at = host_out.size();
    host_out.resize(out_at + tape_sum(t.out_sum, phase, k));
    Word* const out0 = host_out.data() + out_at;
    Word* out = out0;
    Word* last_out = out;  // the output cursor at the last cycle's top
    const TraceCycle* const rec = kReplay ? replay->cycles.data() : nullptr;
    const TapeOp* const ops = t.ops.data();
    const SuperstepTape::Phase* const phases = t.phases.data();
    const SuperstepTape::Gather* const gather = t.gather.data();
    const std::uint16_t* const carry = t.carry.data();
    const HostTapPlan* const taps = t.taps.data();
    const std::uint32_t* const effects = t.effects.data();
    const std::uint16_t pop0 = lay.pop(0);
    // Locals, not members: a replay's register writes cannot alias them.
    // (The window's slack and depth are read only when it relocates.)
    const std::size_t period = t.period;
    const std::size_t row = n;
    Word* const win = window_.data();
    Word* c = cur();
    Word* x = nxt();
    std::size_t h = head;
    std::size_t p = phase;
    bool drove = driven;
    const Word* const in0 = host_in.data();
    const Word* in = in0;  // the next host-input word
    std::uint64_t in_words = 0;  // a replay's: its INPOPs pop too
    std::uint64_t drives = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t j = 0;
    for (; j < k; ++j) {
      if constexpr (kReplay) {
        // The recorded instruction, inline: its page swap (if any) is
        // already the phase's plan, and its branch must resolve as
        // recorded.
        const TraceCycle& tc = rec[p];
        const RiscInstr& op = tc.instr;
        if (j > 0 && is_conditional(op.op) &&
            risc_taken(op.op, regs[op.ra], regs[op.rb]) != tc.taken) {
          break;
        }
        switch (op.op) {
          case RiscOp::kBusw:
            c[TapeLayout::kBus] = static_cast<Word>(regs[op.ra] & 0xFFFFu);
            break;
          case RiscOp::kRdbus:
            regs[op.rd] = c[TapeLayout::kBus];
            break;
          case RiscOp::kInpop:
            regs[op.rd] = *in++;
            break;
          case RiscOp::kNop:
          case RiscOp::kPage:
          case RiscOp::kBeq:
          case RiscOp::kBne:
          case RiscOp::kBlt:
          case RiscOp::kBge:
          case RiscOp::kJmp:
            break;
          default:
            regs[op.rd] = risc_alu(op, regs[op.rd], regs[op.ra], regs[op.rb]);
            break;
        }
      }

      // The phase: gather, ALU, latch into the next buffer.  The
      // gather copies this cycle's pops and the window words the phase
      // reads into their slots, so every operand is a slot of `c`.
      // Every per-op statistic is a tape constant, settled by
      // flush_tape() from the per-phase cycle counts.
      last_out = out;
      const SuperstepTape::Phase& at = phases[p];
      const SuperstepTape::Phase& end = phases[p + 1];
      for (std::uint32_t m = at.carry; m < end.carry; ++m) {
        x[carry[m]] = c[carry[m]];
      }
      const Word* const depth0 = win + h * row;
      for (std::uint32_t m = at.gather; m < end.gather; ++m) {
        c[gather[m].to] = depth0[gather[m].from];
      }
      const std::uint32_t pops = at.pops;
      std::uint32_t q = 0;
      // Four words a move.  Few tapes pop that many a cycle, but a
      // plain per-word loop measured slower even on tapes that pop
      // none: on an AVX-512 Xeon it moved the op loop's dispatch branch
      // across a 32-byte boundary (the jump-conditional-code erratum).
      for (; q + 4 <= pops; q += 4) {
        std::uint64_t w;
        std::memcpy(&w, in + q, sizeof w);
        std::memcpy(c + pop0 + q, &w, sizeof w);
      }
      for (; q < pops; ++q) c[pop0 + q] = in[q];
      for (std::uint32_t m = at.ops; m < at.alu; ++m) {
        const TapeOp& o = ops[m];
        const Word v = c[o.a];
        x[o.dst] = v;
        x[o.out] = v;
      }
      for (std::uint32_t m = at.alu; m < end.ops; ++m) {
        const TapeOp& o = ops[m];
        const Word v = alu_apply(
            o.op, [&] { return c[o.a]; }, [&] { return c[o.b]; },
            [&] { return c[o.c]; });
        x[o.dst] = v;
        x[o.out] = v;
      }
      in += pops;
      if constexpr (kReplay) in_words += pops;

      // Host output: switch taps first (switch order), then Dnode
      // hostEn results (Dnode order).  Bus: highest Dnode index wins.
      for (std::uint32_t m = at.taps; m < end.taps; ++m) {
        *out++ = c[outs + taps[m].src];
      }
      Word bus = c[TapeLayout::kBus];
      drove = false;
      for (std::uint32_t e = at.effects; e < end.effects; ++e) {
        const std::uint32_t m = effects[e];
        const Word v = x[ops[m].dst];
        if (ops[m].host_en) *out++ = v;
        if (ops[m].bus_en) {
          ++drives;
          if (drove) ++conflicts;
          drove = true;
          bus = v;
        }
      }
      x[TapeLayout::kBus] = bus;

      // Clock edge: every pipeline latches its upstream layer's
      // pre-edge outputs — one row of the shared window.
      push_window(win, h, window_slack_, (geom_.fb_depth - 1) * row, row,
                  c + outs);
      std::swap(c, x);
      if (++p == period) p = 0;
    }
    // Per-phase cycle counts: j / period rounds over every phase, then
    // the j % period phases from the span's first.
    std::uint64_t* const counts = tape->phase_cycles.data();
    if (const std::uint64_t rounds = j / period; rounds > 0) {
      for (std::size_t q = 0; q < period; ++q) counts[q] += rounds;
    }
    for (std::uint64_t q = phase, rest = j % period; rest > 0; --rest) {
      ++counts[q];
      if (++q == period) q = 0;
    }
    host_in.drop(static_cast<std::size_t>(in - in0));
    host_out.resize(static_cast<std::size_t>(out - host_out.data()));
    bus_drives_ += drives;
    bus_conflicts_ += conflicts;
    cur_ = static_cast<std::size_t>(c - flat_.data());
    head = h;
    phase = p;
    driven = drove;
    tape_ran = true;
    edges += j;
    res.cycles += j;
    res.host_words_in +=
        kReplay ? in_words : static_cast<std::uint64_t>(in - in0);
    res.host_words_out += static_cast<std::uint64_t>(out - out0);
    prev_top = top + static_cast<std::size_t>(last_out - out0);
    have_prev_top = true;
    return j;
  };

  for (;;) {
    if (res.cycles >= ctx.max_cycles || inert) break;
    const std::size_t top = host_out.size();
    // Output stop with the per-cycle host-visibility lag: the System's
    // run_until_outputs loop admits cycle c against a host mirror one
    // tick stale — host_out's size at the top of cycle c-1.
    if (have_prev_top && prev_top >= ctx.host_out_stop) break;
    // The cycle happens.  The host-FIFO depth histogram records depths
    // where System::step samples them (after the link tick, before any
    // pop): a span credits its cycles' run of depths at once.
    if (control == nullptr) {
      // Nothing can end a host-input stall inside the loop: hand back
      // so step() replays it.
      if (host_in.size() < tape->phases[phase].pops) break;
    } else {
      if (pending != nullptr) {
        // A loop head: replay when the machine is where the recording
        // began.  Falling into the head from the reset configuration or
        // a word-written image counts when it holds the entry page's
        // content; the live image then stays until the first PAGE.
        if (entry == pending->entry && mode_synced_ &&
            ctx.cfg.live_holds_page(pending->entry_page)) {
          // The replayed cycles go unrecorded: an enclosing loop's
          // recording would skip them.
          rec_.on = false;
          replay = pending;
          switch_to(replay->tape);
          queue_tape(*tape);
          load_consts(*tape, ctx.cfg.page_imms());
          phase = 0;
          tape_ran = false;
          replay_from = res.cycles;
          regs = control->registers();
        }
        pending = nullptr;
      }
      if (replay != nullptr) {
        // Guards: the INPOP word and the phase's host pops are there,
        // and a conditional branch resolves the way it was recorded.
        const TraceCycle& c = replay->cycles[phase];
        const RiscInstr& in = c.instr;
        if (host_in.size() <
                tape->phases[phase].pops +
                    (in.op == RiscOp::kInpop ? 1u : 0u) ||
            (is_conditional(in.op) &&
             risc_taken(in.op, regs[in.ra], regs[in.rb]) != c.taken)) {
          stop_replay();
          switch_to(enter_tape(*entry, phase, tape_ran));
          continue;  // the cycle runs through the controller step
        }
      } else {
        sample_depth();
        const Word bus_top = cur()[TapeLayout::kBus];
        const ControlHook::Step cs =
            control->step(bus_top, ctx.cycle + res.cycles);
        inert = cs.inert;
        if (cs.bus_drive) cur()[TapeLayout::kBus] = *cs.bus_drive;
        PlanCacheEntry* const next = lookup(ctx.cfg);
        if (next != entry) {
          if (next == nullptr || !next->plan.local_dnodes.empty()) {
            // step() finishes this cycle from this lookup: the
            // interpreter or a local-mode plan.
            cur()[TapeLayout::kBus] = bus_top;
            res.out_size_at_last_top = top;
            res.ring_pending = true;
            handoff_ = next;
            break;
          }
          entry = next;
          switch_to(enter_tape(*entry, phase, tape_ran));
        }
        load_consts(*tape, ctx.cfg.live_imms());
        const bool stalled = host_in.size() < tape->phases[phase].pops;
        // Only a recording, a backward jump or an arrival at the
        // trace's head has anything to note.
        if (rec_.on ||
            (cs.instr != nullptr &&
             (cs.next_pc <= cs.pc ||
              (trace_ != nullptr && cs.next_pc == trace_->head)))) {
          pending = note_step(cs, entry, ctx.cfg, stalled, code_id);
        }
        if (stalled) {
          ++res.ring_stalls;  // systolic back-pressure: nothing advances
          ++res.cycles;
          prev_top = top;
          have_prev_top = true;
          continue;
        }
        if (!mode_synced_) sync_modes(entry->plan);
        run_span(1, top, std::false_type{});
        continue;
      }
    }
    const std::size_t depth = host_in.size();
    const std::size_t from = phase;
    const std::uint64_t k = span_len();
    const std::uint64_t ran = replay != nullptr
                                  ? run_span(k, top, std::true_type{})
                                  : run_span(k, top, std::false_type{});
    credit_depths(ctx.probe, tape->pop_sum, from, ran, depth);
  }
  if (replay != nullptr) stop_replay();

  head_ = head;
  edges_ += edges;
  if (tape_ran) {
    last_tape_ = tape;
    last_phase_ = (phase == 0 ? tape->period : phase) - 1;
  }
  res.bus = cur()[TapeLayout::kBus];
  res.bus_driven = driven;
  if (!res.ring_pending) res.out_size_at_last_top = prev_top;
  for (SuperstepTape* const t : ran_) {
    flush_tape(*t, res);
    t->queued = false;
  }
  ran_.clear();
  // Every plan a run executes has the same mode split: the entry plan
  // alone, or global-mode pages only.
  for (const std::uint16_t i : entry->plan.local_dnodes) {
    LocalControl& lc = locals_[i];
    if (edges == 1) {
      lc.advance();
    } else {
      lc.advance_by(edges);
    }
    local_cycles_per_dnode_[i] += edges;
  }
  for (const std::uint16_t i : entry->plan.global_dnodes) {
    global_cycles_per_dnode_[i] += edges;
  }
  return res;
}

// --- controller loop traces ---------------------------------------------

namespace {

/// Instructions a loop tape replays inline: no configuration write
/// other than an immediate page swap, no stall, nothing that reads the
/// cycle counter or the FIFO fill levels or writes the output FIFO.
bool traceable(RiscOp op) noexcept {
  switch (op) {
    case RiscOp::kNop:
    case RiscOp::kLdi:
    case RiscOp::kLdih:
    case RiscOp::kMov:
    case RiscOp::kAdd:
    case RiscOp::kSub:
    case RiscOp::kMul:
    case RiscOp::kAnd:
    case RiscOp::kOr:
    case RiscOp::kXor:
    case RiscOp::kShl:
    case RiscOp::kShr:
    case RiscOp::kAsr:
    case RiscOp::kAddi:
    case RiscOp::kBeq:
    case RiscOp::kBne:
    case RiscOp::kBlt:
    case RiscOp::kBge:
    case RiscOp::kJmp:
    case RiscOp::kBusw:
    case RiscOp::kRdbus:
    case RiscOp::kInpop:
    case RiscOp::kPage:
      return true;
    default:
      return false;
  }
}

}  // namespace

Ring::LoopTrace* Ring::note_step(const ControlHook::Step& cs,
                                 PlanCacheEntry* entry,
                                 const ConfigMemory& cfg, bool stalled,
                                 std::uint64_t code_id) {
  const std::ptrdiff_t page = cfg.live_page();
  if (rec_.on) {
    if (cs.instr == nullptr || !traceable(cs.instr->op) || stalled ||
        page < 0 || cs.pc != rec_.next_pc ||
        rec_.cycles.size() == kMaxTraceCycles) {
      rec_.on = false;
    } else {
      TraceCycle& c = rec_.cycles.emplace_back(
          TraceCycle{*cs.instr, cs.pc, entry, static_cast<std::uint32_t>(page),
                     cs.next_pc != cs.pc + 1});
      rec_.next_pc = cs.next_pc;
      // The iteration closes at a branch back to the head, taken or not
      // (the last iteration falls through): the replay expects it taken
      // and guards it like any other branch.
      const bool closes =
          is_branch(c.instr.op) &&
          c.pc + 1 + static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(c.instr.imm)) ==
              rec_.head;
      if (closes || cs.next_pc == rec_.head) {
        c.taken = c.taken || closes;
        rec_.on = false;
        lower_trace(cfg, code_id);
      }
    }
  }
  // Loop heads are where a taken branch goes back to; the trace's head
  // replays however it is reached (the first iteration falls into it).
  if (cs.instr == nullptr) return nullptr;
  LoopTrace* const t = trace_.get();
  if (t != nullptr && t->head == cs.next_pc && t->code_id == code_id &&
      t->epoch == index_epoch_ && t->tape.valid &&
      page_index_uid_ == cfg.uid() &&
      page_index_local_gen_ == local_generation_) {
    return t;
  }
  if (!rec_.on && page >= 0 && cs.next_pc <= cs.pc &&
      is_branch(cs.instr->op)) {
    rec_.on = true;
    rec_.head = cs.next_pc;
    rec_.next_pc = cs.next_pc;
    rec_.entry = entry;
    rec_.entry_page = static_cast<std::size_t>(page);
    rec_.cycles.clear();
  }
  return nullptr;
}

void Ring::lower_trace(const ConfigMemory& cfg, std::uint64_t code_id) {
  // A replay credits every PAGE as a page-index hit, so every page the
  // iteration visits must index the plan it ran, and the iteration
  // must end on the page and plan it began with.  A trace this
  // dispatch replayed stays until the flush.
  if (page_index_uid_ != cfg.uid() ||
      page_index_local_gen_ != local_generation_ ||
      (trace_ != nullptr && trace_->tape.queued)) {
    return;
  }
  const auto indexed_at = [&](std::size_t p) {
    return p < page_index_.size() ? page_index_[p] : nullptr;
  };
  const std::vector<TraceCycle>& rec = rec_.cycles;
  if (indexed_at(rec_.entry_page) != rec_.entry ||
      rec.back().page != rec_.entry_page || rec.back().plan != rec_.entry) {
    return;
  }
  const std::size_t width = kCreditRoutes + geom_.switch_count();
  std::vector<std::uint64_t> credit(width);
  std::size_t from = rec_.entry_page;
  for (const TraceCycle& c : rec) {
    credit.resize(credit.size() + width);
    std::uint64_t* const row = credit.data() + credit.size() - width;
    std::copy_n(row - width, width, row);
    if (c.instr.op == RiscOp::kPage) {
      const auto routes = cfg.swap_route_changes(from, c.page);
      if (indexed_at(c.page) != c.plan || routes.empty()) return;
      for (std::size_t sw = 0; sw < routes.size(); ++sw) {
        row[kCreditRoutes + sw] += routes[sw];
      }
      ++row[kCreditSwaps];
    }
    row[kCreditBusWrites] += c.instr.op == RiscOp::kBusw ? 1 : 0;
    from = c.page;
  }

  std::vector<const CyclePlan*> plans;
  std::vector<std::size_t> pages;
  for (const TraceCycle& c : rec) {
    plans.push_back(&c.plan->plan);
    pages.push_back(c.page);
  }
  if (trace_ == nullptr) trace_ = std::make_unique<LoopTrace>();
  LoopTrace& t = *trace_;
  t.code_id = code_id;
  t.head = rec_.head;
  t.epoch = index_epoch_;
  t.entry = rec_.entry;
  t.entry_page = rec_.entry_page;
  t.cycles.swap(rec_.cycles);
  t.cycles.shrink_to_fit();
  t.credit = std::move(credit);
  compile_loop_tape(geom_, plans, pages, locals_, t.tape);
  if (!t.tape.valid) return;
  fit_stride(t.tape);
  // A replayed INPOP takes its word from the ring's input FIFO too.
  std::uint32_t inpops = 0;
  for (std::size_t i = 0; i < t.cycles.size(); ++i) {
    inpops += t.cycles[i].instr.op == RiscOp::kInpop ? 1u : 0u;
    t.tape.pop_sum[i + 1] += inpops;
  }
}

void Ring::end_replay(LoopTrace& t, std::uint64_t iters, std::size_t at,
                      const ConfigMemory& cfg, ControlHook& control) {
  const std::size_t len = t.cycles.size();
  const std::uint64_t cycles = iters * len + at;
  if (cycles == 0) return;
  // What the skipped steps would have counted: `iters` whole
  // iterations and the first `at` cycles of the next.
  const std::size_t width = t.credit.size() / (len + 1);
  const std::uint64_t* const whole = t.credit.data() + len * width;
  const std::uint64_t* const part = t.credit.data() + at * width;
  credit_.resize(width);
  for (std::size_t k = 0; k < width; ++k) {
    credit_[k] = iters * whole[k] + part[k];
  }
  const std::uint64_t swaps = credit_[kCreditSwaps];

  // Every PAGE re-attached its plan through the page index: one
  // invalidation, one content hit and one LRU tick each.  The last
  // attach of each plan sets its LRU stamp: the partial iteration's,
  // else the last whole iteration's.
  const std::uint64_t clock = plan_use_clock_;
  const std::uint64_t per_iter = whole[kCreditSwaps];
  std::uint64_t rank = 0;  // PAGE cycles before j in an iteration
  for (std::size_t j = 0; j < len; ++j) {
    if (t.cycles[j].instr.op != RiscOp::kPage) continue;
    ++rank;
    const std::uint64_t iter = j < at ? iters : iters - 1;
    if (j < at || iters > 0) {
      PlanCacheEntry* const e = t.cycles[j].plan;
      e->last_use = std::max(e->last_use, clock + iter * per_iter + rank);
    }
  }
  plan_use_clock_ = clock + swaps;
  plan_hits_ += cycles;
  plan_invalidations_ += swaps;
  plan_content_hits_ += swaps;
  trace_cycles_ += cycles;

  control.credit_replay(
      {.instructions = cycles,
       .bus_writes = credit_[kCreditBusWrites],
       .pc = t.cycles[at].pc,
       .swaps = swaps,
       .page = at == 0 ? t.entry_page : t.cycles[at - 1].page,
       .route_changes =
           std::span<const std::uint64_t>(credit_).subspan(kCreditRoutes)});
  if (swaps > 0) {
    PlanCacheEntry* const e = at == 0 ? t.entry : t.cycles[at - 1].plan;
    e->plan.cfg_uid = cfg.uid();
    e->plan.cfg_generation = cfg.generation();
    e->plan.local_generation = local_generation_;
    current_plan_ = e;
  }
}

}  // namespace sring
