#include "core/ring.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"
#include "core/local_control.hpp"

namespace sring {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFFu;
    h *= kFnvPrime;
  }
}

}  // namespace

Ring::Ring(const RingGeometry& g) : geom_(g) {
  geom_.validate();
  dnodes_.resize(geom_.dnode_count());
  pipes_.reserve(geom_.switch_count());
  for (std::size_t s = 0; s < geom_.switch_count(); ++s) {
    pipes_.emplace_back(geom_.lanes, geom_.fb_depth);
  }
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
  pre_outs_.assign(geom_.dnode_count(), 0);
  local_slot_.assign(geom_.dnode_count(), 0);
  exec_scratch_.reserve(geom_.dnode_count());
  const TapeLayout lay{geom_.dnode_count()};
  flat_.assign(2 * lay.size(), 0);
  // Enough slack rows that relocating the window (fb_depth - 1 rows)
  // is rare next to the one-row push every cycle.
  window_slack_ = std::max<std::size_t>(geom_.fb_depth,
                                        4096 / geom_.dnode_count());
  window_.assign((window_slack_ + geom_.fb_depth) * geom_.dnode_count(), 0);
  op_vals_.assign(geom_.dnode_count(), 0);
  const char* no_plan = std::getenv("SRING_NO_PLAN_CACHE");
  plan_enabled_ = no_plan == nullptr || *no_plan == '\0';
}

std::size_t Ring::flat_index(std::size_t layer, std::size_t lane) const {
  check(layer < geom_.layers && lane < geom_.lanes,
        "Ring: dnode coordinates out of range");
  return layer * geom_.lanes + lane;
}

std::size_t Ring::upstream_layer(std::size_t layer) const noexcept {
  return (layer + geom_.layers - 1) % geom_.layers;
}

Dnode& Ring::dnode(std::size_t layer, std::size_t lane) {
  // The caller may mutate output registers directly (test harnesses
  // do): the planned path's cached pre-edge vector goes stale.
  pre_outs_valid_ = false;
  return dnodes_[flat_index(layer, lane)];
}

const Dnode& Ring::dnode(std::size_t layer, std::size_t lane) const {
  return dnodes_[flat_index(layer, lane)];
}

Dnode& Ring::dnode_flat(std::size_t index) {
  check(index < dnodes_.size(), "Ring: dnode index out of range");
  pre_outs_valid_ = false;
  return dnodes_[index];
}

const Dnode& Ring::dnode_flat(std::size_t index) const {
  check(index < dnodes_.size(), "Ring: dnode index out of range");
  return dnodes_[index];
}

const FeedbackPipeline& Ring::pipeline(std::size_t sw) const {
  check(sw < pipes_.size(), "Ring: switch index out of range");
  return pipes_[sw];
}

void Ring::write_local(std::size_t dnode_index, std::size_t slot,
                       std::uint64_t value) {
  check(dnode_index < dnodes_.size(), "Ring: dnode index out of range");
  dnodes_[dnode_index].local().write(slot, value);
  ++local_generation_;
}

Word Ring::read_feedback(const FeedbackAddr& addr) const {
  check(addr.pipe < pipes_.size(), "Ring: feedback pipe out of range");
  return pipes_[addr.pipe].read(addr.lane, addr.depth);
}

void Ring::note_fb_read(const FeedbackAddr& addr) {
  ++fb_reads_per_pipe_[addr.pipe];
  ++fb_read_depth_counts_[addr.pipe * geom_.fb_depth + addr.depth];
}

void Ring::set_plan_cache_enabled(bool enabled) noexcept {
  plan_enabled_ = enabled;
  if (!enabled) current_plan_ = nullptr;
}

void Ring::reset_arch_state() {
  for (auto& d : dnodes_) d.reset();
  for (auto& p : pipes_) p.reset();
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
  // A dispatch cut short by a controller fault leaves unflushed tapes.
  for (auto& e : plan_cache_) {
    std::fill(e->tape.phase_cycles.begin(), e->tape.phase_cycles.end(), 0);
  }
  current_plan_ = nullptr;
  mode_synced_ = false;
  synced_local_.clear();
  synced_valid_ = true;
  pre_outs_valid_ = false;
  local_generation_ = 0;
  local_hash_gen_ = ~std::uint64_t{0};
  unfuse();
  plan_compiles_ = 0;
  plan_hits_ = 0;
  plan_invalidations_ = 0;
  plan_content_hits_ = 0;
  plan_evictions_ = 0;
  plan_seq_fusions_ = 0;
  plan_seq_hits_ = 0;
}

void Ring::reset() {
  reset_arch_state();
  // Drop the whole plan cache so a reset System replays identically to
  // a fresh one, counters included.
  plan_cache_.clear();
  plan_use_clock_ = 0;
}

void Ring::reset_for_rerun() {
  reset_arch_state();
  // Keep compiled plans but drop their provenance hints: the rerun's
  // configuration is a fresh image (reset_live + reprogramming), so
  // the first re-attachment of every entry must re-verify the full
  // content before the O(1) hint is re-established.  A rerun with a
  // different program therefore misses cleanly.
  for (auto& e : plan_cache_) {
    e->src_uid = 0;
    e->src_page = -1;
  }
}

Ring::CycleResult Ring::step(const ConfigMemory& cfg, Word bus,
                             HostFifo& host_in,
                             std::vector<Word>& host_out) {
  check(cfg.geometry().layers == geom_.layers &&
            cfg.geometry().lanes == geom_.lanes,
        "Ring::step: configuration memory geometry mismatch");

  if (!plan_enabled_) return step_interpreted(cfg, bus, host_in, host_out);

  if (current_plan_ != nullptr) {
    const CyclePlan& plan = current_plan_->plan;
    if (plan_current(plan, cfg)) {
      ++plan_hits_;
      return step_planned(plan, bus, host_in, host_out);
    }
    current_plan_ = nullptr;
    ++plan_invalidations_;
  }

  // The configuration changed.  Fused sequence first: if the rotation
  // was recognized, the predicted successor re-attaches after an O(1)
  // provenance check — no hashing, no cache scan.
  if (seq_fused_) {
    PlanCacheEntry* const pred = seq_[seq_pos_];
    if (hint_matches(*pred, cfg)) {
      seq_pos_ = (seq_pos_ + 1) % seq_.size();
      ++plan_seq_hits_;
      ++plan_content_hits_;
      ++plan_hits_;
      attach_plan(pred, cfg);
      return step_planned(pred->plan, bus, host_in, host_out);
    }
  }

  // Content-keyed lookup: hash the live configuration and scan the
  // cache (hint or full-content verified).
  const std::uint64_t key = live_key_hash(cfg);
  PlanCacheEntry* const e = find_entry(cfg, key);
  if (seq_fused_) {
    // The hint couldn't prove the prediction (e.g. word-written
    // content with no page provenance).  Reconcile with the lookup:
    // the predicted entry keeps the fusion, anything else breaks it.
    if (e != nullptr && e == seq_[seq_pos_]) {
      seq_pos_ = (seq_pos_ + 1) % seq_.size();
    } else {
      unfuse();
    }
  }
  if (e == nullptr) {
    insert_entry(cfg, key)->sightings = 1;
    return step_interpreted(cfg, bus, host_in, host_out);
  }
  if (e->compiled) {
    ++plan_content_hits_;
    ++plan_hits_;
    attach_plan(e, cfg);
    return step_planned(e->plan, bus, host_in, host_out);
  }
  if (++e->sightings >= 2) {
    // Second sighting of this content: compile.  compile throws
    // exactly where the interpreter would reject the configuration at
    // execution time.
    compile_cycle_plan(geom_, cfg, dnodes_, e->plan);
    e->plan.valid = true;
    e->compiled = true;
    e->tape.valid = false;
    ++plan_compiles_;
    attach_plan(e, cfg);
    return step_planned(e->plan, bus, host_in, host_out);
  }
  // First sighting: interpret, compile if the content ever recurs.
  return step_interpreted(cfg, bus, host_in, host_out);
}

// --- plan cache internals ----------------------------------------------

std::uint64_t Ring::local_content_hash() {
  if (local_hash_gen_ == local_generation_) return local_hash_;
  std::uint64_t h = kFnvOffset;
  for (const Dnode& d : dnodes_) {
    const LocalControl& lc = d.local();
    fnv_mix(h, lc.limit());
    for (const std::uint64_t w : lc.raw_slots()) fnv_mix(h, w);
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
              dnodes_.size() * (1 + kLocalProgramSlots));
  out.insert(out.end(), iw.begin(), iw.end());
  for (const std::uint8_t b : mb) out.push_back(b);
  out.insert(out.end(), rw.begin(), rw.end());
  for (const Dnode& d : dnodes_) {
    const LocalControl& lc = d.local();
    out.push_back(lc.limit());
    const auto& slots = lc.raw_slots();
    out.insert(out.end(), slots.begin(), slots.end());
  }
}

bool Ring::content_matches(const ConfigMemory& cfg,
                           const std::vector<std::uint64_t>& content) const {
  const auto& iw = cfg.live_instr_words();
  const auto& mb = cfg.live_mode_bytes();
  const auto& rw = cfg.live_route_words();
  const std::size_t total = iw.size() + mb.size() + rw.size() +
                            dnodes_.size() * (1 + kLocalProgramSlots);
  if (content.size() != total) return false;
  std::size_t k = 0;
  for (const std::uint64_t w : iw) {
    if (content[k++] != w) return false;
  }
  for (const std::uint8_t b : mb) {
    if (content[k++] != b) return false;
  }
  for (const std::uint64_t w : rw) {
    if (content[k++] != w) return false;
  }
  for (const Dnode& d : dnodes_) {
    const LocalControl& lc = d.local();
    if (content[k++] != lc.limit()) return false;
    for (const std::uint64_t w : lc.raw_slots()) {
      if (content[k++] != w) return false;
    }
  }
  return true;
}

Ring::PlanCacheEntry* Ring::find_entry(const ConfigMemory& cfg,
                                       std::uint64_t key) {
  for (auto& p : plan_cache_) {
    if (p->key_hash != key) continue;
    if (hint_matches(*p, cfg) || content_matches(cfg, p->content)) {
      // Content verified: (re-)establish the O(1) provenance hint for
      // the next sighting and protect the entry from eviction.
      p->src_uid = cfg.uid();
      p->src_page = cfg.live_page();
      p->src_local_gen = local_generation_;
      p->last_use = ++plan_use_clock_;
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
    // The sequence history may reference the victim — drop it.
    e = plan_cache_.front().get();
    for (auto& p : plan_cache_) {
      if (p->last_use < e->last_use) e = p.get();
    }
    ++plan_evictions_;
    unfuse();
    e->compiled = false;
    e->plan.valid = false;
    e->content.clear();
  }
  e->key_hash = key;
  build_content(cfg, e->content);
  e->src_uid = cfg.uid();
  e->src_page = cfg.live_page();
  e->src_local_gen = local_generation_;
  e->sightings = 0;
  e->last_use = ++plan_use_clock_;
  return e;
}

void Ring::attach_plan(PlanCacheEntry* e, const ConfigMemory& cfg) {
  CyclePlan& plan = e->plan;
  plan.cfg_uid = cfg.uid();
  plan.cfg_generation = cfg.generation();
  plan.local_generation = local_generation_;
  e->src_uid = cfg.uid();
  e->src_page = cfg.live_page();
  e->src_local_gen = local_generation_;
  e->last_use = ++plan_use_clock_;
  // The sync would rewrite last_mode_ to what it already holds when
  // the local set is unchanged (page rotations over global-mode pages).
  mode_synced_ = synced_valid_ && plan.local_dnodes == synced_local_;
  current_plan_ = e;
  note_attach(e);
}

void Ring::sync_modes(const CyclePlan& plan) {
  for (const std::uint16_t i : plan.local_dnodes) {
    if (last_mode_[i] == DnodeMode::kGlobal) {
      dnodes_[i].local().reset_counter();
    }
    last_mode_[i] = DnodeMode::kLocal;
  }
  for (const std::uint16_t i : plan.global_dnodes) {
    last_mode_[i] = DnodeMode::kGlobal;
  }
  synced_local_ = plan.local_dnodes;
  synced_valid_ = true;
  mode_synced_ = true;
}

void Ring::note_attach(PlanCacheEntry* e) {
  if (seq_fused_) return;  // prediction owns the cursor while fused
  plan_history_.push_back(e);
  if (plan_history_.size() > 3 * kMaxSuperstepPeriod) {
    plan_history_.erase(
        plan_history_.begin(),
        plan_history_.end() -
            static_cast<std::ptrdiff_t>(2 * kMaxSuperstepPeriod));
  }
  // Periodic rotation: the last p attachments repeat the p before
  // them.  The inner loop's first compare (current entry vs the one a
  // period ago) prunes almost every candidate period immediately.
  const std::size_t h = plan_history_.size();
  const std::size_t max_p = std::min(kMaxSuperstepPeriod, h / 2);
  for (std::size_t p = 1; p <= max_p; ++p) {
    bool match = true;
    for (std::size_t k = 0; k < p; ++k) {
      if (plan_history_[h - 1 - k] != plan_history_[h - 1 - p - k]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    seq_.assign(plan_history_.end() - static_cast<std::ptrdiff_t>(p),
                plan_history_.end());
    seq_pos_ = 0;
    seq_fused_ = true;
    ++plan_seq_fusions_;
    plan_history_.clear();
    return;
  }
}

void Ring::unfuse() noexcept {
  seq_.clear();
  seq_pos_ = 0;
  seq_fused_ = false;
  plan_history_.clear();
}

// --- cycle execution ----------------------------------------------------

void Ring::commit_edge() {
  const std::size_t n = geom_.dnode_count();
  // Capture pre-edge output vectors: these are what the feedback
  // pipelines and host-out taps latch at this clock edge.
  for (std::size_t i = 0; i < n; ++i) {
    pre_outs_[i] = dnodes_[i].out();
  }
  for (std::size_t i = 0; i < n; ++i) {
    dnodes_[i].commit(is_local_[i]);
  }
  for (std::size_t s = 0; s < geom_.switch_count(); ++s) {
    const std::size_t up = upstream_layer(s);
    pipes_[s].push_from(pre_outs_.data() + up * geom_.lanes);
  }
  pre_outs_valid_ = false;  // pre_outs_ now holds pre-edge values
}

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
                        ? &dnodes_[i].local().instr_at(0)
                        : &dnodes_[i].local().current();
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
      if (last_mode_[i] == DnodeMode::kGlobal) {
        dnodes_[i].local().reset_counter();
      }
      last_mode_[i] = DnodeMode::kLocal;
      ++local_cycles_per_dnode_[i];
    } else {
      last_mode_[i] = DnodeMode::kGlobal;
      ++global_cycles_per_dnode_[i];
    }
  }

  // Phase 3+4: route and execute.  Routing reads only pre-edge state
  // (output registers, pipelines, bus), so evaluation order across
  // Dnodes does not matter except for the documented host pop order.
  for (std::size_t layer = 0; layer < geom_.layers; ++layer) {
    const std::size_t up = upstream_layer(layer);
    for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
      const std::size_t i = layer * geom_.lanes + lane;
      effects_[i] = Dnode::Effects{};
      const DnodeInstr& instr = *fetched_[i];
      if (instr.op == DnodeOp::kNop) continue;
      const SwitchRoute& route = cfg.switch_route(layer, lane);

      Dnode::Inputs in;
      const auto resolve_port = [&](const PortRoute& p,
                                    bool pops) -> Word {
        switch (p.kind) {
          case RouteKind::kZero:
            return 0;
          case RouteKind::kPrev:
            check(p.lane < geom_.lanes, "Ring: route lane out of range");
            return dnodes_[flat_index(up, p.lane)].out();
          case RouteKind::kHost: {
            if (!pops) return 0;
            const Word w = host_in.front();
            host_in.pop_front();
            ++result.host_words_in;
            return w;
          }
          case RouteKind::kFeedback:
            return read_feedback(p.fb);
          case RouteKind::kBus:
            return bus;
          case RouteKind::kKindCount:
            break;
        }
        throw SimError("Ring: bad route kind");
      };

      in.in1 = resolve_port(route.in1, needs_[i].in1_host);
      in.in2 = resolve_port(route.in2, needs_[i].in2_host);
      in.fifo1 = read_feedback(route.fifo1);
      in.fifo2 = read_feedback(route.fifo2);
      in.bus = bus;
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
      if (needs_[i].direct_host) {
        in.host = host_in.front();
        host_in.pop_front();
        ++result.host_words_in;
      }

      effects_[i] = dnodes_[i].execute(instr, in);
      if (effects_[i].executed) {
        ++result.ops;
        const bool is_mac =
            instr.op == DnodeOp::kMac || instr.op == DnodeOp::kMsu;
        result.arith_ops += is_mac ? 2 : 1;
        ++ops_per_dnode_[i];
        if (is_mac) ++mac_ops_per_dnode_[i];
      }
    }
  }

  // Phase 5: commit, then host output: switch taps first (switch
  // order), then Dnode hostEn results (dnode order).  Bus drive:
  // highest dnode index wins.
  commit_edge();
  for (std::size_t s = 0; s < geom_.switch_count(); ++s) {
    for (std::size_t lane = 0; lane < geom_.lanes; ++lane) {
      const SwitchRoute& route = cfg.switch_route(s, lane);
      if (route.host_out_en) {
        check(route.host_out_lane < geom_.lanes,
              "Ring: host-out lane out of range");
        host_out.push_back(
            pre_outs_[upstream_layer(s) * geom_.lanes + route.host_out_lane]);
        ++result.host_words_out;
        ++host_out_words_per_switch_[s];
      }
    }
  }
  drain_effects(result, host_out);
  return result;
}

Ring::CycleResult Ring::step_planned(const CyclePlan& plan, Word bus,
                                     HostFifo& host_in,
                                     std::vector<Word>& host_out) {
  CycleResult result;

  // Pops this cycle: static (global-mode) schedule plus the current
  // slot of every local program.  A Dnode whose local-mode entry has
  // not committed yet (stall pending) fetches slot 0.
  std::size_t pops_needed = plan.static_pops;
  for (const std::uint16_t i : plan.local_dnodes) {
    const std::uint8_t slot = last_mode_[i] == DnodeMode::kGlobal
                                  ? std::uint8_t{0}
                                  : dnodes_[i].local().counter();
    local_slot_[i] = slot;
    pops_needed += plan.dnodes[i].local[slot].pops;
  }
  if (host_in.size() < pops_needed) {
    result.stalled = true;
    return result;  // systolic back-pressure: nothing advances
  }

  // Modes cannot change while the plan stays attached, so the sync
  // runs at most once per attach.
  if (!mode_synced_) sync_modes(plan);
  for (const std::uint16_t i : plan.local_dnodes) {
    ++local_cycles_per_dnode_[i];
  }
  for (const std::uint16_t i : plan.global_dnodes) {
    ++global_cycles_per_dnode_[i];
  }

  // Standing invariant between planned cycles: pre_outs_[i] mirrors
  // every output register at the top of the cycle, so the edge below
  // needs to refresh only the Dnodes that executed.  Interpreted or
  // fused cycles in between break the invariant and it is rebuilt
  // here once.
  const std::size_t n = dnodes_.size();
  if (!pre_outs_valid_) {
    for (std::size_t i = 0; i < n; ++i) {
      pre_outs_[i] = dnodes_[i].out();
    }
    pre_outs_valid_ = true;
  }

  if (trace_views_) {
    // Event tracing consumes per-Dnode fetch/effect views for ALL
    // Dnodes; keep them exact only when a sink is attached.
    for (std::size_t i = 0; i < n; ++i) {
      const PlannedDnode& pd = plan.dnodes[i];
      const PlannedSlot& ps =
          pd.is_local ? pd.local[local_slot_[i]] : pd.global;
      fetched_[i] = &ps.instr;
      effects_[i] = Dnode::Effects{};
    }
  }

  // Execute: only Dnodes with a reachable non-NOP slot, ascending —
  // which preserves the documented host pop order exactly.
  exec_scratch_.clear();
  for (const std::uint16_t i : plan.exec_dnodes) {
    const PlannedDnode& pd = plan.dnodes[i];
    const PlannedSlot& ps =
        pd.is_local ? pd.local[local_slot_[i]] : pd.global;
    if (ps.nop) continue;

    Dnode::Inputs in;
    in.bus = bus;
    const auto resolve = [&](PlannedSlot::Port kind, std::uint16_t prev,
                             const FeedbackAddr& fb) -> Word {
      switch (kind) {
        case PlannedSlot::Port::kZero:
          return 0;
        case PlannedSlot::Port::kPrev:
          return pre_outs_[prev];
        case PlannedSlot::Port::kHost: {
          const Word w = host_in.front();
          host_in.pop_front();
          ++result.host_words_in;
          return w;
        }
        case PlannedSlot::Port::kFeedback:
          note_fb_read(fb);
          return pipes_[fb.pipe].read_fast(fb.lane, fb.depth);
        case PlannedSlot::Port::kBus:
          return bus;
      }
      return 0;
    };
    in.in1 = resolve(ps.in1, ps.in1_prev, ps.in1_fb);
    in.in2 = resolve(ps.in2, ps.in2_prev, ps.in2_fb);
    if (ps.read_fifo1) {
      in.fifo1 = pipes_[ps.fifo1.pipe].read_fast(ps.fifo1.lane, ps.fifo1.depth);
      note_fb_read(ps.fifo1);
    }
    if (ps.read_fifo2) {
      in.fifo2 = pipes_[ps.fifo2.pipe].read_fast(ps.fifo2.lane, ps.fifo2.depth);
      note_fb_read(ps.fifo2);
    }
    if (ps.direct_pop) {
      in.host = host_in.front();
      host_in.pop_front();
      ++result.host_words_in;
    }

    effects_[i] = dnodes_[i].execute(ps.instr, in);
    exec_scratch_.push_back(i);
    ++result.ops;
    result.arith_ops += ps.is_mac ? 2u : 1u;
    ++ops_per_dnode_[i];
    if (ps.is_mac) ++mac_ops_per_dnode_[i];
  }

  // Clock edge.  pre_outs_ holds the pre-edge output vector (the
  // invariant), so pipelines and taps latch from it directly;
  // committing only the executed Dnodes plus one counter advance per
  // local Dnode is equivalent to the interpreter's commit_edge().
  for (std::size_t s = 0; s < geom_.switch_count(); ++s) {
    pipes_[s].push_from(pre_outs_.data() + upstream_layer(s) * geom_.lanes);
  }
  for (const HostTapPlan& tap : plan.host_taps) {
    host_out.push_back(pre_outs_[tap.src]);
    ++result.host_words_out;
    ++host_out_words_per_switch_[tap.sw];
  }
  for (const std::uint16_t i : exec_scratch_) {
    dnodes_[i].commit(false);
  }
  for (const std::uint16_t i : plan.local_dnodes) {
    dnodes_[i].local().advance();
  }
  for (const std::uint16_t i : exec_scratch_) {
    pre_outs_[i] = dnodes_[i].out();  // restore the invariant
  }

  // Host output (after the taps above) and bus drives, ascending Dnode
  // order: highest index wins the bus.
  for (const std::uint16_t i : exec_scratch_) {
    const Dnode::Effects& eff = effects_[i];
    if (eff.host_en) {
      host_out.push_back(eff.result);
      ++result.host_words_out;
    }
    if (eff.bus_en) {
      ++bus_drives_;
      if (result.bus_drive.has_value()) ++bus_conflicts_;
      result.bus_drive = eff.result;
    }
  }
  return result;
}

// --- superstep engine ---------------------------------------------------

SuperstepTape& Ring::tape_for(PlanCacheEntry& e, std::size_t& phase) {
  SuperstepTape& t = e.tape;
  if (t.valid) {
    const std::ptrdiff_t p = tape_phase(t, e.plan, dnodes_);
    if (p >= 0) {
      phase = static_cast<std::size_t>(p);
      return t;
    }
  }
  compile_tape(geom_, e.plan, dnodes_, t);
  phase = 0;
  return t;
}

void Ring::load_flat(Word bus) {
  const std::size_t n = dnodes_.size();
  const TapeLayout lay{n};
  Word* const s = flat_.data();
  s[TapeLayout::kZero] = 0;
  s[TapeLayout::kBus] = bus;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < kDnodeRegCount; ++r) {
      s[lay.reg(i, r)] = dnodes_[i].regs().read(r);
    }
    s[lay.out(i)] = dnodes_[i].out();
  }
  s[lay.sink()] = 0;
  std::copy(s, s + lay.size(), s + lay.size());
}

void Ring::load_window(std::size_t head, std::uint64_t edges) {
  // Rows head .. head+edges-1 were pushed by this dispatch; below them
  // the pipelines' history continues at depth 0.  Pipeline s latches
  // layer upstream(s), so one row is the whole pre-edge output vector.
  const std::size_t n = dnodes_.size();
  for (std::size_t d = edges; d < geom_.fb_depth; ++d) {
    Word* const row = window_.data() + (head + d) * n;
    for (std::size_t sw = 0; sw < pipes_.size(); ++sw) {
      Word* const dst = row + upstream_layer(sw) * geom_.lanes;
      for (std::size_t l = 0; l < geom_.lanes; ++l) {
        dst[l] = pipes_[sw].read_fast(l, d - edges);
      }
    }
  }
}

void Ring::store_flat(const Word* state, std::size_t head,
                      std::uint64_t edges) {
  const std::size_t n = dnodes_.size();
  const TapeLayout lay{n};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < kDnodeRegCount; ++r) {
      dnodes_[i].regs().poke(r, state[lay.reg(i, r)]);
    }
    dnodes_[i].set_out(state[lay.out(i)]);
  }
  const Word* const rows = window_.data() + head * n;
  for (std::size_t sw = 0; sw < pipes_.size(); ++sw) {
    pipes_[sw].push_rows(rows + upstream_layer(sw) * geom_.lanes, n, edges);
  }
  pre_outs_valid_ = false;
}

void Ring::flush_tape(PlanCacheEntry& e, SuperstepResult& res) {
  SuperstepTape& t = e.tape;
  std::uint64_t cycles = 0;
  for (std::size_t p = 0; p < t.phase_cycles.size(); ++p) {
    const std::uint64_t cnt = t.phase_cycles[p];
    if (cnt == 0) continue;
    cycles += cnt;
    t.phase_cycles[p] = 0;
    for (std::uint32_t k = t.begin[p]; k < t.begin[p + 1]; ++k) {
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
  if (cycles == 0) return;
  for (const HostTapPlan& tap : e.plan.host_taps) {
    host_out_words_per_switch_[tap.sw] += cycles;
  }
}

Ring::SuperstepResult Ring::run_planned(const SuperstepContext& ctx) {
  SuperstepResult res;
  res.bus = ctx.bus;
  if (ctx.max_cycles == 0 || !plan_enabled_ || current_plan_ == nullptr ||
      !plan_current(current_plan_->plan, ctx.cfg)) {
    return res;  // the per-cycle path owns attachment and invalidation
  }
  HostFifo& host_in = ctx.host_in;
  std::vector<Word>& host_out = ctx.host_out;
  ControlHook* const control = ctx.control;
  PlanCacheEntry* entry = current_plan_;
  if (control != nullptr) {
    // Controller-driven: only once the page rotation is fused, so the
    // predicted successor serves nearly every swap and the flat-state
    // load and store are paid once per long dispatch, not per swap.  A
    // word-written live image (no page behind it) is never predicted.
    if (!seq_fused_ || ctx.cfg.live_page() < 0 ||
        !entry->plan.local_dnodes.empty()) {
      return res;
    }
  } else {
    const CyclePlan& plan = entry->plan;
    if (plan.superstep_period == 0) return res;  // period over the cap
    // First-cycle stall check before any state is touched: a Dnode
    // whose local-mode entry has not committed yet fetches slot 0 —
    // which is also where its counter lands after the mode sync, so
    // the tape phase chosen from post-sync counters agrees.
    std::size_t pops = plan.static_pops;
    for (const std::uint16_t i : plan.local_dnodes) {
      const std::uint8_t slot = last_mode_[i] == DnodeMode::kGlobal
                                    ? std::uint8_t{0}
                                    : dnodes_[i].local().counter();
      pops += plan.dnodes[i].local[slot].pops;
    }
    if (host_in.size() < pops) return res;  // per-cycle path replays it
    if (!mode_synced_) sync_modes(plan);
  }

  std::size_t phase = 0;
  SuperstepTape* tape = &tape_for(*entry, phase);
  load_flat(ctx.bus);

  const std::size_t n = dnodes_.size();
  const TapeLayout lay{n};
  const std::uint16_t outs = lay.outs();
  Word* cur = flat_.data();
  Word* nxt = cur + lay.size();
  std::size_t head = window_slack_;  // window row of feedback depth 0
  std::uint64_t edges = 0;           // non-stalled cycles
  std::size_t prev_top = 0;
  bool have_prev_top = false;
  bool inert = false;
  // The pipelines' history is copied in only once a tape reads it;
  // page rotations without feedback reads never pay for it.
  bool window_loaded = false;
  const auto use_window = [&] {
    if (tape->reads_window && !window_loaded) {
      load_window(head, edges);
      window_loaded = true;
    }
  };
  use_window();

  for (;;) {
    if (res.cycles >= ctx.max_cycles || inert) break;
    const std::size_t top = host_out.size();
    // Output stop with the per-cycle host-visibility lag: the System's
    // run_until_outputs loop admits cycle c against a host mirror one
    // tick stale — host_out's size at the top of cycle c-1.
    if (have_prev_top && prev_top >= ctx.host_out_stop) break;
    // Without a controller nothing can end a host-input stall inside
    // the loop: hand back so the per-cycle path replays it.
    if (control == nullptr && host_in.size() < tape->pops[phase]) break;

    // The cycle happens: sample the host-FIFO depth histogram where
    // System::step does (after the link tick, before any pop).
    if (ctx.probe.counts != nullptr) {
      const std::size_t d = host_in.size();
      ++ctx.probe.counts[ctx.probe.lut[d < ctx.probe.lut_max
                                           ? d
                                           : ctx.probe.lut_max]];
    }

    if (control != nullptr) {
      const Word bus_top = cur[TapeLayout::kBus];
      const ControlHook::Step cs =
          control->step(bus_top, ctx.cycle + res.cycles);
      inert = cs.inert;
      if (cs.bus_drive) cur[TapeLayout::kBus] = *cs.bus_drive;
      if (!plan_current(entry->plan, ctx.cfg)) {
        PlanCacheEntry* const pred = seq_fused_ ? seq_[seq_pos_] : nullptr;
        if (pred == nullptr || !hint_matches(*pred, ctx.cfg) ||
            !pred->plan.local_dnodes.empty()) {
          // Not the predicted global-mode page: step() finishes this
          // cycle (lookup, compile, interpreter or local-mode plan).
          cur[TapeLayout::kBus] = bus_top;
          res.out_size_at_last_top = top;
          res.ring_pending = true;
          break;
        }
        // Ring::step's prediction branch, counter for counter.
        ++plan_invalidations_;
        seq_pos_ = (seq_pos_ + 1) % seq_.size();
        ++plan_seq_hits_;
        ++plan_content_hits_;
        attach_plan(pred, ctx.cfg);
        // The buffer written next still holds the old tape's slots
        // from two cycles ago.
        for (const std::uint16_t slot : tape->written) nxt[slot] = cur[slot];
        entry = pred;
        tape = &tape_for(*entry, phase);
        use_window();
      }
      if (host_in.size() < tape->pops[phase]) {
        ++plan_hits_;
        ++res.ring_stalls;  // systolic back-pressure: nothing advances
        ++res.cycles;
        prev_top = top;
        have_prev_top = true;
        continue;
      }
      if (!mode_synced_) sync_modes(entry->plan);
    }
    ++plan_hits_;

    // Execute the phase: operand fetch, ALU, latch into the next
    // buffer.  Every per-op statistic is a tape constant, settled by
    // flush_tape() from the per-phase cycle counts.
    const Word* const base[4] = {cur, window_.data() + head * n,
                                 host_in.data(), tape->imm.data()};
    for (std::uint32_t k = tape->carry_begin[phase];
         k < tape->carry_begin[phase + 1]; ++k) {
      nxt[tape->carry[k]] = cur[tape->carry[k]];
    }
    const std::uint32_t first = tape->begin[phase];
    const std::uint32_t last = tape->begin[phase + 1];
    const TapeOp* const ops = tape->ops.data();
    Word* const vals = op_vals_.data();
    for (std::uint32_t k = first; k < last; ++k) {
      const TapeOp& o = ops[k];
      const Word v = alu_execute(o.op, base[o.a.base][o.a.off],
                                 base[o.b.base][o.b.off],
                                 base[o.c.base][o.c.off]);
      nxt[o.dst] = v;
      nxt[o.out] = v;
      vals[k - first] = v;
    }
    const std::uint32_t need = tape->pops[phase];
    host_in.drop(need);
    res.host_words_in += need;

    // Host output: switch taps first (switch order), then Dnode hostEn
    // results (Dnode order).  Bus: highest Dnode index wins.
    for (const HostTapPlan& tap : entry->plan.host_taps) {
      host_out.push_back(cur[outs + tap.src]);
    }
    res.host_words_out += entry->plan.host_taps.size();
    Word bus = cur[TapeLayout::kBus];
    bool driven = false;
    for (std::uint32_t j = tape->effects_begin[phase];
         j < tape->effects_begin[phase + 1]; ++j) {
      const std::uint32_t k = tape->effects[j];
      const Word v = vals[k - first];
      if (ops[k].host_en) {
        host_out.push_back(v);
        ++res.host_words_out;
      }
      if (ops[k].bus_en) {
        ++bus_drives_;
        if (driven) ++bus_conflicts_;
        driven = true;
        bus = v;
      }
    }
    nxt[TapeLayout::kBus] = bus;

    // Clock edge: every pipeline latches its upstream layer's pre-edge
    // outputs — one row of the shared window.
    if (head == 0) {
      std::copy(window_.data(), window_.data() + (geom_.fb_depth - 1) * n,
                window_.data() + (window_slack_ + 1) * n);
      head = window_slack_ + 1;
    }
    --head;
    std::copy(cur + outs, cur + outs + n, window_.data() + head * n);
    std::swap(cur, nxt);

    ++tape->phase_cycles[phase];
    if (++phase == tape->period) phase = 0;
    ++edges;
    ++res.cycles;
    prev_top = top;
    have_prev_top = true;
  }

  store_flat(cur, head, edges);
  res.bus = cur[TapeLayout::kBus];
  if (!res.ring_pending) res.out_size_at_last_top = prev_top;
  for (const auto& e : plan_cache_) flush_tape(*e, res);
  // Every plan a dispatch runs has the same mode split: the entry plan
  // alone, or global-mode pages only.
  for (const std::uint16_t i : entry->plan.local_dnodes) {
    dnodes_[i].local().advance_by(edges);
    local_cycles_per_dnode_[i] += edges;
  }
  for (const std::uint16_t i : entry->plan.global_dnodes) {
    global_cycles_per_dnode_[i] += edges;
  }
  if (res.cycles > 0) {
    ++superstep_dispatches_;
    superstep_cycles_ += res.cycles;
  }
  return res;
}

}  // namespace sring
