#include "mapper/mapper.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "asm/program_builder.hpp"
#include "common/error.hpp"
#include "sim/system.hpp"

namespace sring::mapper {

namespace {

DnodeOp to_dnode_op(DfgOp op) {
  switch (op) {
    case DfgOp::kAdd:
      return DnodeOp::kAdd;
    case DfgOp::kSub:
      return DnodeOp::kSub;
    case DfgOp::kMul:
      return DnodeOp::kMul;
    case DfgOp::kAbsdiff:
      return DnodeOp::kAbsdiff;
    case DfgOp::kMin:
      return DnodeOp::kMin;
    case DfgOp::kMax:
      return DnodeOp::kMax;
    case DfgOp::kAnd:
      return DnodeOp::kAnd;
    case DfgOp::kOr:
      return DnodeOp::kOr;
    case DfgOp::kXor:
      return DnodeOp::kXor;
    case DfgOp::kShl:
      return DnodeOp::kShl;
    case DfgOp::kAsr:
      return DnodeOp::kAsr;
    case DfgOp::kPass:
      return DnodeOp::kPass;
    case DfgOp::kNot:
      return DnodeOp::kNot;
    case DfgOp::kAbs:
      return DnodeOp::kAbs;
    default:
      throw SimError("map_dfg: node kind has no Dnode operation");
  }
}

/// Resolved source of an operand edge: a real producer + accumulated
/// sample delay, or a constant.
struct EdgeSource {
  bool is_const = false;
  Word const_value = 0;
  NodeId producer = 0;   ///< a non-delay, non-const node
  unsigned delay = 0;    ///< accumulated z^-k along the chain
};

EdgeSource resolve_edge(const Dfg& dfg, NodeId id) {
  EdgeSource e;
  unsigned guard = 0;
  while (true) {
    const DfgNode& n = dfg.node(id);
    if (n.op == DfgOp::kConst) {
      check(e.delay == 0, "map_dfg: delayed constant is meaningless");
      e.is_const = true;
      e.const_value = n.value;
      return e;
    }
    if (n.op == DfgOp::kDelay) {
      check(n.a < id, "map_dfg: recursive delays are not mappable "
                      "(use kernels/iir_kernel for recursion)");
      e.delay += n.delay;
      id = n.a;
      check(++guard < 4096, "map_dfg: delay chain too long");
      continue;
    }
    e.producer = id;
    return e;
  }
}

/// The up-to-three operand edges of a node after MAC fusion: for a
/// fused consumer, a/b are the multiplier inputs and c the addend.
struct NodeOperands {
  std::optional<NodeId> a;
  std::optional<NodeId> b;
  std::optional<NodeId> c;   ///< only for fused MAC/MSU
  DnodeOp op = DnodeOp::kNop;
};

}  // namespace

MappedProgram map_dfg(const Dfg& dfg, const RingGeometry& geometry) {
  dfg.validate();
  geometry.validate();
  const auto& nodes = dfg.nodes();

  // --- MAC fusion pre-pass ----------------------------------------------
  // Count direct (non-delay-mediated) uses of every node; a kMul with
  // exactly one total use, consumed directly by a kAdd (either side)
  // or as a kSub subtrahend, and not itself an output, fuses into the
  // consumer.
  std::vector<unsigned> uses(nodes.size(), 0);
  for (const DfgNode& n : nodes) {
    const unsigned arity = dfg_arity(n.op);
    if (arity >= 1) ++uses[n.a];
    if (arity == 2) ++uses[n.b];
  }
  for (const NodeId out : dfg.outputs()) ++uses[out];

  // fused_into[m] = consumer; fused_mul[n] = m.
  std::vector<std::optional<NodeId>> fused_mul(nodes.size());
  std::vector<bool> fused_away(nodes.size(), false);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const DfgNode& n = nodes[i];
    if (n.op != DfgOp::kAdd && n.op != DfgOp::kSub) continue;
    const auto fusable = [&](NodeId m) {
      return nodes[m].op == DfgOp::kMul && uses[m] == 1 &&
             !fused_away[m];
    };
    if (n.op == DfgOp::kAdd && fusable(n.a)) {
      fused_mul[i] = n.a;
      fused_away[n.a] = true;
    } else if (fusable(n.b)) {
      // add: a + (m) -> MAC; sub: a - (m) -> MSU.
      fused_mul[i] = n.b;
      fused_away[n.b] = true;
    }
  }

  // Effective operand set and Dnode operation per node.
  const auto operands_of = [&](std::size_t i) {
    const DfgNode& n = nodes[i];
    NodeOperands ops;
    if (fused_mul[i]) {
      const DfgNode& m = nodes[*fused_mul[i]];
      ops.a = m.a;
      ops.b = m.b;
      ops.c = *fused_mul[i] == n.a ? n.b : n.a;
      ops.op = n.op == DfgOp::kAdd ? DnodeOp::kMac : DnodeOp::kMsu;
    } else {
      const unsigned arity = dfg_arity(n.op);
      if (arity >= 1) ops.a = n.a;
      if (arity == 2) ops.b = n.b;
      ops.op = to_dnode_op(n.op);
    }
    return ops;
  };

  // --- levelize ---------------------------------------------------------
  std::vector<std::size_t> level(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const DfgNode& n = nodes[i];
    switch (n.op) {
      case DfgOp::kInput:
      case DfgOp::kConst:
        level[i] = 0;
        break;
      case DfgOp::kDelay:
        level[i] = level[resolve_edge(dfg, static_cast<NodeId>(i)).producer];
        break;
      default: {
        if (fused_away[i]) break;  // no Dnode, no level of its own
        const NodeOperands ops = operands_of(i);
        std::size_t deepest = 0;
        bool has_real_operand = false;
        unsigned adjacent = 0;
        const auto consider = [&](const std::optional<NodeId>& operand) {
          if (!operand) return;
          const EdgeSource e = resolve_edge(dfg, *operand);
          if (e.is_const) return;
          has_real_operand = true;
          deepest = std::max(deepest, level[e.producer]);
        };
        consider(ops.a);
        consider(ops.b);
        consider(ops.c);
        check(has_real_operand,
              "map_dfg: node has only constant operands (fold it "
              "instead)");
        level[i] = deepest + 1;
        // Count direct-adjacent (undelayed, gap-0) operands: only two
        // direct input ports exist; with three, bump a layer so every
        // operand travels through the pipelines.
        const auto adjacent_count = [&](const std::optional<NodeId>& op) {
          if (!op) return;
          const EdgeSource e = resolve_edge(dfg, *op);
          if (!e.is_const && e.delay == 0 &&
              level[e.producer] + 1 == level[i]) {
            ++adjacent;
          }
        };
        adjacent_count(ops.a);
        adjacent_count(ops.b);
        adjacent_count(ops.c);
        if (adjacent > 2) ++level[i];
        break;
      }
    }
  }

  // --- lane assignment ----------------------------------------------------
  std::vector<std::size_t> lane(nodes.size(), 0);
  std::vector<bool> has_dnode(nodes.size(), false);
  std::vector<std::size_t> used_lanes(geometry.layers, 0);

  check(dfg.inputs().size() <= geometry.lanes,
        "map_dfg: more inputs than layer-0 lanes");
  for (std::size_t k = 0; k < dfg.inputs().size(); ++k) {
    const NodeId id = dfg.inputs()[k];
    lane[id] = k;
    has_dnode[id] = true;
  }
  used_lanes[0] = dfg.inputs().size();

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const DfgOp op = nodes[i].op;
    if (op == DfgOp::kInput || op == DfgOp::kConst ||
        op == DfgOp::kDelay || fused_away[i]) {
      continue;
    }
    const std::size_t layer = level[i];
    check(layer < geometry.layers,
          "map_dfg: graph needs " + std::to_string(layer + 1) +
              " layers, ring has " + std::to_string(geometry.layers));
    check(used_lanes[layer] < geometry.lanes,
          "map_dfg: layer " + std::to_string(layer) +
              " overflows its " + std::to_string(geometry.lanes) +
              " lanes");
    lane[i] = used_lanes[layer]++;
    has_dnode[i] = true;
  }

  // --- outputs -------------------------------------------------------------
  std::vector<bool> pushes(nodes.size(), false);
  for (const NodeId out : dfg.outputs()) {
    check(has_dnode[out],
          "map_dfg: output '" + dfg.node(out).name +
              "' is a delay/constant or fused away; route it through a "
              "pass node");
    pushes[out] = true;
  }

  // --- build the configuration page ----------------------------------------
  PageBuilder page(geometry);
  std::vector<Placement> placements;

  for (std::size_t k = 0; k < dfg.inputs().size(); ++k) {
    const NodeId id = dfg.inputs()[k];
    SwitchRoute route;
    route.in1 = PortRoute::host();
    page.route(0, lane[id], route);
    DnodeInstr instr;
    instr.op = DnodeOp::kPass;
    instr.src_a = DnodeSrc::kIn1;
    instr.out_en = true;
    instr.host_en = pushes[id];
    page.instr(0, lane[id], instr);
    placements.push_back(
        {id, 0, lane[id], "input '" + dfg.node(id).name + "'"});
  }

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const DfgNode& n = nodes[i];
    if (!has_dnode[i] || n.op == DfgOp::kInput) continue;
    const std::size_t layer = level[i];
    const NodeOperands ops = operands_of(i);

    SwitchRoute route;
    DnodeInstr instr;
    instr.op = ops.op;
    instr.out_en = true;
    instr.host_en = pushes[i];

    bool imm_used = false;
    bool in1_used = false;
    bool in2_used = false;
    bool fifo1_used = false;
    bool fifo2_used = false;
    const auto bind = [&](NodeId operand) -> DnodeSrc {
      const EdgeSource e = resolve_edge(dfg, operand);
      if (e.is_const) {
        check(!imm_used || instr.imm == e.const_value,
              "map_dfg: a Dnode carries a single immediate; two "
              "different constants feed one node");
        instr.imm = e.const_value;
        imm_used = true;
        return DnodeSrc::kImm;
      }
      const std::size_t p = level[e.producer];
      check(p < layer, "map_dfg: operand does not precede its consumer");
      const std::size_t gap = layer - p - 1;  // 0 for adjacent layers
      if (gap == 0 && e.delay == 0) {
        // Direct route through the upstream switch.
        const auto prev = PortRoute::prev(
            static_cast<std::uint8_t>(lane[e.producer]));
        if (!in1_used) {
          route.in1 = prev;
          in1_used = true;
          return DnodeSrc::kIn1;
        }
        check(!in2_used,
              "map_dfg: more than two adjacent-layer operands");
        route.in2 = prev;
        in2_used = true;
        return DnodeSrc::kIn2;
      }
      // Feedback read: depth = layer distance + z^-k delays - 1.
      const std::size_t depth = gap - 1 + e.delay;
      check(depth < geometry.fb_depth,
            "map_dfg: edge needs feedback depth " + std::to_string(depth) +
                ", pipeline has " + std::to_string(geometry.fb_depth));
      FeedbackAddr addr;
      addr.pipe = static_cast<std::uint8_t>((p + 1) % geometry.layers);
      addr.lane = static_cast<std::uint8_t>(lane[e.producer]);
      addr.depth = static_cast<std::uint8_t>(depth);
      if (!fifo1_used) {
        route.fifo1 = addr;
        fifo1_used = true;
        return DnodeSrc::kFifo1;
      }
      if (!fifo2_used) {
        route.fifo2 = addr;
        fifo2_used = true;
        return DnodeSrc::kFifo2;
      }
      // Overflow: the in1/in2 ports also carry feedback routes.
      if (!in1_used) {
        route.in1 = PortRoute::feedback(addr);
        in1_used = true;
        return DnodeSrc::kIn1;
      }
      check(!in2_used, "map_dfg: operand ports exhausted");
      route.in2 = PortRoute::feedback(addr);
      in2_used = true;
      return DnodeSrc::kIn2;
    };

    if (ops.a) instr.src_a = bind(*ops.a);
    if (ops.b) instr.src_b = bind(*ops.b);
    if (ops.c) instr.src_c = bind(*ops.c);
    page.route(layer, lane[i], route);
    page.instr(layer, lane[i], instr);
    placements.push_back({static_cast<NodeId>(i), layer, lane[i],
                          instr.to_string() + "   [" + route.to_string() +
                              "]" +
                              (fused_mul[i] ? "  (fused MAC)" : "")});
  }

  // --- assemble -----------------------------------------------------------
  ProgramBuilder pb(geometry, "mapped_dfg");
  pb.add_page(std::move(page));
  pb.page_switch(0);
  pb.halt();

  MappedProgram mapped;
  mapped.program = std::move(pb).build();
  mapped.geometry = geometry;
  mapped.input_count = dfg.inputs().size();

  std::map<std::size_t, std::size_t> rank_of_flat;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (has_dnode[i] && pushes[i]) {
      rank_of_flat.emplace(level[i] * geometry.lanes + lane[i], 0);
    }
  }
  std::size_t rank = 0;
  for (auto& [flat, r] : rank_of_flat) r = rank++;
  mapped.pushes_per_cycle = rank_of_flat.size();

  for (const NodeId out : dfg.outputs()) {
    MappedOutput mo;
    mo.name = dfg.node(out).name;
    mo.latency = level[out];
    mo.push_rank =
        rank_of_flat.at(level[out] * geometry.lanes + lane[out]);
    mapped.outputs.push_back(mo);
    mapped.max_latency = std::max(mapped.max_latency, mo.latency);
  }
  std::size_t used = 0;
  for (const auto b : has_dnode) used += b ? 1 : 0;
  mapped.dnodes_used = used;
  mapped.placements = std::move(placements);
  return mapped;
}

std::string mapping_report(const MappedProgram& mapped) {
  std::string out = "DFG placement on ring " +
                    std::to_string(mapped.geometry.layers) + "x" +
                    std::to_string(mapped.geometry.lanes) + " (" +
                    std::to_string(mapped.dnodes_used) + "/" +
                    std::to_string(mapped.geometry.dnode_count()) +
                    " Dnodes):\n";
  for (const auto& p : mapped.placements) {
    out += "  node " + std::to_string(p.node) + " -> dnode " +
           std::to_string(p.layer) + "." + std::to_string(p.lane) + ": " +
           p.description + "\n";
  }
  for (const auto& o : mapped.outputs) {
    out += "  output '" + o.name + "': latency " +
           std::to_string(o.latency) + " cycles, push rank " +
           std::to_string(o.push_rank) + "\n";
  }
  return out;
}

rt::Job make_mapped_job(std::shared_ptr<const MappedProgram> mapped,
                        const std::vector<std::vector<Word>>& input_streams) {
  check(input_streams.size() == mapped->input_count,
        "mapped program expects " + std::to_string(mapped->input_count) +
            " input stream(s), got " + std::to_string(input_streams.size()));
  const std::size_t samples =
      input_streams.empty() ? 0 : input_streams[0].size();
  for (const auto& s : input_streams) {
    check(s.size() == samples, "mapped job: ragged input streams");
  }
  check(samples > 0, "mapped job: empty input streams");

  // One word per stream per cycle, padded by the pipeline depth so the
  // last real sample's outputs drain.
  const std::size_t pad = mapped->max_latency;
  rt::Job job;
  job.name = mapped->program.name;
  job.input.reserve((samples + pad) * mapped->input_count);
  for (std::size_t n = 0; n < samples + pad; ++n) {
    for (const auto& stream : input_streams) {
      job.input.push_back(n < samples ? stream[n] : Word{0});
    }
  }
  job.run = rt::Job::Run::kUntilOutputs;
  job.expected_outputs = mapped->pushes_per_cycle * (samples + pad);
  job.max_cycles = 64 + 8 * job.input.size();
  // Aliasing pointer: the job's program shares `mapped`'s lifetime.
  const LoadableProgram* program = &mapped->program;
  job.program =
      std::shared_ptr<const LoadableProgram>(std::move(mapped), program);
  return job;
}

std::vector<std::vector<Word>> delace_outputs(const MappedProgram& mapped,
                                              std::span<const Word> raw,
                                              std::size_t samples) {
  std::vector<std::vector<Word>> outputs(mapped.outputs.size());
  for (std::size_t o = 0; o < mapped.outputs.size(); ++o) {
    const MappedOutput& mo = mapped.outputs[o];
    outputs[o].resize(samples);
    for (std::size_t n = 0; n < samples; ++n) {
      const std::size_t at =
          (n + mo.latency) * mapped.pushes_per_cycle + mo.push_rank;
      check(at < raw.size(), "mapped: raw output stream shorter than the "
                             "mapped program promises");
      outputs[o][n] = raw[at];
    }
  }
  return outputs;
}

MappedRun run_mapped(const MappedProgram& mapped,
                     const std::vector<std::vector<Word>>& input_streams) {
  // A non-owning handle: the job lives only for this call.
  const rt::Job job = make_mapped_job(
      std::shared_ptr<const MappedProgram>(std::shared_ptr<void>(), &mapped),
      input_streams);
  System sys({mapped.geometry});
  sys.load(mapped.program);

  const std::size_t samples = input_streams[0].size();
  MappedRun run;
  run.outputs = delace_outputs(mapped, rt::run_on(sys, job), samples);
  run.stats = sys.stats();
  run.cycles_per_sample = static_cast<double>(run.stats.cycles) /
                          static_cast<double>(samples);
  return run;
}

}  // namespace sring::mapper
