#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "loadgen.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/json.hpp"
#include "obs/quantile.hpp"
#include "rt/runtime.hpp"
#include "rt/system_pool.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "svc/compile_service.hpp"
#include "svc/dfg_job.hpp"
#include "tile/gemm_job.hpp"
#include "tile/gemm_runner.hpp"
#include "tile/tile_plan.hpp"

namespace perfbench {

using namespace sring;
using Clock = std::chrono::steady_clock;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// In-memory span log.  With recording off every call is a no-op, so
/// an off pass runs the same layer calls without the bookkeeping.
class Spans {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint32_t request = 0;
  };

  /// Closes its span on scope exit; rename() picks the final name
  /// (e.g. a cache hit or miss known only after the call).
  class Scope {
   public:
    Scope(Spans& spans, const char* name) : spans_(spans), index_(spans.open(name)) {}
    ~Scope() { spans_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void rename(const char* name) {
      if (index_ >= 0) spans_.log_[static_cast<std::size_t>(index_)].name = name;
    }

   private:
    Spans& spans_;
    int index_;
  };

  bool on = false;
  std::uint32_t request = 0;

  const std::vector<Span>& log() const { return log_; }

 private:
  int open(const char* name) {
    if (!on) return -1;
    log_.push_back({name, now_ns(), 0, current_, request});
    current_ = static_cast<int>(log_.size() - 1);
    return current_;
  }
  void close(int index) {
    if (index < 0) return;
    Span& s = log_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  std::vector<Span> log_;
  int current_ = -1;
};

/// Counts the traced passes gather where the work happens.
struct Tally {
  std::uint64_t requests = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t compile_hits = 0;
  std::uint64_t compile_misses = 0;
  std::uint64_t fast_resets = 0;
  std::uint64_t full_loads = 0;
  std::uint64_t cycles = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_compiles = 0;
  std::uint64_t superstep_cycles = 0;
  std::uint64_t scratch_hits = 0;
  std::uint64_t scratch_refills = 0;
  std::uint64_t fanout_requests = 0;
  std::uint64_t children = 0;
  /// Per kernel label: simulated cycles and execute thread-CPU seconds.
  std::map<std::string, std::pair<std::uint64_t, double>> execute;
};

/// The layer instances one replay pass runs through: the shapes the
/// served program uses for one worker and its shared caches.
struct Layers {
  rt::SystemPool pool{rt::RuntimeConfig{}.pool_systems_per_worker};
  svc::CompileService compile{svc::CompileServiceConfig{}};
  tile::PlanCache plans{net::ServerConfig{}.plan_cache_capacity};
};

class Replayer {
 public:
  Replayer(Spans& spans, Tally& tally) : spans_(spans), tally_(tally) {}

  /// Replay one request; true when every output word matched.
  bool request(const Request& r, Layers& layers) {
    layers_ = &layers;
    Spans::Scope root(spans_, "request");
    std::vector<std::uint8_t> reply;
    switch (r.kind) {
      case Kind::kJob:
        reply = job(r);
        break;
      case Kind::kDfgJob:
        reply = dfg(r);
        break;
      case Kind::kGemm:
        reply = gemm(r);
        break;
      case Kind::kBatch:
        reply = batch(r);
        break;
    }
    if (spans_.on) {
      ++tally_.requests;
      tally_.wire_bytes += r.frame.size() + reply.size();
    }
    Spans::Scope s(spans_, "client.decode");
    const net::Frame f = parse(reply);
    if (r.kind != Kind::kBatch) {
      return net::decode_job_result(f.payload).outputs == r.expected[0];
    }
    const net::JobBatchResultMsg got = net::decode_job_batch_result(f.payload);
    if (got.entries.size() != r.expected.size()) return false;
    return std::all_of(got.entries.begin(), got.entries.end(), [&](const auto& e) {
      return e.ok == 1 && e.result.outputs == r.expected[e.result.tag - 1];
    });
  }

 private:
  static net::Frame parse(std::span<const std::uint8_t> bytes) {
    net::Frame f;
    std::size_t consumed = 0;
    check(net::try_parse_frame(bytes, net::kDefaultMaxFrameBytes, f, consumed) ==
              net::ParseStatus::kFrame,
          "perfbench: replay frame did not parse");
    return f;
  }

  std::vector<std::uint8_t> encode_reply(net::MsgType type,
                                         const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> out;
    net::append_frame(out, type, payload);
    return out;
  }

  /// rt::Runtime::run_job, one call per layer.
  rt::JobResult run(const rt::Job& job, const std::string& label) {
    rt::JobResult result;
    System* sys = nullptr;
    {
      Spans::Scope s(spans_, "rt.arm");
      sys = &layers_->pool.acquire(job).system;
    }
    std::vector<Word> raw;
    {
      Spans::Scope s(spans_, "core.execute");
      const double cpu0 = spans_.on ? thread_cpu_s() : 0.0;
      sys->host().send(job.input);
      if (job.run == rt::Job::Run::kUntilOutputs) {
        sys->run_until_outputs(job.expected_outputs, job.max_cycles);
      } else {
        sys->run_until_halt(job.max_cycles, job.drain_cycles);
      }
      raw = sys->host().take_received();
      if (spans_.on) tally_.execute[label].second += thread_cpu_s() - cpu0;
    }
    {
      Spans::Scope s(spans_, "rt.report");
      check(raw.size() >= job.discard_prefix + job.take_words,
            "perfbench: replay job produced too few outputs");
      const auto first = raw.begin() + static_cast<std::ptrdiff_t>(job.discard_prefix);
      result.outputs.assign(
          first, job.take_words == 0
                     ? raw.end()
                     : first + static_cast<std::ptrdiff_t>(job.take_words));
      result.report = RunReport::from_system(job.name, *sys);
      result.ok = true;
    }
    if (spans_.on) {
      const SystemStats& st = result.report.stats;
      tally_.execute[label].first += st.cycles;
      tally_.cycles += st.cycles;
      tally_.plan_hits += st.plan_hits;
      tally_.plan_compiles += st.plan_compiles;
      if (const obs::Counter* c =
              result.report.metrics.find_counter("ring.superstep.cycles")) {
        tally_.superstep_cycles += c->value();
      }
    }
    return result;
  }

  static const char* kernel_label(net::KernelId k) {
    switch (k) {
      case net::KernelId::kFir:
        return "fir";
      case net::KernelId::kMotionEstimation:
        return "me";
      case net::KernelId::kDwt53:
        return "dwt53";
      case net::KernelId::kMatvec8:
        return "matvec8";
    }
    return "unknown";
  }

  std::vector<std::uint8_t> job(const Request& r) {
    net::JobRequest req;
    {
      Spans::Scope s(spans_, "net.decode");
      req = net::decode_job_request(parse(r.frame).payload);
    }
    rt::Job job;
    {
      Spans::Scope s(spans_, "kernels.build");
      job = net::to_rt_job(req);
    }
    const rt::JobResult res = run(job, kernel_label(req.kernel));
    Spans::Scope s(spans_, "net.encode");
    return encode_reply(net::MsgType::kJobResult,
                        net::encode_job_result(net::make_job_result_msg(req.tag, res)));
  }

  std::vector<std::uint8_t> dfg(const Request& r) {
    net::SubmitDfgJobMsg req;
    {
      Spans::Scope s(spans_, "net.decode");
      req = net::decode_submit_dfg_job(parse(r.frame).payload);
    }
    svc::CompileService::Result compiled;
    {
      Spans::Scope s(spans_, "svc.compile");
      compiled = layers_->compile.get_or_compile(req.dfg, req.geometry);
      s.rename(compiled.cache_hit ? "svc.compile.hit" : "svc.compile.miss");
    }
    if (spans_.on) ++(compiled.cache_hit ? tally_.compile_hits : tally_.compile_misses);
    rt::Job job;
    {
      Spans::Scope s(spans_, "svc.make_job");
      job = svc::make_dfg_job(compiled.compiled, req.streams);
    }
    const rt::JobResult res = run(job, "dfg");
    net::JobResultMsg msg;
    {
      Spans::Scope s(spans_, "svc.delace");
      msg = net::make_job_result_msg(req.tag, res);
      msg.outputs.clear();
      const std::size_t samples = req.streams[0].size();
      const auto streams =
          svc::delace_outputs(*compiled.compiled, res.outputs, samples);
      for (const auto& stream : streams) {
        msg.outputs.insert(msg.outputs.end(), stream.begin(), stream.end());
      }
      msg.counters.emplace_back("svc.dfg.outputs", streams.size());
      msg.counters.emplace_back("svc.dfg.samples", samples);
      msg.counters.emplace_back("svc.dfg.cache_hit", compiled.cache_hit ? 1 : 0);
      msg.counters.emplace_back("svc.dfg.hash", compiled.compiled->dfg_hash);
    }
    Spans::Scope s(spans_, "net.encode");
    return encode_reply(net::MsgType::kJobResult, net::encode_job_result(msg));
  }

  std::vector<std::uint8_t> gemm(const Request& r) {
    net::SubmitGemmMsg req;
    {
      Spans::Scope s(spans_, "net.decode");
      req = net::decode_submit_gemm(parse(r.frame).payload);
    }
    std::shared_ptr<const tile::TileSchedule> sched;
    {
      Spans::Scope s(spans_, "tile.plan");
      sched = layers_->plans.get_or_plan(req.spec, req.scratch_tiles);
    }
    tile::Scratchpad scratch(req.scratch_tiles);
    tile::GemmJobBuilder builder(req.geometry, scratch);
    std::vector<Word> acc(req.spec.m * req.spec.n, 0);
    std::uint64_t sim_cycles = 0;
    for (const tile::TileStep& step : sched->steps) {
      rt::Job job;
      {
        Spans::Scope s(spans_, "tile.lower");
        job = builder.build(*sched, step, req.a, req.b);
      }
      const rt::JobResult res = run(job, "gemm_tile");
      sim_cycles += res.report.stats.cycles;
      Spans::Scope s(spans_, "tile.fold");
      tile::accumulate_tile(*sched, step, res.outputs, acc);
    }
    net::JobResultMsg msg;
    msg.tag = req.tag;
    {
      Spans::Scope s(spans_, "tile.narrow");
      msg.outputs = tile::narrow_grid(req.spec, acc);
    }
    if (spans_.on) {
      ++tally_.fanout_requests;
      tally_.children += sched->steps.size();
      tally_.scratch_hits += scratch.hits();
      tally_.scratch_refills += scratch.refills();
    }
    // The counters slice the server attaches to a GEMM reply.
    msg.sim_cycles = sim_cycles;
    msg.counters = {
        {"sim.cycles", sim_cycles},
        {"tile.jobs", sched->steps.size()},
        {"tile.scratch.hits", scratch.hits()},
        {"tile.scratch.refills", scratch.refills()},
        {"tile.scratch.evictions", scratch.evictions()},
        {"tile.scratch.bytes_filled", scratch.bytes_filled()},
        {"tile.scratch.bytes_saved", scratch.bytes_saved()},
        {"tile.streamed_bytes", sched->streamed_bytes},
    };
    Spans::Scope s(spans_, "net.encode");
    return encode_reply(net::MsgType::kJobResult, net::encode_job_result(msg));
  }

  std::vector<std::uint8_t> batch(const Request& r) {
    net::SubmitJobBatchMsg req;
    {
      Spans::Scope s(spans_, "net.decode");
      req = net::decode_submit_job_batch(parse(r.frame).payload);
    }
    std::vector<rt::JobResult> results;
    for (const net::JobRequest& jr : req.jobs) {
      rt::Job job;
      {
        Spans::Scope s(spans_, "kernels.build");
        job = net::to_rt_job(jr);
      }
      results.push_back(run(job, kernel_label(jr.kernel)));
    }
    if (spans_.on) {
      ++tally_.fanout_requests;
      tally_.children += req.jobs.size();
    }
    Spans::Scope s(spans_, "net.encode");
    net::JobBatchResultMsg msg;
    msg.tag = req.tag;
    for (std::size_t i = 0; i < results.size(); ++i) {
      net::JobBatchEntryMsg e;
      e.ok = 1;
      e.result = net::make_job_result_msg(req.jobs[i].tag, results[i]);
      msg.entries.push_back(std::move(e));
    }
    return encode_reply(net::MsgType::kJobBatchResult,
                        net::encode_job_batch_result(msg));
  }

  Spans& spans_;
  Tally& tally_;
  Layers* layers_ = nullptr;
};

struct PassOutcome {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t mismatched = 0;
};

/// One pass: fresh layers warmed by the set-up requests, then the
/// replayed requests with span recording `on` or off.
PassOutcome run_pass(const Workload& w, std::size_t count, bool on, Spans& spans,
                     Tally& tally) {
  Layers layers;
  Replayer rep(spans, tally);
  spans.on = false;
  for (const Request& r : w.warmup) rep.request(r, layers);

  const std::uint64_t fast0 = layers.pool.fast_resets();
  const std::uint64_t full0 = layers.pool.full_loads();
  spans.on = on;
  PassOutcome out;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const Request& r = w.pool[i];
    spans.request = r.tag;
    ++out.requests;
    if (!rep.request(r, layers)) ++out.mismatched;
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (on) {
    tally.fast_resets += layers.pool.fast_resets() - fast0;
    tally.full_loads += layers.pool.full_loads() - full0;
  }
  spans.on = false;
  return out;
}

/// Requests per replay pass: enough that a pass takes a few tenths of
/// a second on the workload's request sizes.
std::size_t pass_size(const Workload& w) {
  std::size_t n = 24;
  if (w.name == "serve_small") n = 256;
  if (w.name == "cold_churn") n = 128;
  return std::min(n, w.pool.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return obs::percentile_sorted(v, 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

ReplayReport replay(const Workload& w, double seconds, const ServedFigures& served,
                    const std::string& spans_path) {
  Spans spans;
  Tally tally;
  ReplayReport report;
  const std::size_t count = pass_size(w);
  std::vector<double> overheads;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    // Alternate which side of a pair runs first.
    const bool on_first = overheads.size() % 2 == 1;
    PassOutcome on, off;
    if (on_first) on = run_pass(w, count, true, spans, tally);
    off = run_pass(w, count, false, spans, tally);
    if (!on_first) on = run_pass(w, count, true, spans, tally);
    overheads.push_back((on.seconds - off.seconds) / off.seconds);
    report.attempted += off.requests + on.requests;
    report.mismatched += off.mismatched + on.mismatched;
  } while (Clock::now() < deadline);

  // Self time per span: its duration minus its direct children's.
  const auto& log = spans.log();
  std::vector<double> self_us(log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    self_us[i] += 1e-3 * static_cast<double>(log[i].end_ns - log[i].start_ns);
    if (log[i].parent >= 0) {
      self_us[static_cast<std::size_t>(log[i].parent)] -=
          1e-3 * static_cast<double>(log[i].end_ns - log[i].start_ns);
    }
  }
  std::map<std::string, std::vector<double>> by_name;
  double self_total = 0.0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    by_name[log[i].name].push_back(self_us[i]);
    self_total += self_us[i];
  }
  const auto med = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : median(it->second);
  };

  const double requests = static_cast<double>(tally.requests);
  const double span_sum_us = ratio(self_total, requests);
  const double unattributed =
      served.mean_us - span_sum_us - served.queue_wait_us;
  const double overhead = median(overheads);

  std::printf("self-time per request (us, traced replay of %s):", w.name.c_str());
  for (const auto& [name, v] : by_name) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    std::printf(" %s=%.2f", name.c_str(), sum / requests);
  }
  std::printf("\naccounting %s: e2e_mean_us=%.2f = span_self_sum_us=%.2f + "
              "queue_wait_us=%.2f + unattributed_us=%.2f; tracing_overhead=%.4f "
              "over %zu pass pairs of %zu requests\n",
              w.name.c_str(), served.mean_us, span_sum_us, served.queue_wait_us,
              unattributed, overhead, overheads.size(), count);

  std::vector<Metric>& m = report.metrics;
  m.push_back({"net.decode_us", med("net.decode"), "us"});
  m.push_back({"net.encode_us", med("net.encode"), "us"});
  m.push_back({"net.wire_bytes_per_request",
               ratio(static_cast<double>(tally.wire_bytes), requests), "count"});
  m.push_back({"net.unattributed_us", unattributed, "us"});
  m.push_back({"net.admission_deferred_ratio", served.deferred_ratio, "ratio"});
  m.push_back({"kernels.build_us", med("kernels.build"), "us"});
  m.push_back({"svc.compile_hit_us", med("svc.compile.hit"), "us"});
  m.push_back({"svc.compile_miss_us", med("svc.compile.miss"), "us"});
  m.push_back({"svc.compile_hit_ratio",
               ratio(static_cast<double>(tally.compile_hits),
                     static_cast<double>(tally.compile_hits + tally.compile_misses)),
               "ratio"});
  m.push_back({"rt.arm_us", med("rt.arm"), "us"});
  m.push_back({"rt.fast_reset_ratio",
               ratio(static_cast<double>(tally.fast_resets),
                     static_cast<double>(tally.fast_resets + tally.full_loads)),
               "ratio"});
  m.push_back({"rt.queue_wait_us", served.queue_wait_us, "us"});
  m.push_back({"core.execute_us", med("core.execute"), "us"});
  std::uint64_t cycles = 0;
  double cpu = 0.0;
  for (const auto& [label, e] : tally.execute) {
    cycles += e.first;
    cpu += e.second;
  }
  m.push_back({"core.cycles_per_cpu_s", ratio(static_cast<double>(cycles), cpu),
               "cycles/s"});
  for (const char* label : {"fir", "dwt53", "matvec8", "me", "dfg", "gemm_tile"}) {
    const auto it = tally.execute.find(label);
    m.push_back({std::string("core.cycles_per_cpu_s.") + label,
                 it == tally.execute.end()
                     ? 0.0
                     : ratio(static_cast<double>(it->second.first), it->second.second),
                 "cycles/s"});
  }
  m.push_back({"core.plan_hit_rate",
               ratio(static_cast<double>(tally.plan_hits), static_cast<double>(tally.cycles)),
               "ratio"});
  m.push_back({"core.plan_compiles_per_request",
               ratio(static_cast<double>(tally.plan_compiles), requests), "count"});
  m.push_back({"core.superstep_cycle_share",
               ratio(static_cast<double>(tally.superstep_cycles),
                     static_cast<double>(tally.cycles)),
               "ratio"});
  m.push_back({"tile.plan_us", med("tile.plan"), "us"});
  m.push_back({"tile.lower_us", med("tile.lower"), "us"});
  m.push_back({"tile.fold_us", med("tile.fold"), "us"});
  m.push_back({"tile.narrow_us", med("tile.narrow"), "us"});
  m.push_back({"tile.scratch_hit_ratio",
               ratio(static_cast<double>(tally.scratch_hits),
                     static_cast<double>(tally.scratch_hits + tally.scratch_refills)),
               "ratio"});
  m.push_back({"tile.children_per_request",
               ratio(static_cast<double>(tally.children),
                     static_cast<double>(tally.fanout_requests)),
               "count"});
  m.push_back({"served.requests_per_s", served.requests_per_s, "1/s"});
  m.push_back({"served.latency_mean_us", served.mean_us, "us"});
  m.push_back({"served.latency_p50_us", served.p50_us, "us"});
  m.push_back({"served.latency_p99_us", served.p99_us, "us"});
  m.push_back({"served.busy_steal_share", served.busy_steal_share, "ratio"});
  m.push_back({"replay.span_sum_us", span_sum_us, "us"});
  m.push_back({"trace.overhead_ratio", overhead, "ratio"});

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    for (const Spans::Span& s : log) {
      obs::JsonValue j = obs::JsonValue::object();
      j.set("name", s.name);
      j.set("request", static_cast<std::uint64_t>(s.request));
      j.set("start_ns", static_cast<std::int64_t>(s.start_ns));
      j.set("end_ns", static_cast<std::int64_t>(s.end_ns));
      j.set("parent", s.parent);
      out << j.dump() << '\n';
    }
    check(static_cast<bool>(out), "perfbench: cannot write " + spans_path);
  }
  return report;
}

}  // namespace perfbench
