// sras — the Systolic Ring assembler tool (paper §5.1: "to program
// this structure we wrote an assembling tool, which parses both RISC
// level and Ring level assembler primitives; it directly generates the
// machine object code, ready to be executed in the architecture").
//
// Usage:
//   sras <input.sasm> -o <output.srgo>      assemble to object code
//   sras -d <object.srgo>                   disassemble to stdout
//   sras -r <object.srgo> [max_cycles]      load and run (host FIFOs
//                                           empty; prints statistics)
//
// Run-mode observability flags:
//   --trace-format=<text|jsonl|chrome>      structured cycle trace
//   --trace-out <path>                      trace file (default stdout)
//   --report-json <path>                    machine-readable RunReport
//
// Run-mode fleet flags (batch-execution runtime):
//   --workers <n>                           worker threads (default 1)
//   --batch <n>                             run the program n times
//                                           across the fleet; outputs
//                                           must stay bit-identical
//
// Serving subcommands (src/net/ remote job-serving subsystem):
//   sras serve [--host H] [--port N] [--workers N] [--queue N]
//              [--port-file P] [--report-json P] [--sample-ms N]
//              [--slow-us N] [--flight-dump P]
//       run a job server until SIGTERM / a client Drain; exits 0 on a
//       clean drain and writes the net+rt metrics report (plus the
//       captured flight records when --flight-dump is given).
//   sras remote [--host H] [--port N] [--kernel all|fir|me|dwt|matvec]
//               [--count N] [--info] [--ping] [--drain]
//       submit deterministic kernel jobs and verify the remote outputs
//       bit-exact against local rt::Runtime execution.
//   sras remote --dfg <graph.dfg> [--count N] [--samples N]
//       parse a text dataflow graph, submit it (as a canonical blob)
//       to the server's compile service --count times, and verify
//       every de-laced output stream bit-exact against the local
//       mapper; run 2+ must be a compile-cache hit.
//
// Mapper subcommand (src/svc/ DFG front end, offline):
//   sras map --dfg-file <graph.dfg> [--layers N] [--lanes N] [--fb N]
//            [--samples N] [--report-json P]
//       parse + map a text dataflow graph, print the placement report
//       and the canonical blob's content hash, and cross-check the
//       mapped program against the golden DSP model.
//   sras stats [--host H] --port N [--count N] [--interval-ms N]
//              [--jsonl] [--flight]
//       poll a live server's GetStats snapshot: counters, per-phase
//       latency quantiles and sampler rates, pretty-printed or as
//       JSONL for scraping; --flight appends the recent span records.
//
// Tiled-GEMM subcommand (src/tile/ scratchpad + tiling engine):
//   sras gemm [--m N] [--k N] [--n N] [--dtype int8|int16] [--shift N]
//             [--mapping os|ws] [--tile-n N] [--scratch-tiles N]
//             [--workers N] [--seed N] [--port N] [--report-json P]
//       run one tiled narrow-int GEMM on the local fleet, verify it
//       bit-exact against the scalar reference and print the
//       tile.scratch.* staging behaviour; with --port, resubmit the
//       same GEMM to a live server (protocol v4) and hold the served
//       words, sim cycles and every tile.* reply counter identical to
//       the local run.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "asm/assembler.hpp"
#include "asm/disassembler.hpp"
#include "asm/object_file.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dsp/matvec.hpp"
#include "mapper/mapper.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/cli.hpp"
#include "obs/sinks.hpp"
#include "rt/runtime.hpp"
#include "sim/report.hpp"
#include "sim/system.hpp"
#include "svc/dfg_codec.hpp"
#include "svc/dfg_text.hpp"
#include "tile/gemm_runner.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sras <input.sasm> -o <output.srgo>\n"
               "  sras -d <object.srgo>\n"
               "  sras -r <object.srgo> [max_cycles]\n"
               "        [--trace-format=<text|jsonl|chrome>]\n"
               "        [--trace-out <path>] [--report-json <path>]\n"
               "        [--workers <n>] [--batch <n>]\n"
               "  sras serve [--host H] [--port N] [--workers N]\n"
               "        [--queue N] [--shards N] [--port-file P]\n"
               "        [--report-json P] [--sample-ms N] [--slow-us N]\n"
               "        [--flight-dump P]\n"
               "  sras remote [--host H] [--port N]\n"
               "        [--kernel all|fir|me|dwt|matvec] [--count N]\n"
               "        [--pipeline N] [--batch-wire]\n"
               "        [--info] [--ping] [--drain] [--report-json P]\n"
               "  sras remote --dfg <graph.dfg> --port N [--count N]\n"
               "        [--samples N]\n"
               "  sras map --dfg-file <graph.dfg> [--layers N]\n"
               "        [--lanes N] [--fb N] [--samples N]\n"
               "        [--report-json P]\n"
               "  sras stats [--host H] --port N [--count N]\n"
               "        [--interval-ms N] [--jsonl] [--flight]\n"
               "  sras gemm [--m N] [--k N] [--n N]\n"
               "        [--dtype int8|int16] [--shift N] [--mapping os|ws]\n"
               "        [--tile-n N] [--scratch-tiles N] [--workers N]\n"
               "        [--seed N] [--host H] [--port N]\n"
               "        [--report-json P]\n");
  return 2;
}

std::size_t opt_size(int& argc, char** argv, const char* name,
                     std::size_t fallback) {
  const auto v = sring::obs::extract_option(argc, argv, name);
  return v ? std::strtoul(v->c_str(), nullptr, 10) : fallback;
}

/// Deterministic JobRequests for `sras remote` — same seeding scheme
/// as bench_serve, so remote-vs-local comparison is reproducible.
std::vector<sring::net::JobRequest> build_remote_requests(
    const std::string& kernel, std::size_t count) {
  using namespace sring;
  const RingGeometry geom{8, 2, 16};
  std::vector<net::JobRequest> reqs;
  std::vector<std::string> kinds;
  if (kernel == "all") {
    kinds = {"fir", "me", "dwt", "matvec"};
  } else {
    kinds = {kernel};
  }
  for (const std::string& kind : kinds) {
    for (std::size_t i = 0; i < count; ++i) {
      Rng rng(0x5EEDull + i);
      net::JobRequest req;
      req.geometry = geom;
      if (kind == "fir") {
        req.kernel = net::KernelId::kFir;
        req.fir_coeffs = {1, static_cast<Word>(-2), 3, 4};
        req.input.resize(128);
        for (auto& w : req.input) w = rng.next_word_in(-128, 127);
      } else if (kind == "me") {
        req.kernel = net::KernelId::kMotionEstimation;
        req.me_ref = Image::synthetic(16, 16, 7 + i);
        req.me_cand = Image::shifted(req.me_ref, 1, -1, 11 + i, 2);
        req.me_rx = 4;
        req.me_ry = 4;
        req.me_range = 2;
      } else if (kind == "dwt") {
        req.kernel = net::KernelId::kDwt53;
        req.input.resize(128);
        for (auto& w : req.input) w = rng.next_word_in(-128, 127);
      } else if (kind == "matvec") {
        req.kernel = net::KernelId::kMatvec8;
        const dsp::Matrix8 m = dsp::dct8_matrix_q7();
        for (const auto& row : m) {
          req.matvec_m.insert(req.matvec_m.end(), row.begin(), row.end());
        }
        req.input.resize(64);
        for (auto& w : req.input) w = rng.next_word_in(-64, 63);
      } else {
        throw SimError("sras remote: unknown kernel '" + kind +
                       "' (expected all, fir, me, dwt or matvec)");
      }
      reqs.push_back(std::move(req));
    }
  }
  return reqs;
}

std::string read_text_file(const std::string& path, const char* who) {
  std::ifstream in(path);
  sring::check(in.good(), std::string(who) + ": cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Deterministic per-run input streams for a DFG — reproducible on
/// both ends of the wire, so remote results can be held bit-exact
/// against the local mapper.
std::vector<std::vector<sring::Word>> build_dfg_streams(
    std::size_t input_count, std::size_t samples, std::size_t run) {
  using namespace sring;
  std::vector<std::vector<Word>> streams(input_count);
  Rng rng(0xD0F6ull + 0x9E37ull * run);
  for (auto& s : streams) {
    s.resize(samples);
    for (auto& w : s) w = rng.next_word_in(-200, 200);
  }
  return streams;
}

int cmd_map(int argc, char** argv) {
  using namespace sring;
  const std::string dfg_file =
      obs::extract_option(argc, argv, "--dfg-file").value_or("");
  const std::size_t layers = opt_size(argc, argv, "--layers", 8);
  const std::size_t lanes = opt_size(argc, argv, "--lanes", 2);
  const std::size_t fb = opt_size(argc, argv, "--fb", 16);
  const std::size_t samples = opt_size(argc, argv, "--samples", 32);
  const std::string report_json =
      obs::extract_option(argc, argv, "--report-json").value_or("");
  check(!dfg_file.empty(), "sras map: --dfg-file is required");

  const mapper::Dfg dfg =
      svc::parse_dfg_text(read_text_file(dfg_file, "sras map"));
  const std::vector<std::uint8_t> blob = svc::encode_dfg(dfg);
  const std::uint64_t hash = svc::dfg_hash(blob);
  const RingGeometry geom{layers, lanes, fb};
  const mapper::MappedProgram mapped = mapper::map_dfg(dfg, geom);

  std::printf("%s", mapper::mapping_report(mapped).c_str());
  std::printf(
      "dfg %s: hash %s, %zu byte blob, %zu/%zu dnodes, latency %zu, "
      "%zu input(s), %zu output(s)\n",
      dfg_file.c_str(), svc::dfg_hash_hex(hash).c_str(), blob.size(),
      mapped.dnodes_used, geom.dnode_count(), mapped.max_latency,
      mapped.input_count, mapped.outputs.size());

  // Cross-check the mapped program against the golden DSP model on a
  // deterministic vector — the same discipline the compile service
  // applies server-side.
  bool validated = false;
  if (samples > 0 && mapped.input_count > 0) {
    const auto streams = build_dfg_streams(mapped.input_count, samples, 0);
    const auto golden = mapper::interpret_dfg(dfg, streams);
    const auto run = mapper::run_mapped(mapped, streams);
    check(run.outputs == golden,
          "sras map: mapped program diverges from the golden DSP model");
    validated = true;
    std::printf("validated against the golden model on %zu samples\n",
                samples);
  }

  RunReport report;
  report.name = "sras_map";
  report.extra("schema_version", std::uint64_t{1})
      .extra("dfg_hash", svc::dfg_hash_hex(hash))
      .extra("blob_bytes", std::uint64_t{blob.size()})
      .extra("dnodes_used", std::uint64_t{mapped.dnodes_used})
      .extra("max_latency", std::uint64_t{mapped.max_latency})
      .extra("inputs", std::uint64_t{mapped.input_count})
      .extra("outputs", std::uint64_t{mapped.outputs.size()})
      .extra("validated", validated);
  maybe_write_run_report(report, report_json);
  return 0;
}

int cmd_serve(int argc, char** argv) {
  using namespace sring;
  const std::string host =
      obs::extract_option(argc, argv, "--host").value_or("127.0.0.1");
  const std::size_t port = opt_size(argc, argv, "--port", 0);
  const std::size_t workers = opt_size(argc, argv, "--workers", 0);
  const std::size_t queue = opt_size(argc, argv, "--queue", 64);
  const std::size_t shards = opt_size(argc, argv, "--shards", 1);
  const std::string port_file =
      obs::extract_option(argc, argv, "--port-file").value_or("");
  const std::string report_json =
      obs::extract_option(argc, argv, "--report-json").value_or("");
  const std::size_t sample_ms = opt_size(argc, argv, "--sample-ms", 1000);
  const std::size_t slow_us = opt_size(argc, argv, "--slow-us", 100000);
  const std::string flight_dump =
      obs::extract_option(argc, argv, "--flight-dump").value_or("");
  check(port <= 65535, "sras serve: --port out of range");
  check(queue >= 1, "sras serve: --queue must be at least 1");
  check(shards >= 1 && shards <= 64,
        "sras serve: --shards must be 1..64");
  check(sample_ms >= 1, "sras serve: --sample-ms must be at least 1");

  net::ServerConfig cfg;
  cfg.host = host;
  cfg.port = static_cast<std::uint16_t>(port);
  cfg.runtime.workers = workers;
  cfg.runtime.queue_capacity = queue;
  cfg.shards = shards;
  cfg.sample_interval = std::chrono::milliseconds(sample_ms);
  cfg.slow_threshold_us = slow_us;
  cfg.flight_dump_path = flight_dump;

  net::Server server(cfg);
  server.enable_signal_drain();
  std::printf(
      "sras serve: listening on %s:%u (workers=%zu queue=%zu shards=%zu)\n",
      host.c_str(), server.port(),
      workers == 0 ? std::size_t{0} : workers, queue, shards);
  std::fflush(stdout);
  if (!port_file.empty()) {
    // The port file is how scripts discover an ephemeral port; write
    // it only after listen() succeeded.
    std::ofstream pf(port_file);
    check(pf.good(), "sras serve: cannot write port file " + port_file);
    pf << server.port() << "\n";
  }

  server.run();

  const obs::Registry m = server.metrics();
  const auto counter = [&m](const char* name) {
    const auto* c = m.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  const std::uint64_t plan_compiles = counter("ring.plan.compiles");
  const std::uint64_t plan_hits = counter("ring.plan.hits");
  const double plan_hit_rate =
      plan_compiles + plan_hits > 0
          ? static_cast<double>(plan_hits) /
                static_cast<double>(plan_compiles + plan_hits)
          : 0.0;
  std::printf(
      "sras serve: drained cleanly — %llu connections, %llu frames in, "
      "%llu jobs ok, %llu failed, %llu busy-rejects, %llu protocol "
      "errors\n"
      "sras serve: plan cache %llu compiles / %llu hits (%.1f%% hit "
      "rate), %llu superstep cycles\n",
      static_cast<unsigned long long>(counter("net.connections.accepted")),
      static_cast<unsigned long long>(counter("net.frames.in")),
      static_cast<unsigned long long>(counter("net.jobs.completed")),
      static_cast<unsigned long long>(counter("net.jobs.failed")),
      static_cast<unsigned long long>(counter("net.rejects.busy")),
      static_cast<unsigned long long>(counter("net.protocol_errors")),
      static_cast<unsigned long long>(plan_compiles),
      static_cast<unsigned long long>(plan_hits), 100.0 * plan_hit_rate,
      static_cast<unsigned long long>(counter("ring.superstep.cycles")));

  RunReport report;
  report.name = "sras_serve";
  report.metrics.adhoc = m;
  report.extra("schema_version", std::uint64_t{1})
      .extra("host", host)
      .extra("port", std::uint64_t{server.port()})
      .extra("queue_capacity", std::uint64_t{queue});
  maybe_write_run_report(report, report_json);
  return 0;
}

int cmd_stats(int argc, char** argv) {
  using namespace sring;
  const std::string host =
      obs::extract_option(argc, argv, "--host").value_or("127.0.0.1");
  const std::size_t port = opt_size(argc, argv, "--port", 0);
  const std::size_t count = opt_size(argc, argv, "--count", 1);
  const std::size_t interval_ms =
      opt_size(argc, argv, "--interval-ms", 1000);
  const bool jsonl = obs::extract_flag(argc, argv, "--jsonl");
  const bool flight = obs::extract_flag(argc, argv, "--flight");
  check(port >= 1 && port <= 65535,
        "sras stats: --port is required (1..65535)");
  check(count >= 1, "sras stats: --count must be at least 1");

  net::ClientConfig ccfg;
  ccfg.host = host;
  ccfg.port = static_cast<std::uint16_t>(port);
  net::Client client(ccfg);

  for (std::size_t poll = 0; poll < count; ++poll) {
    if (poll > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    const net::StatsReplyMsg s = client.stats(flight);
    if (jsonl) {
      s.to_json().dump(std::cout);
      std::cout << '\n';
      std::cout.flush();
      continue;
    }
    std::printf(
        "server up %.1fs: %u workers (%.0f%% utilized), queue %u/%u\n",
        static_cast<double>(s.uptime_us) / 1e6, s.workers,
        100.0 * s.worker_utilization, s.queue_depth, s.queue_capacity);
    for (const auto& [name, value] : s.counters) {
      std::printf("  %-32s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
    for (const auto& q : s.latencies) {
      std::printf(
          "  %-32s n=%-6llu mean %8.0f us  p50 %8.0f  p90 %8.0f  "
          "p99 %8.0f  max %8llu\n",
          q.name.c_str(), static_cast<unsigned long long>(q.count),
          q.mean_us, q.p50_us, q.p90_us, q.p99_us,
          static_cast<unsigned long long>(q.max_us));
    }
    for (const auto& [name, per_sec] : s.rates) {
      std::printf("  %-32s %.1f/s\n", name.c_str(), per_sec);
    }
    for (const auto& rec : s.flight) {
      std::printf(
          "  flight trace=%llu %s%s%s worker=%u queue %u us / exec %u "
          "us / e2e %u us\n",
          static_cast<unsigned long long>(rec.trace_id),
          rec.name.c_str(), rec.slow ? " SLOW" : "",
          rec.ok ? "" : " FAILED", rec.worker, rec.queue_wait_us,
          rec.execute_us, rec.e2e_us);
    }
    std::fflush(stdout);
  }
  return 0;
}

int cmd_remote(int argc, char** argv) {
  using namespace sring;
  const std::string host =
      obs::extract_option(argc, argv, "--host").value_or("127.0.0.1");
  const std::size_t port = opt_size(argc, argv, "--port", 0);
  const std::string kernel =
      obs::extract_option(argc, argv, "--kernel").value_or("all");
  const std::string dfg_file =
      obs::extract_option(argc, argv, "--dfg").value_or("");
  const std::size_t samples = opt_size(argc, argv, "--samples", 32);
  const std::size_t count = opt_size(argc, argv, "--count", 4);
  const std::size_t pipeline = opt_size(argc, argv, "--pipeline", 0);
  const bool batch_wire = obs::extract_flag(argc, argv, "--batch-wire");
  const bool info = obs::extract_flag(argc, argv, "--info");
  const bool do_ping = obs::extract_flag(argc, argv, "--ping");
  const bool do_drain = obs::extract_flag(argc, argv, "--drain");
  const std::string report_json =
      obs::extract_option(argc, argv, "--report-json").value_or("");
  check(port >= 1 && port <= 65535,
        "sras remote: --port is required (1..65535)");
  check(count >= 1, "sras remote: --count must be at least 1");

  net::ClientConfig ccfg;
  ccfg.host = host;
  ccfg.port = static_cast<std::uint16_t>(port);
  net::Client client(ccfg);

  if (do_ping) {
    std::printf("ping: %.1f us\n", client.ping());
    return 0;
  }
  if (info) {
    const net::ServerInfoMsg si = client.server_info();
    std::printf(
        "server %s: protocol v%u, %u workers, queue %u, max frame %u "
        "bytes, %llu jobs completed\n",
        si.server.c_str(), si.protocol_version, si.workers,
        si.queue_capacity, si.max_frame_bytes,
        static_cast<unsigned long long>(si.jobs_completed));
    return 0;
  }
  if (do_drain) {
    check(client.drain(), "sras remote: server did not acknowledge drain");
    std::printf("drain acknowledged\n");
    return 0;
  }

  // DFG mode: compile + run a dataflow graph remotely --count times,
  // verifying every de-laced stream against the local mapper.  The
  // graph blob is identical each run, so run 2+ must hit the server's
  // compile cache.
  if (!dfg_file.empty()) {
    check(samples >= 1, "sras remote: --samples must be at least 1");
    const mapper::Dfg dfg =
        svc::parse_dfg_text(read_text_file(dfg_file, "sras remote"));
    const std::vector<std::uint8_t> blob = svc::encode_dfg(dfg);
    const RingGeometry geom{8, 2, 16};
    const mapper::MappedProgram mapped = mapper::map_dfg(dfg, geom);
    check(mapped.input_count > 0,
          "sras remote: the graph has no input nodes to stream");

    std::size_t cache_hits = 0;
    double total_us = 0.0;
    for (std::size_t run = 0; run < count; ++run) {
      const auto streams =
          build_dfg_streams(mapped.input_count, samples, run);
      const auto t0 = std::chrono::steady_clock::now();
      const net::RemoteDfgResult r = client.submit_dfg(blob, streams, geom);
      const auto t1 = std::chrono::steady_clock::now();
      total_us +=
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      check(r.ok, "sras remote: DFG run " + std::to_string(run) +
                      " failed: " + (r.busy ? "busy" : r.error));
      const auto local = mapper::run_mapped(mapped, streams);
      check(r.streams == local.outputs,
            "sras remote: DFG run " + std::to_string(run) +
                " outputs diverged from the local mapper");
      if (r.cache_hit) ++cache_hits;
      std::printf("dfg run %zu: hash %s %s, %zu stream(s) bit-exact\n",
                  run, sring::svc::dfg_hash_hex(r.dfg_hash).c_str(),
                  r.cache_hit ? "cache hit" : "compiled",
                  r.streams.size());
    }
    check(count < 2 || cache_hits >= count - 1,
          "sras remote: expected compile-cache hits after the first run");
    std::printf(
        "%zu DFG runs remote == local bit-exact; %zu cache hit(s), "
        "mean latency %.1f us\n",
        count, cache_hits, total_us / static_cast<double>(count));

    RunReport report;
    report.name = "sras_remote_dfg";
    report.extra("schema_version", std::uint64_t{1})
        .extra("dfg_file", dfg_file)
        .extra("runs", std::uint64_t{count})
        .extra("cache_hits", std::uint64_t{cache_hits})
        .extra("mean_latency_us", total_us / static_cast<double>(count))
        .extra("outputs_bit_identical", true);
    maybe_write_run_report(report, report_json);
    return 0;
  }

  // Verification mode: run the same deterministic jobs locally and
  // remotely; every output word must match.
  const std::vector<net::JobRequest> reqs =
      build_remote_requests(kernel, count);
  rt::Runtime local;
  std::vector<rt::Job> local_jobs;
  local_jobs.reserve(reqs.size());
  for (const auto& req : reqs) local_jobs.push_back(net::to_rt_job(req));
  const std::vector<rt::JobResult> expected =
      local.submit_batch(std::move(local_jobs));

  check(!(batch_wire && pipeline > 0),
        "sras remote: --batch-wire and --pipeline are mutually exclusive");

  const char* mode = batch_wire ? "batch-wire"
                     : pipeline > 0 ? "pipelined"
                                    : "sequential";
  double total_us = 0.0;
  std::uint64_t remote_cycles = 0;
  std::vector<net::RemoteResult> results;
  if (batch_wire || pipeline > 0) {
    const auto t0 = std::chrono::steady_clock::now();
    results = batch_wire ? client.submit_batch_wire(reqs)
                         : client.submit_pipelined(reqs, pipeline);
    const auto t1 = std::chrono::steady_clock::now();
    total_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  } else {
    results.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      results.push_back(client.submit(reqs[i]));
      const auto t1 = std::chrono::steady_clock::now();
      total_us +=
          std::chrono::duration<double, std::micro>(t1 - t0).count();
    }
  }
  check(results.size() == reqs.size(),
        "sras remote: result count mismatch");
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const net::RemoteResult& r = results[i];
    check(r.ok, "sras remote: job " + std::to_string(i) +
                    " failed: " + (r.busy ? "busy" : r.error));
    check(expected[i].ok, "sras remote: local reference job " +
                              std::to_string(i) +
                              " failed: " + expected[i].error);
    check(r.outputs == expected[i].outputs,
          "sras remote: job " + std::to_string(i) +
              " outputs diverged from local execution");
    remote_cycles += r.sim_cycles;
  }
  std::printf(
      "%zu jobs (%s, %s) remote == local bit-exact; mean latency %.1f "
      "us, %llu simulated cycles\n",
      reqs.size(), kernel.c_str(), mode,
      total_us / static_cast<double>(reqs.size()),
      static_cast<unsigned long long>(remote_cycles));

  RunReport report;
  report.name = "sras_remote";
  report.extra("schema_version", std::uint64_t{1})
      .extra("kernel", kernel)
      .extra("mode", std::string(mode))
      .extra("jobs", std::uint64_t{reqs.size()})
      .extra("mean_latency_us",
             total_us / static_cast<double>(reqs.size()))
      .extra("outputs_bit_identical", true);
  maybe_write_run_report(report, report_json);
  return 0;
}

int cmd_gemm(int argc, char** argv) {
  using namespace sring;
  const std::size_t m = opt_size(argc, argv, "--m", 64);
  const std::size_t k = opt_size(argc, argv, "--k", 64);
  const std::size_t n = opt_size(argc, argv, "--n", 64);
  const std::string dtype_s =
      obs::extract_option(argc, argv, "--dtype").value_or("int8");
  const std::size_t shift = opt_size(argc, argv, "--shift", 5);
  const std::string mapping_s =
      obs::extract_option(argc, argv, "--mapping").value_or("os");
  const std::size_t tile_n = opt_size(argc, argv, "--tile-n", 8);
  const std::size_t scratch = opt_size(argc, argv, "--scratch-tiles", 128);
  const std::size_t workers = opt_size(argc, argv, "--workers", 0);
  const std::size_t seed = opt_size(argc, argv, "--seed", 1);
  const std::string host =
      obs::extract_option(argc, argv, "--host").value_or("127.0.0.1");
  const std::size_t port = opt_size(argc, argv, "--port", 0);
  const std::string report_json =
      obs::extract_option(argc, argv, "--report-json").value_or("");
  check(port <= 65535, "sras gemm: --port out of range");

  tile::GemmSpec spec;
  spec.m = m;
  spec.k = k;
  spec.n = n;
  if (dtype_s == "int8") {
    spec.dtype = tile::Dtype::kInt8;
  } else if (dtype_s == "int16") {
    spec.dtype = tile::Dtype::kInt16;
  } else {
    throw SimError("sras gemm: unknown --dtype '" + dtype_s +
                   "' (expected int8 or int16)");
  }
  spec.shift = static_cast<unsigned>(shift);
  if (mapping_s == "os") {
    spec.mapping = tile::Mapping::kOutputStationary;
  } else if (mapping_s == "ws") {
    spec.mapping = tile::Mapping::kWeightStationary;
  } else {
    throw SimError("sras gemm: unknown --mapping '" + mapping_s +
                   "' (expected os or ws)");
  }
  spec.tile_n = tile_n;
  spec.validate();

  const auto a =
      tile::random_operand(spec.m * spec.k, spec.dtype, 0xA11Aull + seed);
  const auto b =
      tile::random_operand(spec.k * spec.n, spec.dtype, 0xB22Bull + seed);

  rt::RuntimeConfig rcfg;
  rcfg.workers = workers;
  rt::Runtime runtime(rcfg);
  tile::GemmRunConfig gcfg;
  gcfg.scratch_tiles = scratch;
  const auto t0 = std::chrono::steady_clock::now();
  const tile::GemmResult res = tile::run_gemm(runtime, gcfg, spec, a, b);
  const auto t1 = std::chrono::steady_clock::now();
  const double local_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  check(res.c == tile::gemm_reference(spec, a, b),
        "sras gemm: fleet output diverged from the scalar reference");

  std::printf(
      "sras gemm: %zux%zux%zu %s shift=%u %s tile_n=%zu scratch=%zu "
      "workers=%zu\n"
      "  verified bit-exact against the scalar int GEMM reference\n"
      "  %-28s %llu\n  %-28s %llu\n  %-28s %llu\n  %-28s %llu\n"
      "  %-28s %llu\n  %-28s %llu\n  %-28s %llu\n  %-28s %llu\n"
      "  traffic reduction %.2fx (%.1f us local)\n",
      spec.m, spec.k, spec.n, tile::dtype_name(spec.dtype), spec.shift,
      tile::mapping_name(spec.mapping), spec.tile_n, scratch,
      runtime.worker_count(), "tile.jobs",
      static_cast<unsigned long long>(res.jobs), "tile.sim_cycles",
      static_cast<unsigned long long>(res.sim_cycles), "tile.scratch.hits",
      static_cast<unsigned long long>(res.scratch_hits),
      "tile.scratch.refills",
      static_cast<unsigned long long>(res.scratch_refills),
      "tile.scratch.evictions",
      static_cast<unsigned long long>(res.scratch_evictions),
      "tile.scratch.bytes_filled",
      static_cast<unsigned long long>(res.bytes_filled),
      "tile.scratch.bytes_saved",
      static_cast<unsigned long long>(res.bytes_saved),
      "tile.streamed_bytes",
      static_cast<unsigned long long>(res.schedule.streamed_bytes),
      res.traffic_reduction, local_us);

  // Served verification: the same spec + operands through a live v4
  // server must reproduce the local words exactly — the wrapping-fold
  // accumulation is order-independent, so asynchronous server-side
  // tile completion cannot change a single bit.
  bool served = false;
  if (port != 0) {
    net::ClientConfig ccfg;
    ccfg.host = host;
    ccfg.port = static_cast<std::uint16_t>(port);
    net::Client client(ccfg);
    const net::RemoteGemmResult r = client.submit_gemm(
        spec, a, b, gcfg.geometry, static_cast<std::uint32_t>(scratch));
    check(r.ok, "sras gemm: served run failed: " +
                    (r.busy ? std::string("busy") : r.error));
    check(r.c == res.c,
          "sras gemm: served outputs diverged from the local fleet");
    // Every tile.* counter the reply carries, and its sim cycles, must
    // equal the local run's: both come from one tile::GemmDriver.
    check(r.sim_cycles == res.sim_cycles,
          "sras gemm: served sim cycles diverged from local");
    check(r.counters.size() == res.counters.size(),
          "sras gemm: served reply counters differ from local");
    for (const auto& [name, value] : res.counters) {
      check(r.counter(name) == value,
            "sras gemm: served " + name + " diverged from local");
    }
    served = true;
    std::printf(
        "  served == local bit-exact (%llu sim cycles, %u us server "
        "e2e)\n",
        static_cast<unsigned long long>(r.sim_cycles),
        static_cast<unsigned>(r.total_us));
  }

  RunReport report;
  report.name = "sras_gemm";
  report.extra("schema_version", std::uint64_t{1})
      .extra("m", std::uint64_t{spec.m})
      .extra("k", std::uint64_t{spec.k})
      .extra("n", std::uint64_t{spec.n})
      .extra("dtype", std::string(tile::dtype_name(spec.dtype)))
      .extra("mapping", std::string(tile::mapping_name(spec.mapping)))
      .extra("tile_n", std::uint64_t{spec.tile_n})
      .extra("scratch_tiles", std::uint64_t{scratch})
      .extra("tile_jobs", res.jobs)
      .extra("scratch_hits", res.scratch_hits)
      .extra("scratch_refills", res.scratch_refills)
      .extra("bytes_filled", res.bytes_filled)
      .extra("bytes_saved", res.bytes_saved)
      .extra("traffic_reduction", res.traffic_reduction)
      .extra("outputs_bit_identical", true)
      .extra("served_verified", served);
  maybe_write_run_report(report, report_json);
  return 0;
}

std::unique_ptr<sring::obs::EventSink> make_sink(const std::string& format,
                                                 std::ostream& out) {
  using namespace sring::obs;
  if (format == "text") return std::make_unique<TextSink>(out);
  if (format == "jsonl") return std::make_unique<JsonlSink>(out);
  if (format == "chrome") return std::make_unique<ChromeTraceSink>(out);
  throw sring::SimError("unknown trace format: " + format +
                        " (expected text, jsonl or chrome)");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sring;
  try {
    // Serving subcommands claim their own flags (--workers etc. mean
    // different things there), so dispatch before generic parsing.
    if (argc >= 2 && std::string(argv[1]) == "serve") {
      return cmd_serve(argc, argv);
    }
    if (argc >= 2 && std::string(argv[1]) == "remote") {
      return cmd_remote(argc, argv);
    }
    if (argc >= 2 && std::string(argv[1]) == "stats") {
      return cmd_stats(argc, argv);
    }
    if (argc >= 2 && std::string(argv[1]) == "map") {
      return cmd_map(argc, argv);
    }
    if (argc >= 2 && std::string(argv[1]) == "gemm") {
      return cmd_gemm(argc, argv);
    }

    const std::string trace_format =
        obs::extract_option(argc, argv, "--trace-format").value_or("");
    const std::string trace_out =
        obs::extract_option(argc, argv, "--trace-out").value_or("");
    const std::string report_json =
        obs::extract_option(argc, argv, "--report-json").value_or("");
    const std::string workers_opt =
        obs::extract_option(argc, argv, "--workers").value_or("");
    const std::string batch_opt =
        obs::extract_option(argc, argv, "--batch").value_or("");

    if (argc >= 3 && std::string(argv[1]) == "-d") {
      std::printf("%s", disassemble(load_program(argv[2])).c_str());
      return 0;
    }
    if (argc >= 3 && std::string(argv[1]) == "-r") {
      const LoadableProgram prog = load_program(argv[2]);
      const std::uint64_t budget =
          argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 100000;

      // Fleet mode: replicate the program across the batch-execution
      // runtime.  Host FIFOs start empty, exactly like a single run.
      if (!workers_opt.empty() || !batch_opt.empty()) {
        const std::size_t workers = workers_opt.empty()
                                        ? 1
                                        : std::strtoul(workers_opt.c_str(),
                                                       nullptr, 10);
        const std::size_t batch =
            batch_opt.empty() ? 1
                              : std::strtoul(batch_opt.c_str(), nullptr, 10);
        check(workers >= 1 && batch >= 1,
              "sras: --workers and --batch must be at least 1");

        rt::Job job;
        job.name = prog.name.empty() ? "sras_run" : prog.name;
        job.program = std::make_shared<const LoadableProgram>(prog);
        job.max_cycles = budget;

        rt::RuntimeConfig cfg;
        cfg.workers = workers;
        rt::Runtime runtime(cfg);
        std::vector<rt::Job> jobs(batch, job);
        const auto results = runtime.submit_batch(std::move(jobs));

        std::uint64_t cycles = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
          check(results[i].ok, "sras: job " + std::to_string(i) +
                                   " failed: " + results[i].error);
          check(results[i].outputs == results[0].outputs,
                "sras: job " + std::to_string(i) +
                    " outputs diverged from job 0");
          cycles += results[i].report.stats.cycles;
        }
        std::printf(
            "ran %zu jobs on %zu workers: %llu total simulated cycles, "
            "outputs bit-identical\n",
            results.size(), runtime.worker_count(),
            static_cast<unsigned long long>(cycles));

        RunReport report = results[0].report;
        report.extra("rt_workers", std::uint64_t{runtime.worker_count()})
            .extra("rt_batch", std::uint64_t{batch})
            .extra("rt_total_cycles", cycles);
        maybe_write_run_report(report, report_json);
        return 0;
      }

      System sys({prog.geometry});
      sys.load(prog);

      // Trace sink: stream borrowed, sink owned here; end() runs
      // before either goes away (System::set_trace never finalizes).
      std::ofstream trace_file;
      std::unique_ptr<obs::EventSink> sink;
      if (!trace_format.empty()) {
        std::ostream* out = &std::cout;
        if (!trace_out.empty()) {
          trace_file.open(trace_out);
          check(trace_file.good(),
                "cannot open trace file: " + trace_out);
          out = &trace_file;
        }
        sink = make_sink(trace_format, *out);
        sys.set_trace(sink.get());
      }

      sys.run_until_halt(budget);
      if (sink) {
        sys.set_trace(nullptr);
        sink->end();
      }

      std::printf("halted after %llu cycles\n%s\n",
                  static_cast<unsigned long long>(sys.cycle()),
                  sys.stats().to_string().c_str());
      maybe_write_run_report(
          RunReport::from_system(prog.name.empty() ? "sras_run" : prog.name,
                                 sys),
          report_json);
      return 0;
    }
    if (argc == 4 && std::string(argv[2]) == "-o") {
      std::ifstream in(argv[1]);
      if (!in.good()) {
        std::fprintf(stderr, "sras: cannot open %s\n", argv[1]);
        return 1;
      }
      std::stringstream ss;
      ss << in.rdbuf();
      const LoadableProgram prog = assemble(ss.str());
      save_program(prog, argv[3]);
      std::printf(
          "%s: %zu controller words, %zu pages, %zu local writes -> %s\n",
          prog.name.empty() ? argv[1] : prog.name.c_str(),
          prog.controller_code.size(), prog.pages.size(),
          prog.local_init.size(), argv[3]);
      return 0;
    }
    return usage();
  } catch (const AsmError& e) {
    std::fprintf(stderr, "sras: %s\n", e.what());
    return 1;
  } catch (const SimError& e) {
    std::fprintf(stderr, "sras: %s\n", e.what());
    return 1;
  }
}
