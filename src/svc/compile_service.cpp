#include "svc/compile_service.hpp"

#include <chrono>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/quantile.hpp"
#include "svc/dfg_codec.hpp"

namespace sring::svc {

CompileService::CompileService(CompileServiceConfig config)
    : config_(config) {
  check(config_.cache_capacity >= 1,
        "svc: compile cache capacity must be at least 1");
  // Materialize every series up front so a fresh server's stats reply
  // already names them (CI greps svc.compile.hits on the first poll).
  registry_.counter("svc.compile.hits");
  registry_.counter("svc.compile.misses");
  registry_.counter("svc.compile.evictions");
  registry_.counter("svc.compile.validations");
  registry_.counter("svc.compile.failures");
  registry_.histogram("svc.compile.latency_us", obs::latency_bounds_us());
}

CompileService::Result CompileService::get_or_compile(
    std::span<const std::uint8_t> dfg_bytes, const RingGeometry& geometry) {
  check(!dfg_bytes.empty(), "svc: empty DFG blob");
  check(dfg_bytes.size() <= kMaxDfgBlobBytes,
        "dfg_codec: blob exceeds " + std::to_string(kMaxDfgBlobBytes) +
            " bytes");
  // The codec encoding is canonical (one graph, one byte string), so
  // hashing the raw bytes IS the content hash once decode succeeds —
  // and on the hit path decode never runs at all.
  const std::uint64_t hash = dfg_hash(dfg_bytes);
  const Key key{hash, static_cast<std::uint16_t>(geometry.layers),
                static_cast<std::uint16_t>(geometry.lanes),
                static_cast<std::uint16_t>(geometry.fb_depth)};

  std::lock_guard lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    registry_.counter("svc.compile.hits").add(1);
    return {it->second->second, true};
  }

  registry_.counter("svc.compile.misses").add(1);
  std::shared_ptr<const CompiledDfg> compiled;
  try {
    compiled = compile_locked(dfg_bytes, hash, geometry);
  } catch (...) {
    registry_.counter("svc.compile.failures").add(1);
    throw;
  }

  if (lru_.size() >= config_.cache_capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    registry_.counter("svc.compile.evictions").add(1);
  }
  lru_.emplace_front(key, compiled);
  index_[key] = lru_.begin();
  return {std::move(compiled), false};
}

std::shared_ptr<const CompiledDfg> CompileService::compile_locked(
    std::span<const std::uint8_t> dfg_bytes, std::uint64_t hash,
    const RingGeometry& geometry) {
  const auto t0 = std::chrono::steady_clock::now();

  const mapper::Dfg dfg = decode_dfg(dfg_bytes);
  dfg.validate();

  auto compiled = std::make_shared<CompiledDfg>();
  compiled->dfg_hash = hash;
  compiled->mapped = mapper::map_dfg(dfg, geometry);

  // Golden-model gate: before the program is ever served, run it over a
  // deterministic synthetic vector and hold it bit-identical to the
  // streaming interpreter.  A divergence is a mapper bug — better a
  // typed refusal now than wrong words to every future cache hit.
  if (compiled->mapped.input_count > 0 && config_.validate_samples > 0) {
    Rng rng(0x5DF6C0DEull ^ hash);
    std::vector<std::vector<Word>> streams(compiled->mapped.input_count);
    for (auto& s : streams) {
      s.reserve(config_.validate_samples);
      for (std::size_t n = 0; n < config_.validate_samples; ++n) {
        s.push_back(rng.next_word_in(-256, 255));
      }
    }
    const auto golden = mapper::interpret_dfg(dfg, streams);
    const auto run = mapper::run_mapped(compiled->mapped, streams);
    check(run.outputs == golden,
          "svc: mapped program diverges from the golden DSP model");
    registry_.counter("svc.compile.validations").add(1);
  }

  const auto t1 = std::chrono::steady_clock::now();
  compiled->compile_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
          .count());
  registry_.histogram("svc.compile.latency_us", obs::latency_bounds_us())
      .record(compiled->compile_us);
  return compiled;
}

obs::Registry CompileService::metrics() const {
  std::lock_guard lock(mu_);
  return registry_;
}

std::size_t CompileService::cache_size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

}  // namespace sring::svc
