// Server-side DFG compile pipeline with a bounded compiled-program
// cache — the paper's §6 "efficient compiling tool" as a service.
//
// A submitted graph travels: canonical blob -> content hash (cache
// key) -> decode (svc/dfg_codec) -> mapper::map_dfg -> golden-model
// validation (interpret_dfg vs the mapped program on a deterministic
// synthetic vector) -> cached CompiledDfg.  A cache hit skips all of
// that: the hash lookup returns the program in microseconds and the
// job's span timeline never contains a compile phase.
//
// Counters (merged into Server::metrics() as svc.compile.*):
//   hits / misses / evictions / validations / failures, plus the
//   svc.compile.latency_us histogram on the shared 1-2-5 ladder —
//   recorded on misses only, so the histogram *is* the compile cost.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mapper/mapper.hpp"
#include "obs/metrics.hpp"

namespace sring::svc {

/// One compiled graph, shared between the cache, in-flight jobs and
/// (via the aliasing constructor) rt::Job::program — eviction can
/// never invalidate a program a worker is still arming.
struct CompiledDfg {
  std::uint64_t dfg_hash = 0;
  mapper::MappedProgram mapped;
  std::uint64_t compile_us = 0;  ///< decode+map+validate cost (0 = n/a)
};

struct CompileServiceConfig {
  std::size_t cache_capacity = 64;    ///< compiled programs kept (LRU)
  std::size_t validate_samples = 16;  ///< synthetic samples per input
};

class CompileService {
 public:
  struct Result {
    std::shared_ptr<const CompiledDfg> compiled;
    bool cache_hit = false;
  };

  explicit CompileService(CompileServiceConfig config = {});

  /// Return the cached program for (content hash of dfg_bytes,
  /// geometry), or decode + map + validate and cache it.  Throws
  /// SimError on malformed blobs, unmappable graphs and golden-model
  /// divergence — the server answers Error{kBadRequest} with the text
  /// verbatim.  Thread-safe.
  Result get_or_compile(std::span<const std::uint8_t> dfg_bytes,
                        const RingGeometry& geometry);

  /// svc.compile.* counters + latency histogram snapshot.  Thread-safe.
  obs::Registry metrics() const;

  std::size_t cache_size() const;

 private:
  struct Key {
    std::uint64_t hash = 0;
    std::uint16_t layers = 0;
    std::uint16_t lanes = 0;
    std::uint16_t fb_depth = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.hash;
      h ^= (std::uint64_t{k.layers} << 32) ^ (std::uint64_t{k.lanes} << 16) ^
           k.fb_depth;
      h *= 1099511628211ull;
      return static_cast<std::size_t>(h);
    }
  };
  using LruList = std::list<std::pair<Key, std::shared_ptr<const CompiledDfg>>>;

  std::shared_ptr<const CompiledDfg> compile_locked(
      std::span<const std::uint8_t> dfg_bytes, std::uint64_t hash,
      const RingGeometry& geometry);

  CompileServiceConfig config_;
  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recent
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  obs::Registry registry_;
};

}  // namespace sring::svc
