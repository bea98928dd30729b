// Run reporting — the profiling half of the paper's §6
// "compiling/profiling tool": human-readable summaries and the
// machine-readable RunReport every benchmark can emit as JSON.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/ring.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/system.hpp"

namespace sring {

/// Per-Dnode utilization over a run: one row per layer, one column per
/// lane, each cell the fraction of cycles the Dnode issued an
/// instruction.
std::string utilization_report(const Ring& ring, std::uint64_t cycles);

/// One-paragraph summary of a run (cycles, stalls, ops, utilization).
std::string run_summary(const Ring& ring, const SystemStats& stats);

/// Machine-readable record of one run, serialized as a single JSON
/// object (schema "sring.run_report.v1").  Build with `from_system`
/// when a System is available (full per-Dnode / per-switch detail and
/// the metrics registry), `from_stats` when only aggregate stats
/// survived, or default-construct and fill `name` + extras for
/// analytic models with no simulated machine behind them.
struct RunReport {
  std::string name;                  ///< benchmark / run identifier
  std::size_t layers = 0;            ///< 0 when no geometry is known
  std::size_t lanes = 0;
  bool has_stats = false;            ///< aggregate counters are present
  SystemStats stats;
  /// Per-Dnode / per-switch counters as flat arrays (from_system only).
  ElementCounters elements;
  /// Ring-wide instruments (from_system: System::ring_metrics()).  The
  /// dnode.* / switch.* instruments are not stored here: to_json()
  /// names `elements` into a copy, so its "metrics" equals
  /// System::metrics() byte for byte.  Every served job builds a
  /// RunReport, and naming the 100+ per-element instruments per job
  /// cost as much as executing a small kernel.
  obs::Registry metrics;
  obs::JsonValue extras = obs::JsonValue::object();

  static RunReport from_system(std::string_view name, const System& sys);
  static RunReport from_stats(std::string_view name,
                              const SystemStats& stats);

  /// Attach a benchmark-specific key; returns *this for chaining.
  RunReport& extra(std::string_view key, obs::JsonValue value);

  obs::JsonValue to_json() const;
};

/// Serialize `report` to `path` (single line + trailing newline);
/// throws SimError when the file cannot be written.  The written JSON
/// additionally carries extras.host (obs::host_shape_json()) unless
/// the report already set one — persisted perf numbers always
/// self-describe the machine and build flags behind them.
void write_run_report(const RunReport& report, const std::string& path);

/// Handle a bench's `--json <path>` option: no-op when `path` is
/// empty, otherwise write_run_report.
void maybe_write_run_report(const RunReport& report,
                            const std::string& path);

}  // namespace sring
