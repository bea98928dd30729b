#include "sim/report.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "obs/host_shape.hpp"

namespace sring {

std::string utilization_report(const Ring& ring, std::uint64_t cycles) {
  const auto& g = ring.geometry();
  const auto& ops = ring.ops_per_dnode();
  std::string out = "        ";
  char buf[64];
  for (std::size_t lane = 0; lane < g.lanes; ++lane) {
    std::snprintf(buf, sizeof(buf), "  lane%-2zu", lane);
    out += buf;
  }
  out += '\n';
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    std::snprintf(buf, sizeof(buf), "layer%-2zu ", layer);
    out += buf;
    for (std::size_t lane = 0; lane < g.lanes; ++lane) {
      const double u =
          cycles == 0
              ? 0.0
              : static_cast<double>(ops[layer * g.lanes + lane]) /
                    static_cast<double>(cycles);
      std::snprintf(buf, sizeof(buf), " %6.1f%%", 100.0 * u);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

std::string run_summary(const Ring& ring, const SystemStats& stats) {
  const std::size_t n = ring.geometry().dnode_count();
  std::size_t active = 0;
  for (const auto c : ring.ops_per_dnode()) active += c > 0 ? 1 : 0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu cycles (%llu ring stalls), %llu Dnode ops on "
                "%zu/%zu Dnodes, utilization %.1f%%",
                static_cast<unsigned long long>(stats.cycles),
                static_cast<unsigned long long>(stats.ring_stall_cycles),
                static_cast<unsigned long long>(stats.dnode_ops), active,
                n, 100.0 * stats.utilization(n));
  return std::string(buf) + "\n" + utilization_report(ring, stats.cycles);
}

RunReport RunReport::from_system(std::string_view name, const System& sys) {
  RunReport r;
  r.name = std::string(name);
  const auto& g = sys.ring().geometry();
  r.layers = g.layers;
  r.lanes = g.lanes;
  r.has_stats = true;
  r.stats = sys.stats();
  r.elements = sys.element_counters();
  r.metrics = sys.ring_metrics();
  return r;
}

RunReport RunReport::from_stats(std::string_view name,
                                const SystemStats& stats) {
  RunReport r;
  r.name = std::string(name);
  r.has_stats = true;
  r.stats = stats;
  return r;
}

RunReport& RunReport::extra(std::string_view key, obs::JsonValue value) {
  extras.set(key, std::move(value));
  return *this;
}

obs::JsonValue RunReport::to_json() const {
  using obs::JsonValue;
  JsonValue j = JsonValue::object();
  j.set("schema", "sring.run_report.v1");
  j.set("name", name);
  if (layers > 0 && lanes > 0) {
    JsonValue g = JsonValue::object();
    g.set("layers", std::uint64_t{layers});
    g.set("lanes", std::uint64_t{lanes});
    j.set("geometry", std::move(g));
  }
  if (has_stats) {
    j.set("cycles", stats.cycles);

    JsonValue s = JsonValue::object();
    s.set("cycles", stats.cycles);
    s.set("ring_stall_cycles", stats.ring_stall_cycles);
    s.set("ctrl_stall_cycles", stats.ctrl_stall_cycles);
    s.set("dnode_ops", stats.dnode_ops);
    s.set("arith_ops", stats.arith_ops);
    s.set("host_words_in", stats.host_words_in);
    s.set("host_words_out", stats.host_words_out);
    s.set("ctrl_instructions", stats.ctrl_instructions);
    s.set("config_words_written", stats.config_words_written);
    s.set("bus_drives", stats.bus_drives);
    s.set("bus_conflicts", stats.bus_conflicts);
    s.set("switch_route_changes", stats.switch_route_changes);
    if (layers > 0 && lanes > 0) {
      s.set("utilization", stats.utilization(layers * lanes));
    }
    j.set("stats", std::move(s));

    JsonValue st = JsonValue::object();
    st.set("ring_host_underflow", stats.ring_stall_cycles);
    st.set("ctrl_inpop", stats.ctrl_inpop_stalls);
    st.set("ctrl_wait", stats.ctrl_wait_stalls);
    j.set("stalls", std::move(st));

    JsonValue h = JsonValue::object();
    h.set("words_in", stats.host_words_in);
    h.set("words_out", stats.host_words_out);
    j.set("host", std::move(h));
  }
  if (!elements.empty()) {
    const std::size_t n_lanes = elements.geometry.lanes;
    JsonValue dn = JsonValue::array();
    for (std::size_t i = 0; i < elements.issue.size(); ++i) {
      JsonValue d = JsonValue::object();
      d.set("layer", std::uint64_t{i / n_lanes});
      d.set("lane", std::uint64_t{i % n_lanes});
      d.set("issue", elements.issue[i]);
      d.set("mac", elements.mac[i]);
      dn.push_back(std::move(d));
    }
    j.set("dnodes", std::move(dn));

    JsonValue sws = JsonValue::array();
    for (std::size_t sw = 0; sw < elements.route_changes.size(); ++sw) {
      JsonValue s = JsonValue::object();
      s.set("switch", std::uint64_t{sw});
      s.set("route_changes", elements.route_changes[sw]);
      s.set("host_out_words", elements.host_out_words[sw]);
      sws.push_back(std::move(s));
    }
    j.set("switches", std::move(sws));
  }
  obs::Registry named = metrics;
  elements.name_into(named);
  if (named.size() > 0) j.set("metrics", named.to_json());
  if (!extras.members().empty()) j.set("extras", extras);
  return j;
}

void write_run_report(const RunReport& report, const std::string& path) {
  // Write-then-rename: an interrupted run leaves either the previous
  // report or none, never a truncated JSON file.  The temp file sits
  // next to the target so the rename stays within one filesystem.
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld",
                static_cast<long>(::getpid()));
  const std::string tmp = path + suffix;

  // Every persisted report self-describes the host and build flags it
  // was recorded under — a throughput number from a 1-core container
  // or a sanitizer build is meaningless without them.  Injected here
  // (not in to_json) so in-memory extras stay exactly what the bench
  // set; an explicit "host" extra wins.
  obs::JsonValue j = report.to_json();
  const obs::JsonValue* extras = j.find("extras");
  if (extras == nullptr || extras->find("host") == nullptr) {
    obs::JsonValue merged =
        extras != nullptr ? *extras : obs::JsonValue::object();
    merged.set("host", obs::host_shape_json());
    j.set("extras", std::move(merged));
  }

  {
    std::ofstream out(tmp);
    check(static_cast<bool>(out),
          "write_run_report: cannot open output file: " + tmp);
    j.dump(out);
    out << '\n';
    out.flush();
    check(static_cast<bool>(out),
          "write_run_report: write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    check(false, "write_run_report: cannot rename " + tmp + " to " + path);
  }
}

void maybe_write_run_report(const RunReport& report,
                            const std::string& path) {
  if (!path.empty()) write_run_report(report, path);
}

}  // namespace sring
