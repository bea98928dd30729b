#include "obs/sinks.hpp"

#include <iomanip>

#include "core/ring.hpp"
#include "obs/json.hpp"

namespace sring::obs {

// --- TextSink ----------------------------------------------------------

void TextSink::event(const Event&) {}

void TextSink::cycle_end(const CycleState& state) {
  auto& os = *out_;
  os << "cyc " << std::setw(6) << state.cycle << " pc " << std::setw(4)
     << state.ctrl_pc << (state.ctrl_halted ? " H" : "  ") << " bus "
     << std::setw(5) << as_signed(state.bus) << " |";
  const Ring& ring = *state.ring;
  const auto& g = ring.geometry();
  for (std::size_t layer = 0; layer < g.layers; ++layer) {
    for (std::size_t lane = 0; lane < g.lanes; ++lane) {
      os << ' ' << std::setw(6) << as_signed(ring.out(layer, lane));
    }
    if (layer + 1 < g.layers) os << " /";
  }
  os << '\n';
}

// --- JsonlSink ---------------------------------------------------------

void JsonlSink::begin(const std::vector<Track>& tracks) {
  tracks_ = tracks;
  auto& os = *out_;
  os << "{\"type\":\"trace_begin\",\"tracks\":[";
  bool first = true;
  for (const auto& t : tracks_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, t.name);
  }
  os << "]}\n";
}

void JsonlSink::event(const Event& e) {
  auto& os = *out_;
  os << "{\"type\":\"event\",\"cycle\":" << e.cycle << ",\"track\":";
  if (e.track < tracks_.size()) {
    write_json_string(os, tracks_[e.track].name);
  } else {
    os << e.track;
  }
  os << ",\"name\":";
  write_json_string(os, e.name);
  os << ",\"value\":" << e.value << ",\"dur\":" << e.dur << "}\n";
}

void JsonlSink::end() { *out_ << "{\"type\":\"trace_end\"}\n"; }

// --- ChromeTraceSink ---------------------------------------------------

ChromeTraceSink::~ChromeTraceSink() { end(); }

void ChromeTraceSink::separator() {
  if (!first_) *out_ << ",\n";
  first_ = false;
}

void ChromeTraceSink::begin(const std::vector<Track>& tracks) {
  tracks_ = tracks;
  auto& os = *out_;
  os << "[\n";
  open_ = true;
  first_ = true;
  // Name the processes once and every thread (track) in table order.
  const char* pid_names[] = {"", "system", "dnodes", "switches"};
  std::uint32_t named_pids = 0;
  for (const auto& t : tracks_) {
    if (t.pid < 4 && !(named_pids & (1u << t.pid))) {
      named_pids |= 1u << t.pid;
      separator();
      os << "{\"ph\":\"M\",\"pid\":" << t.pid
         << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":";
      write_json_string(os, pid_names[t.pid]);
      os << "}}";
    }
    separator();
    os << "{\"ph\":\"M\",\"pid\":" << t.pid << ",\"tid\":" << t.tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    write_json_string(os, t.name);
    os << "}}";
  }
}

void ChromeTraceSink::event(const Event& e) {
  if (!open_) return;
  auto& os = *out_;
  std::uint32_t pid = 1;
  std::uint32_t tid = e.track;
  if (e.track < tracks_.size()) {
    pid = tracks_[e.track].pid;
    tid = tracks_[e.track].tid;
  }
  separator();
  os << "{\"ph\":\"X\",\"ts\":" << e.cycle << ",\"dur\":" << e.dur
     << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"name\":";
  write_json_string(os, e.name);
  os << ",\"args\":{\"value\":" << e.value << "}}";
}

void ChromeTraceSink::end() {
  if (!open_) return;
  open_ = false;
  *out_ << "\n]\n";
}

}  // namespace sring::obs
