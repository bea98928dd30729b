#include "svc/dfg_job.hpp"

#include "common/error.hpp"
#include "svc/dfg_codec.hpp"

namespace sring::svc {

rt::Job make_dfg_job(const std::shared_ptr<const CompiledDfg>& compiled,
                     const std::vector<std::vector<Word>>& input_streams) {
  check(compiled != nullptr, "svc: null compiled DFG");
  const mapper::MappedProgram& mapped = compiled->mapped;
  check(input_streams.size() == mapped.input_count,
        "svc: DFG expects " + std::to_string(mapped.input_count) +
            " input stream(s), got " + std::to_string(input_streams.size()));
  const std::size_t samples =
      input_streams.empty() ? 0 : input_streams[0].size();
  for (const auto& s : input_streams) {
    check(s.size() == samples, "svc: ragged input streams");
  }
  check(samples > 0, "svc: empty input streams");

  // Identical feed to mapper::run_mapped: pad by the pipeline depth so
  // the last real sample's outputs drain, one word per stream per cycle.
  const std::size_t pad = mapped.max_latency;
  std::vector<Word> feed;
  feed.reserve((samples + pad) * mapped.input_count);
  for (std::size_t n = 0; n < samples + pad; ++n) {
    for (const auto& stream : input_streams) {
      feed.push_back(n < samples ? stream[n] : Word{0});
    }
  }

  rt::Job job;
  job.name = "dfg/" + dfg_hash_hex(compiled->dfg_hash);
  // Aliasing pointer: the job's program shares the CompiledDfg's
  // lifetime, so cache eviction cannot free a program mid-arm.
  job.program = std::shared_ptr<const LoadableProgram>(compiled,
                                                       &mapped.program);
  job.input = std::move(feed);
  job.run = rt::Job::Run::kUntilOutputs;
  job.expected_outputs = mapped.pushes_per_cycle * (samples + pad);
  job.max_cycles = 64 + 8 * job.input.size();
  return job;
}

std::vector<std::vector<Word>> delace_outputs(const CompiledDfg& compiled,
                                              std::span<const Word> raw,
                                              std::size_t samples) {
  const mapper::MappedProgram& mapped = compiled.mapped;
  std::vector<std::vector<Word>> outputs(mapped.outputs.size());
  for (std::size_t o = 0; o < mapped.outputs.size(); ++o) {
    const mapper::MappedOutput& mo = mapped.outputs[o];
    outputs[o].resize(samples);
    for (std::size_t n = 0; n < samples; ++n) {
      const std::size_t at =
          (n + mo.latency) * mapped.pushes_per_cycle + mo.push_rank;
      check(at < raw.size(), "svc: raw output stream shorter than the "
                             "mapped program promises");
      outputs[o][n] = raw[at];
    }
  }
  return outputs;
}

}  // namespace sring::svc
