#include "svc/dfg_job.hpp"

#include "common/error.hpp"
#include "svc/dfg_codec.hpp"

namespace sring::svc {

rt::Job make_dfg_job(const std::shared_ptr<const CompiledDfg>& compiled,
                     const std::vector<std::vector<Word>>& input_streams) {
  check(compiled != nullptr, "svc: null compiled DFG");
  // Aliasing pointer: the job's program shares the CompiledDfg's
  // lifetime, so cache eviction cannot free a program mid-arm.
  rt::Job job = mapper::make_mapped_job(
      std::shared_ptr<const mapper::MappedProgram>(compiled,
                                                   &compiled->mapped),
      input_streams);
  job.name = "dfg/" + dfg_hash_hex(compiled->dfg_hash);
  return job;
}

std::vector<std::vector<Word>> delace_outputs(const CompiledDfg& compiled,
                                              std::span<const Word> raw,
                                              std::size_t samples) {
  return mapper::delace_outputs(compiled.mapped, raw, samples);
}

}  // namespace sring::svc
