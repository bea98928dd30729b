#include "asm/object_file.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/le_codec.hpp"

namespace sring {

namespace {

constexpr std::uint32_t kMagic = 0x4F475253u;  // "SRGO"
constexpr std::uint32_t kVersion = 1;

/// The whole object file.  Geometry is checked as soon as it is read:
/// it fixes the size of every page that follows.
template <class IO, class P>
void fields(IO& io, P& p) {
  std::uint32_t magic = kMagic;
  io.u32(magic);
  check(magic == kMagic, "object file: bad magic");
  std::uint32_t version = kVersion;
  io.u32(version);
  check(version == kVersion, "object file: unsupported version");
  io.str(p.name);
  io.u32(p.geometry.layers);
  io.u32(p.geometry.lanes);
  io.u32(p.geometry.fb_depth);
  if constexpr (IO::kDecoding) p.geometry.validate();
  const RingGeometry& g = p.geometry;
  io.seq(p.controller_code, 4, [&](auto& word) { io.u32(word); });
  const std::size_t page_bytes =
      9 * g.dnode_count() + 8 * g.switch_count() * g.lanes;
  io.seq(p.pages, page_bytes, [&](auto& page) {
    if constexpr (IO::kDecoding) page = ConfigPage::zeroed(g);
    for (auto& v : page.dnode_instr) io.u64(v);
    for (auto& v : page.dnode_mode) io.u8(v);
    for (auto& v : page.switch_route) io.u64(v);
  });
  io.seq(p.local_init, 4 + 1 + 8, [&](auto& lw) {
    io.u32(lw.dnode);
    io.u8(lw.slot);
    io.u64(lw.value);
  });
}

}  // namespace

std::vector<std::uint8_t> serialize_program(const LoadableProgram& p) {
  for (const auto& page : p.pages) {
    check(page.dnode_instr.size() == p.geometry.dnode_count() &&
              page.dnode_mode.size() == p.geometry.dnode_count() &&
              page.switch_route.size() ==
                  p.geometry.switch_count() * p.geometry.lanes,
          "serialize_program: page shape mismatch");
  }
  LeWriter w;
  fields(w, p);
  return w.take();
}

LoadableProgram deserialize_program(const std::vector<std::uint8_t>& bytes) {
  LeReader<SimError> r(bytes, "object file");
  LoadableProgram p;
  fields(r, p);
  r.expect_end();
  return p;
}

void save_program(const LoadableProgram& program, const std::string& path) {
  const auto bytes = serialize_program(program);
  std::ofstream out(path, std::ios::binary);
  check(out.good(), "save_program: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  check(out.good(), "save_program: write failed for " + path);
}

LoadableProgram load_program(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  check(in.good(), "load_program: cannot open " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return deserialize_program(bytes);
}

}  // namespace sring
