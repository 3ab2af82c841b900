#include "util/file_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace nwade::util {

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  Bytes out;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> data) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool wrote = std::fwrite(data.data(), 1, data.size(), f) == data.size() &&
               std::fflush(f) == 0;
  wrote = std::fclose(f) == 0 && wrote;
  if (wrote && std::rename(tmp.c_str(), path.c_str()) == 0) return true;
  std::remove(tmp.c_str());
  return false;
}

bool write_file_atomic(const std::string& path, std::string_view text) {
  return write_file_atomic(
      path, std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
}

bool preflight_output_path(const std::string& path) {
  if (path.empty()) return true;
  std::FILE* existing = std::fopen(path.c_str(), "rb");
  const bool existed = existing != nullptr;
  if (existing) std::fclose(existing);
  const std::string probe_path = existed ? path : path + ".tmp";
  std::FILE* probe = std::fopen(probe_path.c_str(), "ab");
  if (!probe) {
    std::fprintf(stderr, "cannot write output path %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::fclose(probe);
  if (!existed) std::remove(probe_path.c_str());
  return true;
}

}  // namespace nwade::util
