// Whole-file I/O shared by the command-line hosts, the campaign journal, the
// benches and the tests: read a file in one go, replace one atomically, and
// probe an output path before a long run commits to it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace nwade::util {

/// The whole file; empty on any error (a missing file reads as empty).
Bytes read_file(const std::string& path);

/// Writes `data` to `<path>.tmp` and renames it over `path`, so a crash
/// mid-write leaves the previous content intact and a reader never sees a
/// torn file. False (and no `.tmp` left behind) on any I/O error.
bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> data);
bool write_file_atomic(const std::string& path, std::string_view text);

/// Probes an output path for writability BEFORE a long run: a typo'd
/// directory or read-only target should fail in milliseconds, not after
/// hours of simulation. Append mode probes without clobbering whatever the
/// file holds; a path the probe had to create is removed again, so a failed
/// later stage leaves no empty stub behind. An empty path passes. On failure
/// prints "cannot write output path PATH: REASON" to stderr.
bool preflight_output_path(const std::string& path);

}  // namespace nwade::util
