// JSON text helpers shared by every exporter: metrics snapshots, traces,
// stream frames, campaign rows and serve's summaries. One writer means one
// escaping rule, so a name renders the same bytes in every output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace nwade::util::json {

/// Appends `s` as a quoted JSON string. A quote, a backslash, a newline, a
/// tab and a carriage return get their short escapes; any other control
/// character is written as \u00xx. Every other byte is copied unchanged.
void append_string(std::string& out, std::string_view s);

/// `s` as a quoted JSON string.
std::string quoted(std::string_view s);

/// Appends the decimal form of `v`.
void append_int(std::string& out, std::int64_t v);

}  // namespace nwade::util::json
