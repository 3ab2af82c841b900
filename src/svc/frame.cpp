#include "svc/frame.h"

#include <charconv>

#include "util/json.h"

namespace nwade::svc {

namespace {

/// Frames larger than this are treated as corruption — no honest frame
/// (even a metrics_total for a large grid) approaches it, and the cap stops
/// a garbled length prefix from making the parser buffer unbounded input.
constexpr std::size_t kMaxFrameBytes = 16u << 20;

using util::json::append_int;
using util::json::append_string;

}  // namespace

std::string encode_frame(std::string_view json) {
  std::string out;
  out.reserve(json.size() + 16);
  append_int(out, static_cast<std::int64_t>(json.size()));
  out += '\n';
  out += json;
  out += '\n';
  return out;
}

FrameBuilder::FrameBuilder(std::string_view kind, std::uint64_t seq,
                           Tick t_ms) {
  out_ += "{\"kind\": ";
  append_string(out_, kind);
  out_ += ", \"seq\": ";
  append_int(out_, static_cast<std::int64_t>(seq));
  out_ += ", \"t_ms\": ";
  append_int(out_, t_ms);
}

FrameBuilder& FrameBuilder::field(std::string_view key, std::int64_t v) {
  out_ += ", ";
  append_string(out_, key);
  out_ += ": ";
  append_int(out_, v);
  return *this;
}

FrameBuilder& FrameBuilder::field(std::string_view key, std::string_view v) {
  out_ += ", ";
  append_string(out_, key);
  out_ += ": ";
  append_string(out_, v);
  return *this;
}

FrameBuilder& FrameBuilder::raw(std::string_view key, std::string_view json) {
  out_ += ", ";
  append_string(out_, key);
  out_ += ": ";
  out_ += json;
  return *this;
}

std::string FrameBuilder::take() {
  out_ += "}";
  return std::move(out_);
}

void FrameParser::feed(std::string_view bytes) {
  if (corrupt_) return;
  // Compact consumed prefix before growing, so long-running monitors do not
  // accrete the whole stream in memory.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

bool FrameParser::next(std::string& json_out) {
  if (corrupt_) return false;
  const auto nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) {
    // An unterminated length prefix should stay short; a long run of bytes
    // with no newline is not this protocol.
    if (buf_.size() - pos_ > 32) corrupt_ = true;
    return false;
  }
  std::size_t len = 0;
  bool any_digit = false;
  for (std::size_t i = pos_; i < nl; ++i) {
    const char c = buf_[i];
    if (c < '0' || c > '9') {
      corrupt_ = true;
      return false;
    }
    len = len * 10 + static_cast<std::size_t>(c - '0');
    any_digit = true;
    if (len > kMaxFrameBytes) {
      corrupt_ = true;
      return false;
    }
  }
  if (!any_digit) {
    corrupt_ = true;
    return false;
  }
  // Need the payload plus its trailing newline.
  if (buf_.size() - (nl + 1) < len + 1) return false;
  if (buf_[nl + 1 + len] != '\n') {
    corrupt_ = true;
    return false;
  }
  json_out.assign(buf_, nl + 1, len);
  pos_ = nl + 1 + len + 1;
  return true;
}

namespace {

/// Finds the byte offset of `key`'s value at depth 1, or npos.
std::size_t find_value(std::string_view json, std::string_view key) {
  int depth = 0;
  bool in_str = false;
  bool escape = false;
  std::size_t key_start = std::string_view::npos;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_str) {
      if (escape) {
        escape = false;
      } else if (c == '\\') {
        escape = true;
      } else if (c == '"') {
        in_str = false;
        // A string just closed at depth 1: candidate key if followed by ':'.
        if (depth == 1 && key_start != std::string_view::npos) {
          const std::string_view found =
              json.substr(key_start, i - key_start);
          std::size_t j = i + 1;
          while (j < json.size() &&
                 (json[j] == ' ' || json[j] == '\t')) {
            ++j;
          }
          if (j < json.size() && json[j] == ':') {
            if (found == key) {
              ++j;
              while (j < json.size() &&
                     (json[j] == ' ' || json[j] == '\t')) {
                ++j;
              }
              return j;
            }
            // Not our key: skip past the ':' so its value's strings are not
            // themselves mistaken for keys (handled by the loop naturally).
          }
          key_start = std::string_view::npos;
        }
      }
      continue;
    }
    switch (c) {
      case '"':
        in_str = true;
        if (depth == 1) key_start = i + 1;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        --depth;
        break;
      default:
        break;
    }
  }
  return std::string_view::npos;
}

/// One JSON value's extent starting at `at` (number, string, object/array).
std::size_t value_end(std::string_view json, std::size_t at) {
  if (at >= json.size()) return at;
  const char c0 = json[at];
  if (c0 == '"') {
    bool escape = false;
    for (std::size_t i = at + 1; i < json.size(); ++i) {
      if (escape) {
        escape = false;
      } else if (json[i] == '\\') {
        escape = true;
      } else if (json[i] == '"') {
        return i + 1;
      }
    }
    return json.size();
  }
  if (c0 == '{' || c0 == '[') {
    int depth = 0;
    bool in_str = false;
    bool escape = false;
    for (std::size_t i = at; i < json.size(); ++i) {
      const char c = json[i];
      if (in_str) {
        if (escape) {
          escape = false;
        } else if (c == '\\') {
          escape = true;
        } else if (c == '"') {
          in_str = false;
        }
        continue;
      }
      if (c == '"') {
        in_str = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if (c == '}' || c == ']') {
        if (--depth == 0) return i + 1;
      }
    }
    return json.size();
  }
  std::size_t i = at;
  while (i < json.size() && json[i] != ',' && json[i] != '}' &&
         json[i] != ']' && json[i] != ' ') {
    ++i;
  }
  return i;
}

}  // namespace

std::optional<std::int64_t> frame_int(std::string_view json,
                                      std::string_view key) {
  const std::size_t at = find_value(json, key);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t end = value_end(json, at);
  const std::string_view tok = json.substr(at, end - at);
  if (tok.empty() || tok[0] == '"' || tok[0] == '{' || tok[0] == '[') {
    return std::nullopt;
  }
  std::int64_t v = 0;
  bool neg = false;
  std::size_t i = 0;
  if (tok[0] == '-') {
    neg = true;
    i = 1;
  }
  if (i >= tok.size()) return std::nullopt;
  for (; i < tok.size(); ++i) {
    if (tok[i] < '0' || tok[i] > '9') return std::nullopt;
    v = v * 10 + (tok[i] - '0');
  }
  return neg ? -v : v;
}

std::optional<std::string> frame_str(std::string_view json,
                                     std::string_view key) {
  const std::size_t at = find_value(json, key);
  if (at == std::string_view::npos || at >= json.size() || json[at] != '"') {
    return std::nullopt;
  }
  const std::size_t end = value_end(json, at);
  std::string out;
  out.reserve(end - at);
  bool escape = false;
  for (std::size_t i = at + 1; i + 1 < end; ++i) {
    const char c = json[i];
    if (escape) {
      switch (c) {
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'u': {
          // The writer's \u00xx form of a control byte. Any other code
          // point never comes from it and passes through as its letters.
          unsigned v = 0;
          const char* hex = json.data() + i + 1;
          if (i + 5 < end &&
              std::from_chars(hex, hex + 4, v, 16).ptr == hex + 4 &&
              v < 0x80) {
            out += static_cast<char>(v);
            i += 4;
          } else {
            out += c;
          }
          break;
        }
        default:
          out += c;  // covers \" and \\ and passes unknown escapes through
      }
      escape = false;
    } else if (c == '\\') {
      escape = true;
    } else {
      out += c;
    }
  }
  return out;
}

std::optional<std::string> frame_raw(std::string_view json,
                                     std::string_view key) {
  const std::size_t at = find_value(json, key);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t end = value_end(json, at);
  return std::string(json.substr(at, end - at));
}

}  // namespace nwade::svc
