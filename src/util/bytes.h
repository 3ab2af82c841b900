// Canonical byte serialization used for hashing and signing.
//
// Every structure that enters a hash, Merkle tree, or signature is serialized
// through ByteWriter with fixed-width little-endian encodings, so two parties
// always agree on the exact bytes being authenticated.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nwade {

using Bytes = std::vector<std::uint8_t>;

/// Appends fixed-width little-endian primitives to a growing buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Pre-sizes the buffer for a known wire size so appends never reallocate.
  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) { append_le(v); }

  void u64(std::uint64_t v) { append_le(v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Doubles are serialized via their IEEE-754 bit pattern; all parties run
  /// the same arithmetic so patterns agree bit-for-bit.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  /// Length-prefixed raw bytes.
  void bytes(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed UTF-8 string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  const Bytes& data() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  /// Appends `v` little-endian with one resize; a push_back per byte is
  /// several times slower once the writer sits behind an archive's calls.
  template <class U> void append_le(U v) {
    std::uint8_t out[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(U));
    std::memcpy(buf_.data() + at, out, sizeof(U));
  }

  Bytes buf_;
};

/// Reads back what ByteWriter wrote. Out-of-bounds reads set a sticky error
/// flag and return zero values instead of invoking UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }

  std::uint32_t u32() {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  Bytes bytes() {
    const std::uint32_t n = u32();
    if (!ensure(n)) return {};
    const auto first = data_.begin() + static_cast<std::ptrdiff_t>(pos_);
    Bytes out(first, first + static_cast<std::ptrdiff_t>(n));
    pos_ += n;
    return out;
  }

  std::string str() {
    const Bytes b = bytes();
    return std::string(b.begin(), b.end());
  }

  /// Skips `n` bytes; sets the error flag if fewer remain.
  void skip(std::size_t n) {
    if (ensure(n)) pos_ += n;
  }

  /// A view of the next `n` bytes without copying; empty (and the error flag
  /// set) when fewer remain. The view aliases the reader's backing storage.
  std::span<const std::uint8_t> view(std::size_t n) {
    if (!ensure(n)) return {};
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  bool ok() const { return ok_; }
  /// Marks the input malformed; like a failed read, every later read fails.
  void fail() { ok_ = false; }
  bool at_end() const { return pos_ == data_.size(); }
  /// Bytes left to read. Safe to call in any state.
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  // Overflow-safe bounds check: `pos_ <= data_.size()` is an invariant, so
  // comparing `n` against the remaining span cannot wrap the way
  // `pos_ + n > size` would for attacker-controlled 32-bit lengths near
  // SIZE_MAX. Errors are sticky: once tripped, every later read fails too.
  bool ensure(std::size_t n) {
    if (!ok_) return false;
    if (n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  bool ok_{true};
};

/// Hex-encodes bytes (lowercase), for logs and test expectations.
std::string to_hex(std::span<const std::uint8_t> data);

/// Parses a hex string; returns empty on malformed input of odd length or
/// non-hex characters.
Bytes from_hex(std::string_view hex);

}  // namespace nwade
