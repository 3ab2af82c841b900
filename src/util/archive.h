// Two-way archives: every persisted type names its fields once, in wire
// order, and that one field list drives both the save and the restore, so
// the two cannot drift apart (docs/CHECKPOINT.md §1).
//
// A field list is a static member template of the persisted type:
//
//   template <class Ar, class Self>
//   static void io(Ar& ar, Self& self) {
//     ar.f64(self.speed_);     // a double, as its IEEE-754 bits
//     ar.i64(self.retries_);   // an int carried as i64
//     ar.ids(self.suspects_);  // a std::set<VehicleId>
//     ar(self.traits_);        // a nested type, through its own io
//   }
//
// Under WriteArchive `Self` is `const T`, so saving stays a const operation;
// under ReadArchive it is `T`. Steps only a restore has (re-arming timers,
// rebuilding derived indexes) follow the list under
// `if constexpr (Ar::kReading)`.
//
// ReadArchive owns input checking: every count is checked against the bytes
// left before anything is reserved, enum bytes are range-checked, and the
// first error is sticky (it trips the ByteReader's own flag), so later reads
// yield zeros and empty collections and ok() reports the failure once.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/types.h"

namespace nwade {

namespace chain {
class BlockTable;
}

template <bool Reading>
class Archive {
 public:
  static constexpr bool kReading = Reading;
  using Stream = std::conditional_t<Reading, ByteReader, ByteWriter>;
  static constexpr std::size_t kNoCap = ~std::size_t{0};

  /// `blocks` (reads only) decodes shared blocks, so every holder restored
  /// through one table shares one object (chain::io_block).
  explicit Archive(Stream& s, chain::BlockTable* blocks = nullptr)
      : s_(s), blocks_(blocks) {}

  bool ok() const {
    if constexpr (Reading) return s_.ok();
    return true;
  }
  /// Marks the input malformed (sticky).
  void fail() {
    if constexpr (Reading) s_.fail();
  }
  chain::BlockTable* blocks() const { return blocks_; }

  // Fixed-width scalars; `T` is the field's own type (int, Tick, ...).
  template <class T> void u8(T& v) { scalar<std::uint8_t>(v); }
  template <class T> void u32(T& v) { scalar<std::uint32_t>(v); }
  template <class T> void u64(T& v) { scalar<std::uint64_t>(v); }
  template <class T> void i64(T& v) { scalar<std::int64_t>(v); }
  template <class T> void f64(T& v) { scalar<double>(v); }
  /// A VehicleId / NodeId as its u64 value.
  template <class I> void id(I& v) { scalar<std::uint64_t>(v.value); }
  /// A bool as one byte; any non-zero byte reads as true.
  template <class B> void flag(B& v) {
    if constexpr (Reading) {
      v = s_.u8() != 0;
    } else {
      s_.u8(v ? 1 : 0);
    }
  }
  /// An enum as one byte; a read rejects bytes above `last`.
  template <class E> void enum8(E& e, std::remove_const_t<E> last) {
    if constexpr (Reading) {
      const std::uint8_t b = s_.u8();
      if (b > static_cast<std::uint8_t>(last)) return fail();
      e = static_cast<E>(b);
    } else {
      s_.u8(static_cast<std::uint8_t>(e));
    }
  }
  /// The slot of a setting since fixed in code: `value` as an f64 if
  /// floating point, else an i64. A read rejects any other value, since the
  /// code no longer honours one.
  template <class T> void pinned(T value) {
    using Wire = std::conditional_t<std::is_floating_point_v<T>, double, std::int64_t>;
    Wire v = static_cast<Wire>(value);
    scalar<Wire>(v);
    if (v != static_cast<Wire>(value)) fail();
  }
  /// A byte that is always written 0 and skipped on read.
  void reserved() {
    if constexpr (Reading) {
      s_.skip(1);
    } else {
      s_.u8(0);
    }
  }
  template <class S> void str(S& s) {
    if constexpr (Reading) {
      s = s_.str();
    } else {
      s_.str(s);
    }
  }
  template <class B> void bytes(B& b) {
    if constexpr (Reading) {
      b = s_.bytes();
    } else {
      s_.bytes(b);
    }
  }
  /// A fixed-size hash as length-prefixed bytes; a read rejects any other
  /// length.
  template <class D> void digest(D& d) {
    if constexpr (Reading) {
      const std::uint32_t n = s_.u32();
      if (n != d.size()) return fail();
      const auto v = s_.view(n);
      if (s_.ok()) std::copy(v.begin(), v.end(), d.begin());
    } else {
      s_.bytes(d);
    }
  }

  /// A nested type, through its own field list.
  template <class T> void operator()(T& x) { std::remove_const_t<T>::io(*this, x); }

  /// A nested type behind a u32 byte length (its `wire_size()` on save); a
  /// read parses exactly those bytes.
  template <class T> void sized(T& x) {
    if constexpr (Reading) {
      const std::uint32_t n = s_.u32();
      ByteReader sub(s_.view(n));
      Archive in(sub, blocks_);
      in(x);
      if (!sub.ok() || !sub.at_end()) fail();
    } else {
      const std::size_t n = x.wire_size();
      s_.u32(static_cast<std::uint32_t>(n));
      [[maybe_unused]] const std::size_t start = s_.size();
      (*this)(x);
      assert(s_.size() - start == n && "wire_size() out of step with io");
    }
  }

  /// A nested type behind a u32 byte length that a read keeps in `raw`, a
  /// view into the input, for a parse the caller runs later (the input must
  /// outlive it). A save encodes `*x` in place and patches the length in:
  /// the bytes `bytes(to_bytes(*x))` writes, without the temporary buffer.
  template <class T, class V> void staged(T* x, V& raw) {
    if constexpr (Reading) {
      raw = s_.view(s_.u32());
    } else {
      const std::size_t slot = s_.size();
      s_.u32(0);
      (*this)(*x);
      s_.patch_u32(slot, static_cast<std::uint32_t>(s_.size() - slot - 4));
    }
  }

  /// A u32 element count. A read rejects counts above `cap` or more than
  /// the bytes left can hold at `min_bytes` per element.
  std::size_t count(std::size_t n, std::size_t min_bytes, std::size_t cap = kNoCap) {
    if constexpr (Reading) {
      const std::uint32_t got = s_.u32();
      if (got > cap || got > s_.remaining() / min_bytes) {
        fail();
        return 0;
      }
      return got;
    } else {
      s_.u32(static_cast<std::uint32_t>(n));
      return n;
    }
  }
  /// A table whose size both sides already know, each element through
  /// `fn(ar, element)`; a read rejects any other count.
  template <class C, class Fn> void fixed(C& c, Fn fn) {
    std::uint32_t n = static_cast<std::uint32_t>(c.size());
    u32(n);
    if (n != c.size()) return fail();
    for (auto& e : c) fn(*this, e);
  }

  /// A counted sequence or set, each element through `fn(ar, element)`.
  template <class C, class Fn>
  void seq(C& c, std::size_t min_bytes, Fn fn, std::size_t cap = kNoCap) {
    const std::size_t n = count(c.size(), min_bytes, cap);
    if constexpr (Reading) {
      c.clear();
      if constexpr (requires { c.reserve(n); }) c.reserve(n);
      for (std::size_t i = 0; i < n && ok(); ++i) {
        typename C::value_type e{};
        fn(*this, e);
        if constexpr (requires { c.push_back(std::move(e)); }) {
          c.push_back(std::move(e));
        } else {
          c.insert(std::move(e));
        }
      }
    } else {
      for (const auto& e : c) fn(*this, e);
    }
  }
  /// A counted map in key order, each entry through `fn(ar, key, value)`.
  /// A repeated key on read keeps the last value.
  template <class M, class Fn>
  void map(M& m, std::size_t min_bytes, Fn fn) {
    const std::size_t n = count(m.size(), min_bytes);
    if constexpr (Reading) {
      m.clear();
      for (std::size_t i = 0; i < n && ok(); ++i) {
        typename M::key_type k{};
        typename M::mapped_type v{};
        fn(*this, k, v);
        m.insert_or_assign(std::move(k), std::move(v));
      }
    } else {
      for (const auto& [k, v] : m) fn(*this, k, v);
    }
  }

  // --- shapes shared across types --------------------------------------------

  template <class S> void ids(S& s) {
    seq(s, 8, [](auto& a, auto& id) { a.id(id); });
  }
  template <class S> void u64s(S& s) {
    seq(s, 8, [](auto& a, auto& x) { a.u64(x); });
  }
  template <class V> void i64s(V& v) {
    seq(v, 8, [](auto& a, auto& x) { a.i64(x); });
  }
  /// Wall-clock sample vectors.
  template <class V> void f64s(V& v) {
    seq(v, 8, [](auto& a, auto& x) { a.f64(x); });
  }
  /// VehicleId -> Tick.
  template <class M> void tick_map(M& m) {
    map(m, 16, [](auto& a, auto& id, auto& t) {
      a.id(id);
      a.i64(t);
    });
  }
  /// string -> 8-byte count, written key-sorted whatever the map's order.
  template <class M> void counts(M& m) {
    if constexpr (Reading) {
      map(m, 12, [](auto& a, auto& k, auto& v) {
        a.str(k);
        a.u64(v);
      });
    } else {
      std::vector<const typename M::value_type*> sorted;
      sorted.reserve(m.size());
      for (const auto& e : m) sorted.push_back(&e);
      std::sort(sorted.begin(), sorted.end(),
                [](const auto* x, const auto* y) { return x->first < y->first; });
      count(sorted.size(), 12);
      for (const auto* e : sorted) {
        s_.str(e->first);
        s_.u64(static_cast<std::uint64_t>(e->second));
      }
    }
  }
  /// An optional as a presence flag, then the value (its default when
  /// absent) through `fn(ar, value)`.
  template <class O, class Fn> void opt(O& o, Fn fn) {
    bool has = o.has_value();
    auto v = o.value_or(typename std::remove_const_t<O>::value_type{});
    flag(has);
    fn(*this, v);
    if constexpr (Reading) {
      if (has) {
        o = v;
      } else {
        o.reset();
      }
    }
  }
  /// An optional as a presence flag, then the value only when present.
  template <class O, class Fn> void maybe(O& o, Fn fn) {
    bool has = o.has_value();
    flag(has);
    if constexpr (Reading) {
      o.reset();
      if (has) fn(*this, o.emplace());
    } else {
      if (has) fn(*this, *o);
    }
  }

 private:
  template <class Wire, class T> void scalar(T& v) {
    if constexpr (Reading) {
      v = static_cast<T>(read<Wire>());
    } else {
      write(static_cast<Wire>(v));
    }
  }
  template <class Wire> Wire read() {
    if constexpr (std::is_same_v<Wire, std::uint8_t>) {
      return s_.u8();
    } else if constexpr (std::is_same_v<Wire, std::uint32_t>) {
      return s_.u32();
    } else if constexpr (std::is_same_v<Wire, std::uint64_t>) {
      return s_.u64();
    } else if constexpr (std::is_same_v<Wire, std::int64_t>) {
      return s_.i64();
    } else {
      return s_.f64();
    }
  }
  void write(std::uint8_t v) { s_.u8(v); }
  void write(std::uint32_t v) { s_.u32(v); }
  void write(std::uint64_t v) { s_.u64(v); }
  void write(std::int64_t v) { s_.i64(v); }
  void write(double v) { s_.f64(v); }

  Stream& s_;
  chain::BlockTable* blocks_;
};

using WriteArchive = Archive<false>;
using ReadArchive = Archive<true>;

/// Writes `x` through its field list.
template <class T> void save(ByteWriter& w, const T& x) {
  WriteArchive ar(w);
  ar(x);
}
/// Reads `x` through its field list; false on malformed input.
template <class T> bool load(ByteReader& r, T& x, chain::BlockTable* blocks = nullptr) {
  ReadArchive ar(r, blocks);
  ar(x);
  return ar.ok();
}
/// `x`'s field list as a fresh buffer.
template <class T> Bytes to_bytes(const T& x) {
  ByteWriter w;
  save(w, x);
  return w.take();
}

}  // namespace nwade
