#include "nwade/message_codec.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <tuple>
#include <utility>

namespace nwade::protocol {
namespace {

/// Every message kind; a message's tag byte is its index here, so kinds
/// only ever append.
using Kinds = std::tuple<PlanRequest, BlockBroadcast, BlockRequest, BlockResponse,
                         IncidentReport, VerifyRequest, VerifyResponse,
                         AlarmDismiss, EvacuationAlert, GlobalReport>;

struct KindCodec {
  bool (*encode)(WriteArchive&, const net::Message&, std::uint8_t tag);
  net::MessagePtr (*decode)(ReadArchive&);
};

template <class M>
bool encode_as(WriteArchive& ar, const net::Message& msg, std::uint8_t tag) {
  const auto* m = dynamic_cast<const M*>(&msg);
  if (m == nullptr) return false;
  ar.u8(tag);
  ar(*m);
  return true;
}

template <class M>
net::MessagePtr decode_as(ReadArchive& ar) {
  auto m = std::make_shared<M>();
  ar(*m);
  return ar.ok() ? m : nullptr;
}

template <std::size_t... I>
constexpr auto make_codecs(std::index_sequence<I...>) {
  return std::array<KindCodec, sizeof...(I)>{
      KindCodec{&encode_as<std::tuple_element_t<I, Kinds>>,
                &decode_as<std::tuple_element_t<I, Kinds>>}...};
}
constexpr auto kCodecs =
    make_codecs(std::make_index_sequence<std::tuple_size_v<Kinds>>{});

}  // namespace

void encode_message(WriteArchive& ar, const net::Message& msg) {
  for (std::size_t tag = 0; tag < kCodecs.size(); ++tag) {
    if (kCodecs[tag].encode(ar, msg, static_cast<std::uint8_t>(tag))) return;
  }
  std::fprintf(stderr, "message_codec: unknown message kind '%s'\n",
               msg.kind().c_str());
  std::abort();
}

net::MessagePtr decode_message(ReadArchive& ar) {
  std::uint8_t tag = 0;
  ar.u8(tag);
  if (!ar.ok()) return nullptr;
  if (tag >= kCodecs.size()) {
    ar.fail();
    return nullptr;
  }
  return kCodecs[tag].decode(ar);
}

}  // namespace nwade::protocol
