// Wire codec for NWADE protocol messages, used by sim/checkpoint to
// serialize the network's in-flight queue.
//
// The net layer deliberately knows nothing about concrete message types, so
// its checkpoint hooks take encode/decode callbacks; this is the one place
// that enumerates every kind. Encoding is a one-byte tag plus the message's
// fields in declaration order, reusing the existing VehicleTraits /
// VehicleStatus / Block serializers so the bytes stay canonical.
#pragma once

#include "chain/store.h"
#include "net/network.h"
#include "nwade/messages.h"

namespace nwade::protocol {

/// Serializes one protocol message (tag + payload). Aborts on a message kind
/// this codec does not know — a new message type must be added here before
/// it can cross a checkpoint.
void encode_message(ByteWriter& w, const net::Message& msg);

/// Decodes one message previously written by encode_message. Returns nullptr
/// on truncated, corrupt, or unknown-tag input (the reader's error flag is
/// also set for truncation). Blocks are taken from `blocks`, so in-flight
/// messages share the objects the restored stores hold.
net::MessagePtr decode_message(ByteReader& r, chain::BlockTable& blocks);

/// Evidence is embedded in several messages; exposed for the protocol-state
/// serializers that store raw Evidence values.
void encode_evidence(ByteWriter& w, const Evidence& e);
Evidence decode_evidence(ByteReader& r);

}  // namespace nwade::protocol
