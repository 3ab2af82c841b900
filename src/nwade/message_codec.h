// Wire codec for NWADE protocol messages, used by sim/checkpoint to
// serialize the network's in-flight queue.
//
// The net layer deliberately knows nothing about concrete message types, so
// its checkpoint field list takes a codec; this is the one place that
// enumerates every kind. Encoding is a one-byte tag (the kind's index in
// message_codec.cpp's list) plus the message's own field list (messages.h).
#pragma once

#include "net/network.h"
#include "nwade/messages.h"

namespace nwade::protocol {

/// Writes one protocol message (tag + fields). Aborts on a message kind this
/// codec does not know — a new message type must be added to the list
/// before it can cross a checkpoint.
void encode_message(WriteArchive& ar, const net::Message& msg);

/// Reads one message encode_message wrote. Returns nullptr (and fails the
/// archive) on truncated, corrupt, or unknown-tag input. Blocks come from
/// the archive's BlockTable, so in-flight messages share the objects the
/// restored stores hold.
net::MessagePtr decode_message(ReadArchive& ar);

inline constexpr net::Network::MessageCodec kMessageCodec{&encode_message,
                                                          &decode_message};

}  // namespace nwade::protocol
