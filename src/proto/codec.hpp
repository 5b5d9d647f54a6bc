// Wire codec for proto::Message (the datagram framing of every
// transport).
//
// Every message, simulated or live, is framed as one datagram with a
// fixed 12-byte header (magic, version, payload type, from, to, all
// little-endian) followed by a payload-specific body: LiveNode sends
// frames over UDP or the loopback hub, and the simulated ProtocolNetwork
// sends them through the hub too, so the codec must round-trip every
// payload exactly. The codec is the trust boundary of a live node —
// datagrams arrive from the network, not from this process — so decode()
// bounds-checks every field, rejects truncated, oversized, garbled, or
// version-skewed frames with a typed error instead of crashing, and
// requires the body length to match the declared content exactly (no
// trailing bytes). Arbitrary input must be UB-free under ASan/UBSan;
// tests/proto_codec_test.cpp fuzzes exactly that.
//
// Versioning: kCodecVersion is bumped on any layout change; a frame with
// a different version is rejected as kBadVersion so mixed-version
// clusters fail loudly per-datagram rather than mis-parsing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "proto/message.hpp"

namespace makalu::proto {

inline constexpr std::uint8_t kCodecVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Hard bound on neighbor-table entries in one frame. Overlay degrees are
/// ~10; anything near this bound is garbage or an attack, and the bound
/// keeps the worst-case decoded allocation at 16 KiB (< one datagram).
inline constexpr std::size_t kMaxTableEntries = 4096;
/// Largest frame encode() can produce (header + count + full table).
inline constexpr std::size_t kMaxFrameBytes =
    kFrameHeaderBytes + 2 + 4 * kMaxTableEntries;

enum class DecodeError : std::uint8_t {
  kNone = 0,
  kTooShort,       ///< shorter than the fixed header
  kBadMagic,       ///< first two bytes are not 'M' 'K'
  kBadVersion,     ///< version byte != kCodecVersion
  kBadType,        ///< payload type byte >= kPayloadTypes
  kTruncated,      ///< body shorter than its declared content
  kTrailingBytes,  ///< body longer than its declared content
  kTableTooLarge,  ///< neighbor-table count > kMaxTableEntries
};

/// Name for logs/metrics ("ok", "too-short", ...).
[[nodiscard]] const char* decode_error_name(DecodeError error);

/// Appends the frame for `message` to `out` (which is NOT cleared — the
/// transport reuses one buffer per send). The message's neighbor tables
/// must respect kMaxTableEntries (enforced with MAKALU_EXPECTS; the
/// protocol layer never builds tables anywhere near the bound).
void encode(const Message& message, std::vector<std::uint8_t>& out);

/// Convenience: encode into a fresh buffer.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& message);

/// Parses one frame. Returns the message, or std::nullopt with `*error`
/// (when non-null) set to the reason. Never throws, never reads out of
/// bounds, never allocates more than the declared (bounded) content.
[[nodiscard]] std::optional<Message> decode(const std::uint8_t* data,
                                            std::size_t size,
                                            DecodeError* error = nullptr);

}  // namespace makalu::proto
