// Wire framing + JSON decoding for the serve daemon (S25).
//
// Every message on a serve socket — client query, worker batch, response —
// is one *frame*: a 4-byte big-endian payload length followed by that many
// bytes of UTF-8 JSON. Length-prefix framing keeps the stream trivially
// delimitable (no sentinel scanning, no incremental parser state across
// reads) and makes oversized/garbage input rejectable before any parsing.
//
// The repo so far only *emits* JSON (smc::JsonWriter); the daemon must
// also read it. Json below is a deliberately small recursive-descent
// parser for the subset the protocol uses (objects, arrays, strings with
// escapes, numbers, booleans, null), with one property the merge layer
// depends on: number tokens are kept as raw text, so 64-bit integers are
// re-parsed exactly (strtoull on the original token) instead of passing
// through a double. Doubles that must round-trip bit-exactly (llr,
// convergence times) travel as hex strings of their IEEE-754 bit pattern
// and never touch the number path at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ppde::serve {

/// Largest accepted frame payload (defensive cap, well above any real
/// batch of trial records).
constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Largest accepted client query frame. A query is a few hundred bytes of
/// JSON, so the daemon reads client frames under this cap instead of
/// kMaxFrameBytes and never buffers megabytes for an untrusted peer.
constexpr std::size_t kMaxQueryFrameBytes = 64u << 10;

/// Time a client has to deliver one whole query frame, header and payload.
/// The daemon reads client frames on its accept thread, so the bound is on
/// the frame, not on each read: a peer trickling bytes cannot stall
/// admission for longer than this.
constexpr std::chrono::milliseconds kQueryFrameDeadline{5000};

/// Write one length-prefixed frame; retries on EINTR / short writes.
/// Throws std::runtime_error on IO failure (e.g. the peer died — the
/// supervisor turns that into worker-death handling).
void write_frame(int fd, std::string_view payload);

/// Read one frame into `payload`. Returns false on clean EOF at a frame
/// boundary (the peer closed); throws std::runtime_error on IO failure,
/// EOF mid-frame, a length above `max_bytes`, or — when `timeout` is
/// positive — a frame not complete within `timeout` of the call.
bool read_frame(int fd, std::string& payload,
                std::size_t max_bytes = kMaxFrameBytes,
                std::chrono::milliseconds timeout = {});

/// A parsed JSON value.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse one complete JSON document; throws std::runtime_error (with an
  /// offset) on malformed input, arrays/objects nested deeper than 1024
  /// levels, or trailing garbage.
  static Json parse(std::string_view text);

  Kind kind() const { return kind_; }

  // -- value accessors (throw std::runtime_error on kind mismatch) -------
  bool as_bool() const;
  /// Number token via strtod.
  double as_double() const;
  /// Number token via strtoull base 10 — exact for any u64 the peer
  /// printed as a decimal integer (no double round-trip).
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  /// String of hex digits -> u64 (how IEEE-754 bit patterns travel).
  std::uint64_t as_hex_u64() const;
  const std::vector<Json>& items() const;  ///< array elements

  /// Re-serialise this value as compact JSON. Number tokens are emitted
  /// verbatim (the raw-text property above makes this an exact
  /// round-trip); strings are re-escaped. Used by `ppde client --recent`
  /// to print the flight-recorder array as JSONL.
  std::string dump() const;

  // -- object access ------------------------------------------------------
  /// Member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;
  /// Typed member getters with fallbacks for absent members; a present
  /// member of the wrong kind throws.
  std::uint64_t u64(std::string_view key, std::uint64_t fallback) const;
  double dbl(std::string_view key, double fallback) const;
  bool boolean(std::string_view key, bool fallback) const;
  std::string str(std::string_view key, std::string_view fallback) const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string text_;  ///< raw number token, or decoded string contents
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace ppde::serve
