// Minimal binary serialization.
//
// Every wire message in the protocol stack encodes itself with Encoder and
// decodes with Decoder, so the simulated network can account exact byte
// sizes (communication-complexity measurements depend on this) and so
// Byzantine tests can corrupt messages at the byte level.
//
// Format: little-endian fixed-width integers; byte strings are
// u32-length-prefixed; vectors are u32-count-prefixed.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "common/bytes.h"

namespace repro {

class Encoder {
 public:
  Encoder() = default;

  /// Pre-size the buffer for `additional` more bytes. Encoders of large
  /// messages (block-carrying proposals, block responses) compute their
  /// exact wire size up front so the buffer never reallocates mid-encode.
  void reserve(std::size_t additional) { buf_.reserve(buf_.size() + additional); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }

  void bool_(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed byte string.
  void bytes(BytesView data) {
    u32(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Fixed-size byte block (no length prefix); caller must know the size.
  void raw(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  void str(std::string_view s) {
    bytes(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  const Bytes& result() const& { return buf_; }
  Bytes result() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Decoder over a borrowed byte span. All accessors return std::nullopt on
/// truncation instead of throwing; protocol handlers drop malformed
/// messages (a Byzantine sender must never crash an honest replica).
class Decoder {
 public:
  explicit Decoder(BytesView data) : data_(data) {}

  std::optional<std::uint8_t> u8() {
    if (pos_ + 1 > data_.size()) return std::nullopt;
    return data_[pos_++];
  }

  std::optional<std::uint32_t> u32() { return read_le<std::uint32_t>(); }
  std::optional<std::uint64_t> u64() { return read_le<std::uint64_t>(); }

  /// Strict: only 0x00/0x01 are valid, so every decodable message has a
  /// unique (canonical) encoding — important when ids/signatures are
  /// computed over encodings.
  std::optional<bool> bool_() {
    auto b = u8();
    if (!b || *b > 1) return std::nullopt;
    return *b != 0;
  }

  std::optional<Bytes> bytes() { return owned(bytes_view()); }
  std::optional<Bytes> raw(std::size_t len) { return owned(raw_view(len)); }

  /// bytes() and raw() as views into the decoder's input: no copy, valid
  /// as long as that input is.
  std::optional<BytesView> bytes_view() {
    auto len = u32();
    if (!len) return std::nullopt;
    return raw_view(*len);
  }
  std::optional<BytesView> raw_view(std::size_t len) {
    if (len > data_.size() - pos_) return std::nullopt;
    const BytesView out = data_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  std::optional<std::string> str() {
    auto b = bytes();
    if (!b) return std::nullopt;
    return std::string(b->begin(), b->end());
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  static std::optional<Bytes> owned(std::optional<BytesView> v) {
    if (!v) return std::nullopt;
    return Bytes(v->begin(), v->end());
  }

  template <typename T>
  std::optional<T> read_le() {
    if (pos_ + sizeof(T) > data_.size()) return std::nullopt;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace repro
