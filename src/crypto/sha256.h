// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the collision-resistant hash H(.) the paper assumes: block ids,
// threshold-signature message points and the common coin all derive from
// it. Validated against the official FIPS test vectors in the unit tests.
//
// The compression function is picked once per process: the x86-64 SHA
// extensions (SHA-NI) where the CPU has them, else the portable reference.
// Both compute the same FIPS 180-4 function, so digests are byte-identical
// whichever one runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace repro::crypto {

using Digest = std::array<std::uint8_t, 32>;

namespace detail {

/// A SHA-256 compression function: folds `nblocks` consecutive 64-byte
/// blocks into the eight-word chaining `state`.
using Compressor = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks);

/// The portable reference compressor. Tests and the hash microbenchmark
/// compare the startup-selected kernel against it.
void compress_portable(std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks);

/// The compressor every default-constructed Sha256 uses, picked on first
/// call from the CPU's feature bits.
Compressor active_compressor();

/// Name of the active kernel: "sha-ni" or "portable".
const char* active_kernel_name();

}  // namespace detail

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() : Sha256(detail::active_compressor()) {}
  /// A context on an explicit compressor, for the kernel differential
  /// tests and the hash microbenchmark.
  explicit Sha256(detail::Compressor compress) : compress_(compress) { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalizes and returns the digest. The context must be reset() before
  /// reuse.
  Digest finalize();

 private:
  detail::Compressor compress_;
  std::array<std::uint32_t, 8> state_{};
  std::uint64_t bit_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest sha256(BytesView data);

/// Domain-separated hash: sha256(tag_len || tag || data). Used so block
/// ids, vote messages, coin inputs etc. can never collide across domains.
Digest sha256_tagged(std::string_view tag, BytesView data);

/// First 8 bytes of a digest as a little-endian integer (for hash maps
/// and field-element derivation).
std::uint64_t digest_prefix_u64(const Digest& d);

}  // namespace repro::crypto
