// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for block hashing, Merkle trees, dataset anchoring and proof-of-work.
// This is the full standard construction (real test vectors are covered in
// tests/crypto_test.cpp).
//
// Every run of full 64-byte blocks goes through one compression call. On
// x86-64 hosts with the SHA extensions it runs the SHA-NI kernel
// (crypto/sha256_x86.cpp); otherwise, and whenever the hash backend is
// forced to kPortable (crypto/sha256_batch.hpp), it runs the scalar
// round function in sha256.cpp — the reference semantics. Digests never depend
// on which kernel ran (DESIGN.md §15).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace mc::crypto {

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  Sha256& update(BytesView data);
  Sha256& update(std::string_view s) { return update(str_bytes(s)); }

  /// Finalizes and returns the digest; context must be reset() to reuse.
  [[nodiscard]] Hash256 finalize();

  /// Test hook: process-wide count of digests finalized (relaxed atomic).
  /// Lets tests prove a content id is computed at most once per distinct
  /// content; costs one uncontended atomic add per digest.
  [[nodiscard]] static std::uint64_t digest_count() noexcept;

  /// Batch-engine accounting hook: the multi-lane kernels (sha256_batch)
  /// finalize W digests per interleaved compression, so they add the
  /// *lane* count — digest_count() reports digests produced, never kernel
  /// invocations, and is therefore backend-independent for identical work.
  static void add_digest_count(std::uint64_t lanes) noexcept;

 private:
  // The midstate sweep resumes state_/buffer_ across SIMD lanes.
  friend class Sha256Midstate;

  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// Kernel the single-stream compression runs on under the current hash
/// backend: "shani" or "scalar". Read-only; selection follows
/// hash_backend() and the CPU.
[[nodiscard]] const char* stream_kernel_name() noexcept;

/// One-shot convenience digest.
Hash256 sha256(BytesView data);
Hash256 sha256(std::string_view s);

/// Double SHA-256 (Bitcoin-style block/tx ids).
Hash256 sha256d(BytesView data);

/// Digest of the concatenation of two digests (Merkle inner nodes).
Hash256 sha256_pair(const Hash256& a, const Hash256& b);

}  // namespace mc::crypto
