// Multi-lane SHA-256 batch engine: 4-way SSE2 / 8-way AVX2 interleaved
// compression kernels with runtime CPU dispatch and a portable scalar
// fallback (DESIGN.md §15).
//
// Equivalence guarantee: every lane of an interleaved kernel executes
// exactly the FIPS 180-4 message schedule and round function of the
// scalar `Sha256` — the same 32-bit operations over the same words,
// vectorized across independent messages — so SIMD digests are
// bit-identical to the portable path *by construction*, not by
// approximation. Cross-backend property tests (tests/crypto_test.cpp)
// and the `sha256_many` fuzz target enforce the guarantee anyway.
//
// Backend selection: `set_hash_backend()` beats the
// MEDCHAIN_HASH_BACKEND environment variable (auto | portable | simd |
// sse2 | avx2, read once at first use) beats the kAuto default. Forcing
// a kernel the CPU lacks degrades down the ladder (avx2x8 → sse2x4 →
// scalar) instead of failing, so one forced configuration is portable
// across hosts; digests never depend on which kernel ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace mc::crypto {

/// Which hashing backend batch calls and single streams should use.
/// Coarse A/B surface: kPortable vs kSimd/kAuto; kSse2/kAvx2 pin a
/// specific batch kernel for lane-width sweeps (bench_micro_crypto) and
/// targeted tests. Single-stream Sha256 runs on SHA-NI under every
/// value except kPortable when the CPU has it (stream_kernel_name()).
enum class HashBackend {
  kAuto = 0,  ///< widest kernel the CPU supports (default)
  kPortable,  ///< scalar round function only, batches and single
              ///< streams alike — the reference semantics
  kSimd,      ///< widest SIMD kernel; scalar only when the CPU has none
  kSse2,      ///< cap at the 4-lane SSE2 kernel
  kAvx2,      ///< prefer the 8-lane AVX2 kernel
};

/// Kernel a batch actually runs on; the enum value is its lane width.
enum class HashKernel { kScalar = 1, kSse2x4 = 4, kAvx2x8 = 8 };

/// Force the process-wide backend (thread-safe; relaxed atomic).
void set_hash_backend(HashBackend backend) noexcept;

/// Currently configured backend (what was forced, not what resolved).
[[nodiscard]] HashBackend hash_backend() noexcept;

/// Resolve the configured backend against CPU features: the kernel the
/// next batch call will use.
[[nodiscard]] HashKernel active_hash_kernel() noexcept;

/// Stable display name ("scalar", "sse2x4", "avx2x8").
[[nodiscard]] const char* hash_kernel_name(HashKernel kernel) noexcept;

/// Lane width of the active kernel (1, 4 or 8).
[[nodiscard]] std::size_t hash_lane_width() noexcept;

/// out[i] = sha256(inputs[i]). Arbitrary lengths: equal-length runs are
/// interleaved across SIMD lanes (they share one block schedule);
/// stragglers below the lane width fall back to the scalar path.
void sha256_many(const BytesView* inputs, std::size_t n, Hash256* out);

/// Convenience overload over owned buffers (leaf hashing).
[[nodiscard]] std::vector<Hash256> sha256_many(const std::vector<Bytes>& inputs);

/// out[i] = sha256(left[i] || right[i]) — Merkle inner nodes in bulk.
void sha256_pair_many(const Hash256* left, const Hash256* right,
                      std::size_t n, Hash256* out);

/// One Merkle level: parents over `n` child digests with the
/// duplicate-last-odd (Bitcoin) convention. Writes ceil(n/2) parents;
/// `out` must not alias `nodes`.
void sha256_merkle_level(const Hash256* nodes, std::size_t n, Hash256* out);

/// Midstate sweep: absorb a shared prefix once, then finalize many
/// messages `prefix || tail_i` across SIMD lanes (tails equal-length).
/// The PoW nonce grind feeds this — it composes the existing midstate
/// reuse (prefix compressions amortized over the whole sweep) with
/// multi-lane finishing of the per-nonce tails.
class Sha256Midstate {
 public:
  explicit Sha256Midstate(BytesView prefix);

  /// out[i] = sha256(prefix || tails[i*tail_stride .. +tail_len)); with
  /// `double_hash`, the digest is hashed again (sha256d semantics).
  void finish_many(const std::uint8_t* tails, std::size_t tail_len,
                   std::size_t tail_stride, std::size_t n, bool double_hash,
                   Hash256* out) const;

 private:
  Sha256 ctx_;  ///< scalar context snapshot after absorbing the prefix
};

}  // namespace mc::crypto
