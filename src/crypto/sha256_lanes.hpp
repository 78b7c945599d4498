// Internal contract between the dispatchers (sha256.cpp for single
// streams, sha256_batch.cpp for batches) and the architecture-specific
// kernels (sha256_x86.cpp). Not a public API — include crypto/sha256.hpp
// or crypto/sha256_batch.hpp instead.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mc::crypto::detail {

/// FIPS 180-4 round constants and initial state, shared by the
/// x86 kernels (the scalar Sha256 keeps its own local copy).
extern const std::uint32_t kSha256K[64];
extern const std::uint32_t kSha256Iv[8];

#if defined(__x86_64__) || defined(__amd64__)
#define MC_SHA256_X86 1

// Interleaved compression kernels. `states` is word-major with the
// kernel's lane width W: states[w * W + lane] holds state word w of
// `lane`. data[lane] points at that lane's `blocks` consecutive 64-byte
// message blocks; each call runs `blocks` full compressions per lane.
// Every lane computes exactly the scalar FIPS 180-4 transform.
void sha256_xform_sse2_x4(std::uint32_t* states,
                          const std::uint8_t* const* data,
                          std::size_t blocks);
void sha256_xform_avx2_x8(std::uint32_t* states,
                          const std::uint8_t* const* data,
                          std::size_t blocks);

// Single-stream SHA-NI kernel: `blocks` consecutive 64-byte message
// blocks compressed into one FIPS 180-4 state (state[0..7] = a..h).
// Callers must check cpu_has_sha_ni() first.
void sha256_xform_shani(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks);

/// Runtime CPUID probes (cached by the caller's dispatch).
[[nodiscard]] bool cpu_has_avx2() noexcept;
[[nodiscard]] bool cpu_has_sha_ni() noexcept;

#endif  // x86-64

}  // namespace mc::crypto::detail
