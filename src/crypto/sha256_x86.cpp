// SHA-256 compression kernels for x86-64.
//
// Interleaved (batch) kernels: 4 lanes across SSE2 128-bit vectors, 8
// lanes across AVX2 256-bit vectors. One state word per vector element —
// each lane runs the exact scalar FIPS 180-4 schedule and round function,
// so digests are bit-identical to the portable Sha256 by construction
// (see crypto/sha256_batch.hpp).
//
// Single-stream kernel: the SHA extensions (SHA-NI) run one message's
// rounds two at a time in hardware (sha256rnds2) and expand its schedule
// with sha256msg1/msg2. Equivalence with the scalar transform rests on
// FIPS 180-4 itself plus the cross-backend tests in tests/crypto_test.cpp.
//
// SSE2 is part of the x86-64 baseline ABI, so that kernel compiles
// unconditionally; the AVX2 and SHA-NI kernels are emitted with
// per-function target attributes and only ever called after a CPUID
// probe says the host supports them (sha256_batch.cpp / sha256.cpp
// dispatch).
#include "crypto/sha256_lanes.hpp"

#ifdef MC_SHA256_X86

#include <cpuid.h>
#include <immintrin.h>

namespace mc::crypto::detail {

namespace {

inline std::uint32_t read_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

// ---- 4-lane SSE2 ---------------------------------------------------------

inline __m128i rotr4(__m128i x, int n) {
  return _mm_or_si128(_mm_srli_epi32(x, n), _mm_slli_epi32(x, 32 - n));
}

inline __m128i sigma0_4(__m128i x) {  // Σ0: rotr 2,13,22
  return _mm_xor_si128(_mm_xor_si128(rotr4(x, 2), rotr4(x, 13)), rotr4(x, 22));
}

inline __m128i sigma1_4(__m128i x) {  // Σ1: rotr 6,11,25
  return _mm_xor_si128(_mm_xor_si128(rotr4(x, 6), rotr4(x, 11)), rotr4(x, 25));
}

inline __m128i gamma0_4(__m128i x) {  // σ0: rotr 7,18, shr 3
  return _mm_xor_si128(_mm_xor_si128(rotr4(x, 7), rotr4(x, 18)),
                       _mm_srli_epi32(x, 3));
}

inline __m128i gamma1_4(__m128i x) {  // σ1: rotr 17,19, shr 10
  return _mm_xor_si128(_mm_xor_si128(rotr4(x, 17), rotr4(x, 19)),
                       _mm_srli_epi32(x, 10));
}

inline __m128i ch4(__m128i e, __m128i f, __m128i g) {
  // (e & f) ^ (~e & g)  ==  g ^ (e & (f ^ g))
  return _mm_xor_si128(g, _mm_and_si128(e, _mm_xor_si128(f, g)));
}

inline __m128i maj4(__m128i a, __m128i b, __m128i c) {
  // (a & b) ^ (a & c) ^ (b & c)  ==  (a & b) | (c & (a | b))
  return _mm_or_si128(_mm_and_si128(a, b),
                      _mm_and_si128(c, _mm_or_si128(a, b)));
}

}  // namespace

void sha256_xform_sse2_x4(std::uint32_t* states,
                          const std::uint8_t* const* data,
                          std::size_t blocks) {
  __m128i s[8];
  for (int i = 0; i < 8; ++i)
    s[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(states + 4 * i));

  for (std::size_t blk = 0; blk < blocks; ++blk) {
    __m128i w[16];
    for (int i = 0; i < 16; ++i)
      // lane L → element L (set order is MSB-first: lane 3, 2, 1, 0).
      w[i] = _mm_set_epi32(
          static_cast<int>(read_be32(data[3] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[2] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[1] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[0] + 64 * blk + 4 * i)));

    __m128i a = s[0], b = s[1], c = s[2], d = s[3];
    __m128i e = s[4], f = s[5], g = s[6], h = s[7];

    for (int i = 0; i < 64; ++i) {
      const int j = i & 15;
      if (i >= 16) {
        // w[16..63] in a 16-entry ring: w[j] += σ0(w[j+1]) + w[j+9] + σ1(w[j+14])
        w[j] = _mm_add_epi32(
            _mm_add_epi32(w[j], gamma0_4(w[(j + 1) & 15])),
            _mm_add_epi32(w[(j + 9) & 15], gamma1_4(w[(j + 14) & 15])));
      }
      const __m128i t1 = _mm_add_epi32(
          _mm_add_epi32(_mm_add_epi32(h, sigma1_4(e)), ch4(e, f, g)),
          _mm_add_epi32(_mm_set1_epi32(static_cast<int>(kSha256K[i])), w[j]));
      const __m128i t2 = _mm_add_epi32(sigma0_4(a), maj4(a, b, c));
      h = g;
      g = f;
      f = e;
      e = _mm_add_epi32(d, t1);
      d = c;
      c = b;
      b = a;
      a = _mm_add_epi32(t1, t2);
    }

    s[0] = _mm_add_epi32(s[0], a);
    s[1] = _mm_add_epi32(s[1], b);
    s[2] = _mm_add_epi32(s[2], c);
    s[3] = _mm_add_epi32(s[3], d);
    s[4] = _mm_add_epi32(s[4], e);
    s[5] = _mm_add_epi32(s[5], f);
    s[6] = _mm_add_epi32(s[6], g);
    s[7] = _mm_add_epi32(s[7], h);
  }

  for (int i = 0; i < 8; ++i)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(states + 4 * i), s[i]);
}

// ---- 8-lane AVX2 ---------------------------------------------------------

#define MC_AVX2 __attribute__((target("avx2")))

namespace {

MC_AVX2 inline __m256i rotr8(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

MC_AVX2 inline __m256i sigma0_8(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(rotr8(x, 2), rotr8(x, 13)),
                          rotr8(x, 22));
}

MC_AVX2 inline __m256i sigma1_8(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(rotr8(x, 6), rotr8(x, 11)),
                          rotr8(x, 25));
}

MC_AVX2 inline __m256i gamma0_8(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(rotr8(x, 7), rotr8(x, 18)),
                          _mm256_srli_epi32(x, 3));
}

MC_AVX2 inline __m256i gamma1_8(__m256i x) {
  return _mm256_xor_si256(_mm256_xor_si256(rotr8(x, 17), rotr8(x, 19)),
                          _mm256_srli_epi32(x, 10));
}

MC_AVX2 inline __m256i ch8(__m256i e, __m256i f, __m256i g) {
  return _mm256_xor_si256(g, _mm256_and_si256(e, _mm256_xor_si256(f, g)));
}

MC_AVX2 inline __m256i maj8(__m256i a, __m256i b, __m256i c) {
  return _mm256_or_si256(_mm256_and_si256(a, b),
                         _mm256_and_si256(c, _mm256_or_si256(a, b)));
}

}  // namespace

MC_AVX2 void sha256_xform_avx2_x8(std::uint32_t* states,
                                  const std::uint8_t* const* data,
                                  std::size_t blocks) {
  __m256i s[8];
  for (int i = 0; i < 8; ++i)
    s[i] =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states + 8 * i));

  for (std::size_t blk = 0; blk < blocks; ++blk) {
    __m256i w[16];
    for (int i = 0; i < 16; ++i)
      w[i] = _mm256_set_epi32(
          static_cast<int>(read_be32(data[7] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[6] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[5] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[4] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[3] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[2] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[1] + 64 * blk + 4 * i)),
          static_cast<int>(read_be32(data[0] + 64 * blk + 4 * i)));

    __m256i a = s[0], b = s[1], c = s[2], d = s[3];
    __m256i e = s[4], f = s[5], g = s[6], h = s[7];

    for (int i = 0; i < 64; ++i) {
      const int j = i & 15;
      if (i >= 16) {
        w[j] = _mm256_add_epi32(
            _mm256_add_epi32(w[j], gamma0_8(w[(j + 1) & 15])),
            _mm256_add_epi32(w[(j + 9) & 15], gamma1_8(w[(j + 14) & 15])));
      }
      const __m256i t1 = _mm256_add_epi32(
          _mm256_add_epi32(_mm256_add_epi32(h, sigma1_8(e)), ch8(e, f, g)),
          _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(kSha256K[i])),
                           w[j]));
      const __m256i t2 = _mm256_add_epi32(sigma0_8(a), maj8(a, b, c));
      h = g;
      g = f;
      f = e;
      e = _mm256_add_epi32(d, t1);
      d = c;
      c = b;
      b = a;
      a = _mm256_add_epi32(t1, t2);
    }

    s[0] = _mm256_add_epi32(s[0], a);
    s[1] = _mm256_add_epi32(s[1], b);
    s[2] = _mm256_add_epi32(s[2], c);
    s[3] = _mm256_add_epi32(s[3], d);
    s[4] = _mm256_add_epi32(s[4], e);
    s[5] = _mm256_add_epi32(s[5], f);
    s[6] = _mm256_add_epi32(s[6], g);
    s[7] = _mm256_add_epi32(s[7], h);
  }

  for (int i = 0; i < 8; ++i)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(states + 8 * i), s[i]);
}

// ---- single-stream SHA-NI -------------------------------------------------

#define MC_SHANI __attribute__((target("sha,sse4.1")))

MC_SHANI void sha256_xform_shani(std::uint32_t* state,
                                 const std::uint8_t* data,
                                 std::size_t blocks) {
  // Byte-swap each 32-bit word of a message block (big-endian words).
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // The round instructions take the state as ABEF / CDGH word pairs.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (std::size_t blk = 0; blk < blocks; ++blk, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[g % 4] holds schedule words W[4g .. 4g+3] for round group g.
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4)
        msg[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      __m128i wk = _mm_add_epi32(
          msg[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kSha256K + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g <= 14) {  // finish W for group g + 1
        __m128i& next = msg[(g + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(msg[g % 4], msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, msg[g % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g <= 12)  // start W for group g + 3
        msg[(g + 3) % 4] = _mm_sha256msg1_epu32(msg[(g + 3) % 4], msg[g % 4]);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_avx2() noexcept { return __builtin_cpu_supports("avx2") != 0; }

bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse41 && (ebx & bit_SHA) != 0;
}

}  // namespace mc::crypto::detail

#endif  // MC_SHA256_X86
