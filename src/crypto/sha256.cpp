#include "crypto/sha256.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "crypto/sha256_batch.hpp"
#include "crypto/sha256_lanes.hpp"

namespace mc::crypto {
namespace {

std::atomic<std::uint64_t> g_digest_count{0};

}  // namespace

std::uint64_t Sha256::digest_count() noexcept {
  return g_digest_count.load(std::memory_order_relaxed);
}

void Sha256::add_digest_count(std::uint64_t lanes) noexcept {
  g_digest_count.fetch_add(lanes, std::memory_order_relaxed);
}

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_scalar(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

bool use_shani() noexcept {
#ifdef MC_SHA256_X86
  static const bool has_sha_ni = detail::cpu_has_sha_ni();
  return has_sha_ni && hash_backend() != HashBackend::kPortable;
#else
  return false;
#endif
}

/// Compress `n` consecutive 64-byte blocks into `state`.
void compress(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t n) {
#ifdef MC_SHA256_X86
  if (use_shani()) {
    detail::sha256_xform_shani(state, blocks, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) compress_scalar(state, blocks + 64 * i);
}

}  // namespace

void Sha256::reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

const char* stream_kernel_name() noexcept {
  return use_shani() ? "shani" : "scalar";
}

Sha256& Sha256::update(BytesView data) {
  // Empty views may carry a null pointer (e.g. a default Bytes streamed
  // through HashWriter); memcpy forbids null even for length 0.
  if (data.empty()) return *this;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(64 - buffer_len_, n);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < 64) return *this;
    compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  const std::size_t full = n / 64;
  if (full > 0) {
    compress(state_, p, full);
    p += 64 * full;
    n -= 64 * full;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
  return *this;
}

Hash256 Sha256::finalize() {
  g_digest_count.fetch_add(1, std::memory_order_relaxed);
  // Pad in place: 0x80, zero fill, then the big-endian bit length in the
  // last 8 bytes — one block, or two when fewer than 9 bytes remain.
  const std::uint64_t bit_len = total_len_ * 8;
  const std::size_t blocks = buffer_len_ < 56 ? 1 : 2;
  std::uint8_t tail[128];
  std::memcpy(tail, buffer_, buffer_len_);
  tail[buffer_len_] = 0x80;
  std::memset(tail + buffer_len_ + 1, 0, 64 * blocks - 8 - buffer_len_ - 1);
  for (int i = 0; i < 8; ++i)
    tail[64 * blocks - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress(state_, tail, blocks);
  buffer_len_ = 0;

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.data[static_cast<std::size_t>(4 * i)] =
        static_cast<std::uint8_t>(state_[i] >> 24);
    out.data[static_cast<std::size_t>(4 * i + 1)] =
        static_cast<std::uint8_t>(state_[i] >> 16);
    out.data[static_cast<std::size_t>(4 * i + 2)] =
        static_cast<std::uint8_t>(state_[i] >> 8);
    out.data[static_cast<std::size_t>(4 * i + 3)] =
        static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Hash256 sha256(BytesView data) { return Sha256().update(data).finalize(); }

Hash256 sha256(std::string_view s) { return sha256(str_bytes(s)); }

Hash256 sha256d(BytesView data) {
  const Hash256 first = sha256(data);
  return sha256(BytesView(first.data));
}

Hash256 sha256_pair(const Hash256& a, const Hash256& b) {
  Sha256 ctx;
  ctx.update(BytesView(a.data));
  ctx.update(BytesView(b.data));
  return ctx.finalize();
}

}  // namespace mc::crypto
