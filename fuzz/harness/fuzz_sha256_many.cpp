// Fuzz target: the multi-lane SHA-256 batch engine must be bit-identical
// to the portable scalar path on every backend, for every batch shape
// the input bytes can describe, and must account digests per lane.
//
// Structure-aware: byte 0 picks the batch size (1..12), the next `count`
// bytes pick per-message lengths (0..255 — straddling both padding
// boundaries and multi-block messages), and the rest is a byte pool the
// messages are sliced from with wraparound. Ragged mixes exercise the
// equal-length grouping; repeated selectors produce full SIMD lane
// groups. The derived digests are then folded once through
// sha256_merkle_level so the pair path is cross-checked on the same
// input. Each message is also fed through an incremental Sha256 split
// at a fuzz-chosen offset (from the pool), so the single-stream kernel
// is checked against the portable digest on every backend as well.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/sha256_batch.hpp"
#include "fuzz/harness/fuzz_common.hpp"

namespace mc::fuzz {
namespace {

constexpr std::size_t kMaxItems = 12;

/// Restore the entry backend even when a property aborts mid-target is
/// moot (abort ends the process), but sequential driver/regression runs
/// replay many inputs in one process and must not leak a forced backend.
class BackendGuard {
 public:
  BackendGuard() : prev_(crypto::hash_backend()) {}
  ~BackendGuard() { crypto::set_hash_backend(prev_); }

 private:
  crypto::HashBackend prev_;
};

}  // namespace

int sha256_many(const std::uint8_t* data, std::size_t size) {
  if (size < 2) return 0;
  const std::size_t count = 1 + data[0] % kMaxItems;
  if (size < 1 + count) return 0;

  std::vector<Bytes> inputs(count);
  const std::uint8_t* pool = data + 1 + count;
  const std::size_t pool_size = size - 1 - count;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = data[1 + i];
    for (std::size_t b = 0; b < len; ++b) {
      inputs[i].push_back(pool_size ? pool[cursor % pool_size] : 0);
      ++cursor;
    }
  }
  const auto split_digest = [&](std::size_t i) {
    const BytesView msg(inputs[i]);
    const std::size_t split =
        pool_size ? pool[i % pool_size] % (msg.size() + 1) : msg.size() / 2;
    crypto::Sha256 ctx;
    ctx.update(msg.first(split));
    ctx.update(msg.subspan(split));
    return ctx.finalize();
  };

  BackendGuard guard;
  crypto::set_hash_backend(crypto::HashBackend::kPortable);
  std::uint64_t before = crypto::Sha256::digest_count();
  const std::vector<Hash256> reference = crypto::sha256_many(inputs);
  MC_FUZZ_EXPECT(crypto::Sha256::digest_count() - before == count,
                 "portable batch must count one digest per message");
  for (std::size_t i = 0; i < count; ++i) {
    MC_FUZZ_EXPECT(reference[i] == crypto::sha256(BytesView(inputs[i])),
                   "portable batch must equal one-shot sha256");
    MC_FUZZ_EXPECT(split_digest(i) == reference[i],
                   "portable split stream must equal one-shot sha256");
  }

  std::vector<Hash256> ref_level((count + 1) / 2);
  crypto::sha256_merkle_level(reference.data(), count, ref_level.data());

  for (const crypto::HashBackend backend :
       {crypto::HashBackend::kSse2, crypto::HashBackend::kAvx2,
        crypto::HashBackend::kSimd, crypto::HashBackend::kAuto}) {
    crypto::set_hash_backend(backend);
    before = crypto::Sha256::digest_count();
    MC_FUZZ_EXPECT(crypto::sha256_many(inputs) == reference,
                   "SIMD digests must be bit-identical to portable");
    MC_FUZZ_EXPECT(crypto::Sha256::digest_count() - before == count,
                   "every backend must count digests per lane hashed");
    std::vector<Hash256> level((count + 1) / 2);
    crypto::sha256_merkle_level(reference.data(), count, level.data());
    MC_FUZZ_EXPECT(level == ref_level,
                   "Merkle level must be backend-independent");
    for (std::size_t i = 0; i < count; ++i)
      MC_FUZZ_EXPECT(split_digest(i) == reference[i],
                     "single-stream digest must equal the portable digest");
  }
  return 0;
}

}  // namespace mc::fuzz
