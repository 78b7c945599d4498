// Crypto substrate tests: standard vectors plus protocol properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_batch.hpp"

namespace mc::crypto {
namespace {

/// Force a backend for one scope and restore the previous one on exit,
/// so test order never leaks backend state.
class ScopedHashBackend {
 public:
  explicit ScopedHashBackend(HashBackend backend) : prev_(hash_backend()) {
    set_hash_backend(backend);
  }
  ~ScopedHashBackend() { set_hash_backend(prev_); }
  ScopedHashBackend(const ScopedHashBackend&) = delete;
  ScopedHashBackend& operator=(const ScopedHashBackend&) = delete;

 private:
  HashBackend prev_;
};

/// The two single-stream kernels: the scalar reference and whatever the
/// host selects natively (SHA-NI when present, else scalar again).
constexpr HashBackend kStreamBackends[] = {HashBackend::kPortable,
                                           HashBackend::kAuto};

// --- SHA-256 (FIPS 180-4 / NIST vectors, on both stream kernels) ---

TEST(Sha256, EmptyString) {
  for (const HashBackend backend : kStreamBackends) {
    ScopedHashBackend scope(backend);
    EXPECT_EQ(to_hex(sha256("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << stream_kernel_name();
  }
}

TEST(Sha256, Abc) {
  for (const HashBackend backend : kStreamBackends) {
    ScopedHashBackend scope(backend);
    EXPECT_EQ(to_hex(sha256("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << stream_kernel_name();
  }
}

TEST(Sha256, TwoBlockMessage) {
  for (const HashBackend backend : kStreamBackends) {
    ScopedHashBackend scope(backend);
    EXPECT_EQ(
        to_hex(sha256(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << stream_kernel_name();
  }
}

TEST(Sha256, MillionAs) {
  for (const HashBackend backend : kStreamBackends) {
    ScopedHashBackend scope(backend);
    Sha256 ctx;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) ctx.update(chunk);
    EXPECT_EQ(to_hex(ctx.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << stream_kernel_name();
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(5);
  for (const std::size_t n : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 1000u}) {
    const Bytes data = rng.bytes(n);
    Sha256 ctx;
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t take = std::min<std::size_t>(17, data.size() - offset);
      ctx.update(BytesView(data.data() + offset, take));
      offset += take;
    }
    EXPECT_EQ(ctx.finalize(), sha256(BytesView(data))) << "n=" << n;
  }
}

TEST(Sha256, DoubleHashAndPair) {
  const Hash256 once = sha256("x");
  EXPECT_EQ(sha256d(str_bytes("x")), sha256(BytesView(once.data)));
  const Hash256 a = sha256("a"), b = sha256("b");
  EXPECT_NE(sha256_pair(a, b), sha256_pair(b, a));
}

// --- Multi-lane batch engine (DESIGN.md §15) ---

/// Every backend worth exercising on this host. Forcing a kernel the CPU
/// lacks degrades down the ladder, so listing all of them is always safe
/// — a degraded entry just re-tests a narrower kernel.
const std::vector<HashBackend>& all_backends() {
  static const std::vector<HashBackend> kBackends = {
      HashBackend::kPortable, HashBackend::kSse2, HashBackend::kAvx2,
      HashBackend::kSimd, HashBackend::kAuto};
  return kBackends;
}

TEST(Sha256Batch, NistVectorsOnEveryBackend) {
  const std::vector<Bytes> inputs = {
      to_bytes(""), to_bytes("abc"),
      to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      Bytes(1'000'000, static_cast<std::uint8_t>('a'))};
  const std::vector<std::string> expected = {
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"};
  for (const HashBackend backend : all_backends()) {
    ScopedHashBackend scope(backend);
    // Duplicate each vector across a full lane group so the SIMD path
    // actually engages (n >= 4 and equal-length runs).
    std::vector<Bytes> lanes;
    for (const Bytes& in : inputs)
      for (int i = 0; i < 8; ++i) lanes.push_back(in);
    const std::vector<Hash256> out = sha256_many(lanes);
    for (std::size_t i = 0; i < lanes.size(); ++i)
      EXPECT_EQ(to_hex(out[i]), expected[i / 8])
          << "backend " << static_cast<int>(backend) << " input " << i;
  }
}

TEST(Sha256Batch, CrossBackendBitIdentical) {
  // Random lengths 0..4 KiB plus the padding boundaries; mixed lengths in
  // one call exercise the equal-length grouping and the straggler path.
  Rng rng(41);
  std::vector<Bytes> inputs;
  for (const std::size_t n : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u})
    inputs.push_back(rng.bytes(n));
  for (int i = 0; i < 64; ++i) inputs.push_back(rng.bytes(rng.uniform(4096)));
  // Equal-length duplicates so full SIMD groups form.
  for (int i = 0; i < 16; ++i) inputs.push_back(inputs[2]);

  std::vector<Hash256> reference;
  {
    ScopedHashBackend scope(HashBackend::kPortable);
    reference = sha256_many(inputs);
  }
  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_EQ(reference[i], sha256(BytesView(inputs[i]))) << "i=" << i;
  for (const HashBackend backend : all_backends()) {
    ScopedHashBackend scope(backend);
    EXPECT_EQ(sha256_many(inputs), reference)
        << "backend " << static_cast<int>(backend);
  }
}

TEST(Sha256Batch, PairAndLevelMatchScalar) {
  Rng rng(42);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 33u}) {
    std::vector<Hash256> left(n), right(n);
    for (std::size_t i = 0; i < n; ++i) {
      left[i] = sha256(BytesView(rng.bytes(16)));
      right[i] = sha256(BytesView(rng.bytes(16)));
    }
    std::vector<Hash256> want_pairs(n);
    for (std::size_t i = 0; i < n; ++i)
      want_pairs[i] = sha256_pair(left[i], right[i]);
    std::vector<Hash256> want_level((n + 1) / 2);
    for (std::size_t p = 0; p < want_level.size(); ++p)
      want_level[p] = sha256_pair(
          left[2 * p], 2 * p + 1 < n ? left[2 * p + 1] : left[2 * p]);
    for (const HashBackend backend : all_backends()) {
      ScopedHashBackend scope(backend);
      std::vector<Hash256> pairs(n), level(want_level.size());
      sha256_pair_many(left.data(), right.data(), n, pairs.data());
      sha256_merkle_level(left.data(), n, level.data());
      EXPECT_EQ(pairs, want_pairs) << "n=" << n;
      EXPECT_EQ(level, want_level) << "n=" << n;
    }
  }
}

TEST(Sha256Batch, MidstateSweepMatchesScalar) {
  // Prefix lengths straddle block boundaries so the buffered residue the
  // lanes resume from takes every shape (empty, partial, nearly full);
  // the prefix is absorbed in ragged increments to vary buffer state.
  Rng rng(43);
  for (const std::size_t prefix_len :
       {0u, 1u, 55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes prefix = rng.bytes(prefix_len);
    Sha256Midstate midstate{BytesView(prefix)};
    constexpr std::size_t kTail = 28;
    constexpr std::size_t kN = 13;
    std::uint8_t tails[kN][kTail];
    for (auto& tail : tails)
      for (auto& byte : tail)
        byte = static_cast<std::uint8_t>(rng.uniform(256));
    for (const bool double_hash : {false, true}) {
      std::vector<Hash256> want(kN);
      for (std::size_t i = 0; i < kN; ++i) {
        Sha256 ctx;
        std::size_t offset = 0;  // ragged absorb: 1, 2, 4, 8, ... bytes
        for (std::size_t step = 1; offset < prefix.size(); step *= 2) {
          const std::size_t take =
              std::min(step, prefix.size() - offset);
          ctx.update(BytesView(prefix.data() + offset, take));
          offset += take;
        }
        ctx.update(BytesView(tails[i], kTail));
        const Hash256 h = ctx.finalize();
        want[i] = double_hash ? sha256(BytesView(h.data)) : h;
      }
      for (const HashBackend backend : all_backends()) {
        ScopedHashBackend scope(backend);
        std::vector<Hash256> got(kN);
        midstate.finish_many(&tails[0][0], kTail, kTail, kN, double_hash,
                             got.data());
        EXPECT_EQ(got, want) << "prefix " << prefix_len << " double "
                             << double_hash << " backend "
                             << static_cast<int>(backend);
      }
    }
  }
}

TEST(Sha256Batch, DigestCountCountsLanes) {
  // The satellite contract: digest_count() reports digests produced, not
  // kernel invocations, so a 32-message batch adds exactly 32 on every
  // backend.
  std::vector<Bytes> inputs;
  Rng rng(44);
  for (int i = 0; i < 32; ++i) inputs.push_back(rng.bytes(100));
  for (const HashBackend backend : all_backends()) {
    ScopedHashBackend scope(backend);
    const std::uint64_t before = Sha256::digest_count();
    (void)sha256_many(inputs);
    EXPECT_EQ(Sha256::digest_count() - before, 32u)
        << "backend " << static_cast<int>(backend);
  }
}

TEST(Sha256Batch, BackendSelectionSurface) {
  ScopedHashBackend scope(HashBackend::kPortable);
  EXPECT_EQ(hash_backend(), HashBackend::kPortable);
  EXPECT_EQ(active_hash_kernel(), HashKernel::kScalar);
  EXPECT_EQ(hash_lane_width(), 1u);
  set_hash_backend(HashBackend::kAuto);
  // Whatever resolves, the name and width must be consistent.
  const HashKernel kernel = active_hash_kernel();
  EXPECT_EQ(hash_lane_width(), static_cast<std::size_t>(kernel));
  EXPECT_STRNE(hash_kernel_name(kernel), "unknown");
}

// --- Single-stream kernel (DESIGN.md §15) ---

/// Sha256 over `data` fed in seeded random-length update() pieces
/// (zero-length pieces included), so block seams land everywhere.
Hash256 sha256_split(BytesView data, std::uint64_t seed,
                     std::size_t max_piece) {
  Rng rng(seed);
  Sha256 ctx;
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t take = std::min<std::size_t>(
        rng.uniform(max_piece + 1), data.size() - offset);
    ctx.update(data.subspan(offset, take));
    offset += take;
  }
  return ctx.finalize();
}

/// Kernel Sha256 runs on under `backend`.
std::string stream_kernel_under(HashBackend backend) {
  ScopedHashBackend scope(backend);
  return stream_kernel_name();
}

TEST(Sha256Stream, KernelSelection) {
  const std::string native = stream_kernel_under(HashBackend::kAuto);
  RecordProperty("stream_kernel", native);
  std::printf("[          ] single-stream kernel under auto: %s\n",
              native.c_str());
  EXPECT_TRUE(native == "shani" || native == "scalar") << native;
  // Forcing portable always selects the scalar reference.
  EXPECT_EQ(stream_kernel_under(HashBackend::kPortable), "scalar");
}

TEST(Sha256Stream, EveryLengthMatchesPortable) {
  // On a host without SHA-NI both sides run the scalar kernel and the
  // test still passes, comparing scalar with scalar.
  Rng rng(1024);
  const Bytes msg = rng.bytes(1024);
  for (std::size_t n = 0; n <= msg.size(); ++n) {
    const BytesView view(msg.data(), n);
    Hash256 ref, ref_split;
    {
      ScopedHashBackend scope(HashBackend::kPortable);
      ref = sha256(view);
      ref_split = sha256_split(view, n, 150);
    }
    EXPECT_EQ(ref_split, ref) << "portable split, n=" << n;
    ScopedHashBackend scope(HashBackend::kAuto);
    EXPECT_EQ(sha256(view), ref) << "one-shot, n=" << n;
    EXPECT_EQ(sha256_split(view, n, 150), ref) << "split, n=" << n;
  }
}

TEST(Sha256Stream, MebibyteMatchesPortable) {
  Rng rng(20);
  const Bytes msg = rng.bytes(1u << 20);
  Hash256 ref;
  {
    ScopedHashBackend scope(HashBackend::kPortable);
    ref = sha256(BytesView(msg));
    EXPECT_EQ(sha256_split(BytesView(msg), 1, 5000), ref);
  }
  ScopedHashBackend scope(HashBackend::kAuto);
  EXPECT_EQ(sha256(BytesView(msg)), ref);
  EXPECT_EQ(sha256_split(BytesView(msg), 2, 5000), ref);
}

TEST(Merkle, RootIsBackendIndependent) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < 37; ++i) leaves.push_back(sha256(std::to_string(i)));
  Hash256 reference;
  {
    ScopedHashBackend scope(HashBackend::kPortable);
    reference = MerkleTree(leaves).root();
  }
  for (const HashBackend backend : all_backends()) {
    ScopedHashBackend scope(backend);
    EXPECT_EQ(MerkleTree(leaves).root(), reference);
    EXPECT_EQ(MerkleFrontier(leaves).root(), reference);
  }
}

// --- HMAC-SHA256 (RFC 4231) ---

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(BytesView(key), str_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(str_bytes("Jefe"),
                               str_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyHashedFirst) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      to_hex(hmac_sha256(
          BytesView(key),
          str_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DeriveKeyStableAndDistinct) {
  const Hash256 k1 = derive_key(str_bytes("master"), "session-1");
  const Hash256 k2 = derive_key(str_bytes("master"), "session-2");
  EXPECT_NE(k1, k2);
  EXPECT_EQ(k1, derive_key(str_bytes("master"), "session-1"));
}

// --- Merkle trees ---

TEST(Merkle, EmptyTreeZeroRoot) {
  MerkleTree tree({});
  EXPECT_TRUE(tree.root().is_zero());
  EXPECT_EQ(tree.leaf_count(), 0u);
}

TEST(Merkle, SingleLeafRootIsLeaf) {
  const Hash256 leaf = sha256("leaf");
  MerkleTree tree({leaf});
  EXPECT_EQ(tree.root(), leaf);
  EXPECT_TRUE(MerkleTree::verify(leaf, 0, tree.prove(0), tree.root()));
}

class MerkleProofTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofTest, AllProofsVerify) {
  const std::size_t n = GetParam();
  std::vector<Hash256> leaves;
  for (std::size_t i = 0; i < n; ++i)
    leaves.push_back(sha256("leaf-" + std::to_string(i)));
  MerkleTree tree(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(MerkleTree::verify(leaves[i], i, tree.prove(i), tree.root()))
        << "leaf " << i << " of " << n;
    // Wrong leaf must fail.
    EXPECT_FALSE(MerkleTree::verify(sha256("evil"), i, tree.prove(i),
                                    tree.root()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33,
                                           100));

TEST(Merkle, RootChangesOnAnyLeafChange) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < 10; ++i) leaves.push_back(sha256(std::to_string(i)));
  const Hash256 root = MerkleTree(leaves).root();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto tampered = leaves;
    tampered[i] = sha256("tampered");
    EXPECT_NE(MerkleTree(tampered).root(), root);
  }
}

TEST(Merkle, RootOfByteLeaves) {
  const std::vector<Bytes> leaves = {to_bytes("a"), to_bytes("b")};
  EXPECT_EQ(merkle_root_of(leaves),
            sha256_pair(sha256("a"), sha256("b")));
}

// --- Incremental frontier ---

TEST(MerkleFrontier, EmptyMatchesEmptyTree) {
  MerkleFrontier frontier;
  EXPECT_TRUE(frontier.root().is_zero());
  EXPECT_EQ(frontier.leaf_count(), 0u);
}

// The load-bearing equivalence: after every single append the frontier
// root must equal a full MerkleTree rebuild over the same prefix —
// covering powers of two, one-off-ragged sizes and everything between.
TEST(MerkleFrontier, EveryPrefixMatchesFullRebuild) {
  constexpr std::size_t kMax = 130;
  std::vector<Hash256> leaves;
  MerkleFrontier frontier;
  for (std::size_t n = 1; n <= kMax; ++n) {
    leaves.push_back(sha256("leaf-" + std::to_string(n)));
    frontier.append(leaves.back());
    ASSERT_EQ(frontier.root(), MerkleTree(leaves).root())
        << "frontier diverged at " << n << " leaves";
    ASSERT_EQ(frontier.leaf_count(), n);
  }
}

TEST(MerkleFrontier, BulkConstructorMatchesAppendLoop) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < 77; ++i) leaves.push_back(sha256(std::to_string(i)));
  const MerkleFrontier bulk(leaves);
  MerkleFrontier one_by_one;
  for (const Hash256& leaf : leaves) one_by_one.append(leaf);
  EXPECT_EQ(bulk.root(), one_by_one.root());
  EXPECT_EQ(bulk.leaf_count(), leaves.size());
}

// Proofs minted from a full tree must verify against the root the
// frontier reports — the dataset anchors frontier roots on-chain, and
// sites later prove record inclusion with MerkleTree proofs.
TEST(MerkleFrontier, TreeProofsVerifyAgainstFrontierRoot) {
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 64u, 100u}) {
    std::vector<Hash256> leaves;
    MerkleFrontier frontier;
    for (std::size_t i = 0; i < n; ++i) {
      leaves.push_back(sha256("record-" + std::to_string(i)));
      frontier.append(leaves.back());
    }
    const MerkleTree tree(leaves);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_TRUE(
          MerkleTree::verify(leaves[i], i, tree.prove(i), frontier.root()))
          << "leaf " << i << " of " << n;
  }
}

TEST(MerkleFrontier, ClearResetsToEmpty) {
  MerkleFrontier frontier;
  frontier.append(sha256("x"));
  frontier.append(sha256("y"));
  frontier.clear();
  EXPECT_EQ(frontier.leaf_count(), 0u);
  EXPECT_TRUE(frontier.root().is_zero());
  // Reusable after clear: behaves like a fresh accumulator.
  frontier.append(sha256("z"));
  EXPECT_EQ(frontier.root(), sha256("z"));
}

// --- Schnorr ---

TEST(Schnorr, GroupParametersAreValid) {
  EXPECT_TRUE(is_prime_u64(SchnorrGroup::p));
  EXPECT_TRUE(is_prime_u64(SchnorrGroup::q));
  EXPECT_EQ(SchnorrGroup::p, 2 * SchnorrGroup::q + 1);
  // g generates the order-q subgroup.
  EXPECT_EQ(powmod(SchnorrGroup::g, SchnorrGroup::q, SchnorrGroup::p), 1u);
  EXPECT_NE(powmod(SchnorrGroup::g, 2, SchnorrGroup::p), 1u);
}

TEST(Schnorr, MillerRabinKnownCases) {
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(97));
  EXPECT_TRUE(is_prime_u64(2'147'483'647));  // M31
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_FALSE(is_prime_u64(561));     // Carmichael
  EXPECT_FALSE(is_prime_u64(341'550'071'728'321ULL));  // strong pseudoprime
}

TEST(Schnorr, SignVerifyRoundTrip) {
  Rng rng(1);
  const PrivateKey key = generate_key(rng);
  const Bytes msg = to_bytes("attack at dawn");
  const Signature sig = sign(key, BytesView(msg));
  EXPECT_TRUE(verify(key.pub, BytesView(msg), sig));
}

TEST(Schnorr, RejectsWrongMessageKeyAndSig) {
  Rng rng(2);
  const PrivateKey key = generate_key(rng);
  const PrivateKey other = generate_key(rng);
  const Bytes msg = to_bytes("hello");
  const Signature sig = sign(key, BytesView(msg));
  EXPECT_FALSE(verify(key.pub, str_bytes("hellp"), sig));
  EXPECT_FALSE(verify(other.pub, BytesView(msg), sig));
  Signature bad = sig;
  bad.s ^= 1;
  EXPECT_FALSE(verify(key.pub, BytesView(msg), bad));
  Signature bad_s = sig;
  bad_s.s = SchnorrGroup::q;  // out of range
  EXPECT_FALSE(verify(key.pub, BytesView(msg), bad_s));
  Signature bad_r = sig;
  bad_r.r = 0;  // degenerate commitment
  EXPECT_FALSE(verify(key.pub, BytesView(msg), bad_r));
  bad_r.r = SchnorrGroup::p;  // out of range
  EXPECT_FALSE(verify(key.pub, BytesView(msg), bad_r));
}

TEST(Schnorr, DeterministicNonceSameSignature) {
  const PrivateKey key = key_from_seed("stable-identity");
  const Bytes msg = to_bytes("msg");
  EXPECT_EQ(sign(key, BytesView(msg)), sign(key, BytesView(msg)));
}

TEST(Schnorr, SeededKeysStable) {
  EXPECT_EQ(key_from_seed("hospital-0").pub, key_from_seed("hospital-0").pub);
  EXPECT_NE(key_from_seed("hospital-0").pub.y,
            key_from_seed("hospital-1").pub.y);
}

TEST(Schnorr, AddressDerivation) {
  const PrivateKey key = key_from_seed("addr-test");
  const Address a = address_of(key.pub);
  EXPECT_FALSE(a.is_zero());
  EXPECT_EQ(a, address_of(key.pub));
  EXPECT_EQ(to_hex(a).size(), 40u);
}

class SchnorrSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchnorrSweep, ManyKeysManyMessages) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const PrivateKey key = generate_key(rng);
  for (int i = 0; i < 20; ++i) {
    const Bytes msg = rng.bytes(1 + rng.uniform(64));
    const Signature sig = sign(key, BytesView(msg));
    EXPECT_TRUE(verify(key.pub, BytesView(msg), sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrSweep, ::testing::Range(1, 9));

// --- Batch verification ---

/// Reference implementation: the verdict batch_verify must reproduce.
std::ptrdiff_t sequential_first_invalid(const std::vector<BatchItem>& items) {
  for (std::size_t i = 0; i < items.size(); ++i)
    if (!verify(items[i].key, items[i].message, items[i].sig))
      return static_cast<std::ptrdiff_t>(i);
  return -1;
}

struct BatchFixture {
  std::vector<PrivateKey> keys;
  std::vector<Bytes> msgs;
  std::vector<BatchItem> items;

  explicit BatchFixture(std::size_t n, Rng& rng) {
    keys.reserve(n);
    msgs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(generate_key(rng));
      msgs.push_back(rng.bytes(1 + rng.uniform(48)));
    }
    // Two passes so msgs never reallocates under live views.
    for (std::size_t i = 0; i < n; ++i)
      items.push_back({keys[i].pub, BytesView(msgs[i]),
                       sign(keys[i], BytesView(msgs[i]))});
  }
};

TEST(SchnorrBatch, EmptyBatchAccepts) {
  Rng rng(11);
  EXPECT_TRUE(batch_verify({}, rng).ok());
}

TEST(SchnorrBatch, AllValidBatchesAccept) {
  Rng rng(12);
  for (std::size_t n : {1u, 2u, 4u, 7u, 8u, 33u, 100u}) {
    BatchFixture f(n, rng);
    const BatchResult res = batch_verify(f.items, rng);
    EXPECT_TRUE(res.ok()) << "n=" << n;
    EXPECT_EQ(res.first_invalid, -1);
  }
}

TEST(SchnorrBatch, IsolatesLowestFailingIndex) {
  Rng rng(13);
  // Corrupt several; the verdict must be the lowest index, matching the
  // sequential scan, for every batch size and corruption layout.
  for (std::size_t n : {5u, 16u, 64u, 128u}) {
    BatchFixture f(n, rng);
    std::vector<std::size_t> bad;
    for (std::size_t i = 0; i < n; ++i)
      if (rng.bernoulli(0.15)) bad.push_back(i);
    if (bad.empty()) bad.push_back(n / 2);
    for (std::size_t i : bad) f.items[i].sig.s ^= 1;
    const BatchResult res = batch_verify(f.items, rng);
    EXPECT_EQ(res.first_invalid, static_cast<std::ptrdiff_t>(bad.front()))
        << "n=" << n;
    EXPECT_EQ(res.first_invalid, sequential_first_invalid(f.items));
  }
}

TEST(SchnorrBatch, AgreesWithPerSigAcrossCorruptionModes) {
  Rng rng(14);
  // Every way a single item can be wrong: response/commitment flips,
  // wrong message, wrong key, out-of-range fields, degenerate values.
  const auto corruptions = std::vector<void (*)(BatchItem&, Rng&)>{
      [](BatchItem& it, Rng&) { it.sig.s ^= 1; },
      [](BatchItem& it, Rng&) { it.sig.r ^= 2; },
      [](BatchItem& it, Rng& r) { it.sig.s = r.next(); },
      [](BatchItem& it, Rng& r) { it.sig.r = r.next(); },
      [](BatchItem& it, Rng&) { it.sig.s = SchnorrGroup::q; },
      [](BatchItem& it, Rng&) { it.sig.r = 0; },
      [](BatchItem& it, Rng&) { it.sig.r = SchnorrGroup::p; },
      [](BatchItem& it, Rng&) { it.key.y = 0; },
      [](BatchItem& it, Rng&) { it.key.y = 1; },
      [](BatchItem& it, Rng& r) { it.key.y = r.next(); },
  };
  for (std::size_t mode = 0; mode < corruptions.size(); ++mode) {
    BatchFixture f(24, rng);
    const std::size_t victim = rng.uniform(f.items.size());
    corruptions[mode](f.items[victim], rng);
    const BatchResult res = batch_verify(f.items, rng);
    EXPECT_EQ(res.first_invalid, sequential_first_invalid(f.items))
        << "corruption mode " << mode << ", victim " << victim;
  }
}

TEST(SchnorrBatch, RejectsZ1CancellationForgery) {
  // The regression the random coefficients exist for: shift one response
  // up and another down by the same delta. Every naive z_i = 1 aggregate
  // is unchanged (the errors cancel in Σ s_i), yet both signatures are
  // individually invalid. batch_verify must reject and name index 0.
  Rng rng(15);
  BatchFixture f(8, rng);
  const std::uint64_t delta = 1 + rng.uniform(SchnorrGroup::q - 1);
  f.items[0].sig.s = (f.items[0].sig.s + delta) % SchnorrGroup::q;
  f.items[3].sig.s =
      (f.items[3].sig.s + SchnorrGroup::q - delta) % SchnorrGroup::q;
  ASSERT_FALSE(verify(f.items[0].key, f.items[0].message, f.items[0].sig));
  ASSERT_FALSE(verify(f.items[3].key, f.items[3].message, f.items[3].sig));

  // Demonstrate the cancellation really happens with unit coefficients:
  // g^(Σ s_i) · Π y_i^(e_i) · Π r_i^(-1) is the same group element before
  // and after the tamper, so a z_i = 1 scheme cannot see it. (We check the
  // invariant directly rather than re-deriving e_i: the two tampered s
  // values sum to the original total mod q.)
  // The real batch must still catch it:
  for (int round = 0; round < 8; ++round) {
    const BatchResult res = batch_verify(f.items, rng);
    EXPECT_EQ(res.first_invalid, 0) << "round " << round;
  }
}

TEST(SchnorrBatch, NegatedCommitmentRejected) {
  // The challenge binds the *transmitted* commitment bytes, so (p - r, s)
  // hashes to a fresh challenge and is invalid for the same message even
  // though r and p - r are the same quotient-group element. Batch and
  // sequential scans must both name index 5.
  Rng rng(16);
  BatchFixture f(12, rng);
  f.items[5].sig.r = SchnorrGroup::p - f.items[5].sig.r;  // -r mod p
  ASSERT_FALSE(verify(f.items[5].key, f.items[5].message, f.items[5].sig));
  for (int round = 0; round < 8; ++round) {
    const BatchResult res = batch_verify(f.items, rng);
    EXPECT_EQ(res.first_invalid, 5) << "round " << round;
  }
}

TEST(SchnorrBatch, NegatedKeyIsTheSameQuotientKey) {
  // y and p - y are one element of Z_p*/{±1}, so a signature valid under y
  // stays valid under p - y: with an even challenge g^s·(-y)^e lands on r
  // exactly, with an odd challenge it lands on p - r and exercises the ±
  // accept branch. Batch and per-sig must agree on accept for both
  // parities.
  Rng rng(17);
  bool saw_even = false;
  bool saw_odd = false;
  for (int attempt = 0; attempt < 64 && !(saw_even && saw_odd); ++attempt) {
    BatchFixture f(10, rng);
    BatchItem& it = f.items[7];
    it.key.y = SchnorrGroup::p - it.key.y;
    Sha256 chal_ctx;
    chal_ctx.update(BytesView(object_bytes(it.sig.r)));
    chal_ctx.update(it.message);
    const std::uint64_t e = chal_ctx.finalize().prefix_u64() % SchnorrGroup::q;
    ((e & 1) ? saw_odd : saw_even) = true;
    EXPECT_TRUE(verify(it.key, it.message, it.sig));
    const BatchResult res = batch_verify(f.items, rng);
    EXPECT_EQ(res.first_invalid, -1);
  }
  EXPECT_TRUE(saw_even) << "no even-challenge case hit in 64 attempts";
  EXPECT_TRUE(saw_odd) << "no odd-challenge case hit in 64 attempts";
}

TEST(SchnorrBatch, IdentityCosetKeyRejected) {
  // y ∈ {1, p-1} is the identity of the quotient group (the x = 0 key):
  // rejected structurally by verify and flagged at its index by the batch.
  Rng rng(18);
  BatchFixture f(8, rng);
  f.items[2].key.y = SchnorrGroup::p - 1;
  ASSERT_FALSE(verify(f.items[2].key, f.items[2].message, f.items[2].sig));
  const BatchResult res = batch_verify(f.items, rng);
  EXPECT_EQ(res.first_invalid, 2);
}

// --- ChaCha20 ---

TEST(ChaCha20, Rfc8439Vector) {
  // RFC 8439 §2.4.2 test vector.
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  ChaChaNonce nonce{};
  nonce[3] = 0x00;
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const Bytes ciphertext =
      chacha20_xor(key, nonce, str_bytes(plaintext), 1);
  EXPECT_EQ(mc::to_hex(BytesView(ciphertext.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
}

TEST(ChaCha20, XorIsInvolution) {
  Rng rng(3);
  const ChaChaKey key = key_from_hash(sha256("key"));
  const ChaChaNonce nonce = nonce_from_counter(7);
  const Bytes plaintext = rng.bytes(300);
  const Bytes ciphertext = chacha20_xor(key, nonce, BytesView(plaintext));
  EXPECT_NE(ciphertext, plaintext);
  EXPECT_EQ(chacha20_xor(key, nonce, BytesView(ciphertext)), plaintext);
}

TEST(ChaCha20, SealOpenRoundTrip) {
  const ChaChaKey key = key_from_hash(sha256("session"));
  const Bytes msg = to_bytes("encrypted EMR payload");
  const SealedBox box = seal(key, nonce_from_counter(1), BytesView(msg));
  const auto opened = open(key, box);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(ChaCha20, TamperedCiphertextRejected) {
  const ChaChaKey key = key_from_hash(sha256("session"));
  SealedBox box = seal(key, nonce_from_counter(2), str_bytes("records"));
  box.ciphertext[0] ^= 0x01;
  EXPECT_FALSE(open(key, box).has_value());
}

TEST(ChaCha20, WrongKeyRejected) {
  const ChaChaKey key = key_from_hash(sha256("right"));
  const SealedBox box = seal(key, nonce_from_counter(3), str_bytes("data"));
  EXPECT_FALSE(open(key_from_hash(sha256("wrong")), box).has_value());
}

}  // namespace
}  // namespace mc::crypto
