// Micro-benchmarks: crypto substrate hot paths (google-benchmark).
#include <benchmark/benchmark.h>

#include "chain/block.hpp"
#include "chain/block_validator.hpp"
#include "chain/state.hpp"
#include "chain/transaction.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "chain/pow.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_batch.hpp"

namespace {

using namespace mc;
using namespace mc::crypto;

/// Pin a backend for the duration of one benchmark run.
struct BenchBackend {
  explicit BenchBackend(HashBackend b) : prev(hash_backend()) {
    set_hash_backend(b);
  }
  ~BenchBackend() { set_hash_backend(prev); }
  HashBackend prev;
};

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(sha256(BytesView(data)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha256d(benchmark::State& state) {
  Rng rng(2);
  const Bytes data = rng.bytes(80);  // block-header sized
  for (auto _ : state) benchmark::DoNotOptimize(sha256d(BytesView(data)));
}
BENCHMARK(BM_Sha256d);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(3);
  const Bytes key = rng.bytes(32);
  const Bytes data = rng.bytes(512);
  for (auto _ : state)
    benchmark::DoNotOptimize(hmac_sha256(BytesView(key), BytesView(data)));
}
BENCHMARK(BM_HmacSha256);

void BM_MerkleBuild(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < state.range(0); ++i)
    leaves.push_back(sha256(std::to_string(i)));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(64)->Arg(1024)->Arg(8192);

// Ledger state commitment (WorldState::digest) at the produce_clinic
// shape: 4,097 accounts, args = anchor count. Runs on whichever
// single-stream kernel the process backend selects, so the forced-
// portable run is the scalar row and the default run the native one.
void BM_LedgerDigest(benchmark::State& state) {
  Rng rng(4097);
  chain::WorldState ledger;
  std::vector<Address> owners;
  for (int i = 0; i < 4097; ++i) {
    Address a;
    for (auto& b : a.data) b = static_cast<std::uint8_t>(rng.next());
    ledger.set_account(a, chain::Account{rng.uniform(1ULL << 40),
                                         rng.uniform(1000)});
    owners.push_back(a);
  }
  for (std::int64_t h = 0; h < state.range(0); ++h) {
    Hash256 d;
    for (auto& b : d.data) b = static_cast<std::uint8_t>(rng.next());
    ledger.record_anchor(owners[rng.uniform(owners.size())], d,
                         static_cast<chain::Height>(h));
  }
  for (auto _ : state) benchmark::DoNotOptimize(ledger.digest());
  state.SetLabel(stream_kernel_name());
}
BENCHMARK(BM_LedgerDigest)->Arg(0)->Arg(2000)->Unit(benchmark::kMicrosecond);

// --- Multi-lane batch engine A/B (DESIGN.md §15, EXPERIMENTS.md C10) ---
//
// Identical work per iteration; only the forced backend differs, so the
// ratio between the Portable and SIMD rows is the kernel speedup.

void sha256_many_ab(benchmark::State& state, HashBackend backend) {
  const BenchBackend scope(backend);
  Rng rng(21);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t len = static_cast<std::size_t>(state.range(1));
  std::vector<Bytes> inputs;
  std::vector<BytesView> views;
  for (std::size_t i = 0; i < n; ++i) inputs.push_back(rng.bytes(len));
  for (const Bytes& b : inputs) views.emplace_back(b);
  std::vector<Hash256> out(n);
  for (auto _ : state) {
    sha256_many(views.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n) *
                          static_cast<std::int64_t>(len));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
}

// Batch-size sweep at a fixed 256-byte message: the small-batch end
// (1/2/4/8) locates the SIMD crossover, the large end the steady state.
void BM_Sha256ManyPortable(benchmark::State& state) {
  sha256_many_ab(state, HashBackend::kPortable);
}
void BM_Sha256ManySse2(benchmark::State& state) {
  sha256_many_ab(state, HashBackend::kSse2);
}
void BM_Sha256ManyAvx2(benchmark::State& state) {
  sha256_many_ab(state, HashBackend::kAvx2);
}
#define MC_MANY_ARGS                                                    \
  ->Args({1, 256})->Args({2, 256})->Args({4, 256})->Args({8, 256})      \
      ->Args({64, 256})->Args({1024, 256})->Args({1024, 32})
BENCHMARK(BM_Sha256ManyPortable) MC_MANY_ARGS;
BENCHMARK(BM_Sha256ManySse2) MC_MANY_ARGS;
BENCHMARK(BM_Sha256ManyAvx2) MC_MANY_ARGS;
#undef MC_MANY_ARGS

// Lanes-vs-throughput: the same pair-hash workload forced through the
// 1-, 4- and 8-lane kernels.
void pair_many_ab(benchmark::State& state, HashBackend backend) {
  const BenchBackend scope(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Hash256> left(n), right(n), out(n);
  for (std::size_t i = 0; i < n; ++i) {
    left[i] = sha256(std::to_string(i));
    right[i] = sha256(std::to_string(~i));
  }
  for (auto _ : state) {
    sha256_pair_many(left.data(), right.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
}
void BM_Sha256PairManyPortable(benchmark::State& state) {
  pair_many_ab(state, HashBackend::kPortable);
}
void BM_Sha256PairManySse2(benchmark::State& state) {
  pair_many_ab(state, HashBackend::kSse2);
}
void BM_Sha256PairManyAvx2(benchmark::State& state) {
  pair_many_ab(state, HashBackend::kAvx2);
}
BENCHMARK(BM_Sha256PairManyPortable)->Arg(4096);
BENCHMARK(BM_Sha256PairManySse2)->Arg(4096);
BENCHMARK(BM_Sha256PairManyAvx2)->Arg(4096);

void merkle_build_ab(benchmark::State& state, HashBackend backend) {
  const BenchBackend scope(backend);
  std::vector<Hash256> leaves;
  for (int i = 0; i < state.range(0); ++i)
    leaves.push_back(sha256(std::to_string(i)));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
void BM_MerkleBuildPortable(benchmark::State& state) {
  merkle_build_ab(state, HashBackend::kPortable);
}
void BM_MerkleBuildSimd(benchmark::State& state) {
  merkle_build_ab(state, HashBackend::kSimd);
}
BENCHMARK(BM_MerkleBuildPortable)->Arg(64)->Arg(1024)->Arg(8192);
BENCHMARK(BM_MerkleBuildSimd)->Arg(64)->Arg(1024)->Arg(8192);

// PoW probe: a fixed-budget grind at an impossible target, so every
// iteration performs exactly `range(0)` double-hash attempts through the
// midstate + lane sweep.
void pow_probe_ab(benchmark::State& state, HashBackend backend) {
  const BenchBackend scope(backend);
  chain::BlockHeader header;
  header.target = 1;  // never met: the full budget is always spent
  std::uint64_t start = 0;
  for (auto _ : state) {
    const chain::MineResult result = chain::mine(
        header, static_cast<std::uint64_t>(state.range(0)), start);
    benchmark::DoNotOptimize(result.attempts);
    start += static_cast<std::uint64_t>(state.range(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
void BM_PowProbePortable(benchmark::State& state) {
  pow_probe_ab(state, HashBackend::kPortable);
}
void BM_PowProbeSimd(benchmark::State& state) {
  pow_probe_ab(state, HashBackend::kSimd);
}
BENCHMARK(BM_PowProbePortable)->Arg(4096);
BENCHMARK(BM_PowProbeSimd)->Arg(4096);

// Anchoring A/B: cost of ONE appended leaf when the digest comes from a
// full tree rebuild (BM_MerkleRebuildAppend, the old SiteDataset path)
// versus the incremental frontier (BM_MerkleFrontierAppend, O(log n)).
void BM_MerkleRebuildAppend(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < state.range(0); ++i)
    leaves.push_back(sha256(std::to_string(i)));
  std::size_t next = leaves.size();
  for (auto _ : state) {
    leaves.push_back(sha256(std::to_string(next++)));
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
    leaves.pop_back();  // keep n fixed across iterations
  }
}
BENCHMARK(BM_MerkleRebuildAppend)->Arg(64)->Arg(1024)->Arg(8192);

void BM_MerkleFrontierAppend(benchmark::State& state) {
  MerkleFrontier frontier;
  for (int i = 0; i < state.range(0); ++i)
    frontier.append(sha256(std::to_string(i)));
  std::size_t next = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    frontier.append(sha256(std::to_string(next++)));
    benchmark::DoNotOptimize(frontier.root());
  }
}
BENCHMARK(BM_MerkleFrontierAppend)->Arg(64)->Arg(1024)->Arg(8192);

void BM_MerkleProveVerify(benchmark::State& state) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < 4096; ++i) leaves.push_back(sha256(std::to_string(i)));
  const MerkleTree tree(leaves);
  std::size_t index = 0;
  for (auto _ : state) {
    const auto proof = tree.prove(index % 4096);
    benchmark::DoNotOptimize(
        MerkleTree::verify(leaves[index % 4096], index % 4096, proof,
                           tree.root()));
    ++index;
  }
}
BENCHMARK(BM_MerkleProveVerify);

void BM_SchnorrSign(benchmark::State& state) {
  const PrivateKey key = key_from_seed("bench");
  const Bytes msg = to_bytes("a medical transaction payload");
  for (auto _ : state)
    benchmark::DoNotOptimize(sign(key, BytesView(msg)));
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const PrivateKey key = key_from_seed("bench");
  const Bytes msg = to_bytes("a medical transaction payload");
  const Signature sig = sign(key, BytesView(msg));
  for (auto _ : state)
    benchmark::DoNotOptimize(verify(key.pub, BytesView(msg), sig));
}
BENCHMARK(BM_SchnorrVerify);

struct BatchBench {
  std::vector<PrivateKey> keys;
  std::vector<Bytes> msgs;
  std::vector<BatchItem> items;

  explicit BatchBench(std::size_t n) {
    Rng rng(0xba7c4);
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(generate_key(rng));
      msgs.push_back(rng.bytes(40));
    }
    for (std::size_t i = 0; i < n; ++i)
      items.push_back({keys[i].pub, BytesView(msgs[i]),
                       sign(keys[i], BytesView(msgs[i]))});
  }
};

void BM_SchnorrVerifyN(benchmark::State& state) {
  // Baseline: N independent per-sig verifications (what batching replaces).
  const BatchBench b(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bool ok = true;
    for (const BatchItem& it : b.items)
      ok &= verify(it.key, it.message, it.sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SchnorrVerifyN)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_SchnorrBatchVerify(benchmark::State& state) {
  // One aggregated random-linear-combination check over the same N.
  const BatchBench b(static_cast<std::size_t>(state.range(0)));
  Rng rng(0x5a17);
  for (auto _ : state)
    benchmark::DoNotOptimize(batch_verify(b.items, rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SchnorrBatchVerify)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_ChaCha20Seal(benchmark::State& state) {
  Rng rng(4);
  const ChaChaKey key = key_from_hash(sha256("k"));
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  std::uint64_t counter = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        seal(key, nonce_from_counter(counter++), BytesView(data)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Seal)->Arg(1024)->Arg(65536);

chain::Block make_bench_block(std::size_t txs) {
  const PrivateKey sender = key_from_seed("bench-block-sender");
  const Address to = address_of(key_from_seed("bench-block-recipient").pub);
  chain::Block block;
  for (std::size_t i = 0; i < txs; ++i)
    block.txs.push_back(chain::make_transfer(sender, to, 1, i));
  block.header.tx_root = block.compute_tx_root();
  return block;
}

void BM_TxIdCold(benchmark::State& state) {
  // Mutate the nonce every iteration so the fingerprint misses and the
  // full streamed double-SHA-256 runs (the pre-memoization cost).
  chain::Transaction tx =
      chain::make_transfer(key_from_seed("bench-txid"), Address{}, 1, 0);
  for (auto _ : state) {
    ++tx.nonce;
    benchmark::DoNotOptimize(tx.id());
  }
}
BENCHMARK(BM_TxIdCold);

void BM_TxIdWarm(benchmark::State& state) {
  // Cache hit: one FNV pass over the encoding, no SHA-256.
  const chain::Transaction tx =
      chain::make_transfer(key_from_seed("bench-txid"), Address{}, 1, 0);
  for (auto _ : state) benchmark::DoNotOptimize(tx.id());
}
BENCHMARK(BM_TxIdWarm);

void BM_TxWireSize(benchmark::State& state) {
  const chain::Transaction tx =
      chain::make_transfer(key_from_seed("bench-txid"), Address{}, 1, 0);
  for (auto _ : state) benchmark::DoNotOptimize(tx.wire_size());
}
BENCHMARK(BM_TxWireSize);

void BM_BlockValidateSeq(benchmark::State& state) {
  // No pool, batch verification on (the default).
  const chain::Block block =
      make_bench_block(static_cast<std::size_t>(state.range(0)));
  const chain::BlockValidator validator;
  for (auto _ : state) benchmark::DoNotOptimize(validator.validate(block));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BlockValidateSeq)->Arg(64)->Arg(512);

void BM_BlockValidateSeqPerTx(benchmark::State& state) {
  // No pool, batching off: the pre-batch per-tx verify path.
  const chain::Block block =
      make_bench_block(static_cast<std::size_t>(state.range(0)));
  const chain::BlockValidator validator(nullptr, 8, /*batch_verify=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(validator.validate(block));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BlockValidateSeqPerTx)->Arg(64)->Arg(512);

void BM_BlockValidatePool(benchmark::State& state) {
  const chain::Block block =
      make_bench_block(static_cast<std::size_t>(state.range(0)));
  ThreadPool pool;
  const chain::BlockValidator validator(&pool);
  for (auto _ : state) benchmark::DoNotOptimize(validator.validate(block));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BlockValidatePool)->Arg(64)->Arg(512);

void BM_BlockValidatePoolPerTx(benchmark::State& state) {
  const chain::Block block =
      make_bench_block(static_cast<std::size_t>(state.range(0)));
  ThreadPool pool;
  const chain::BlockValidator validator(&pool, 8, /*batch_verify=*/false);
  for (auto _ : state) benchmark::DoNotOptimize(validator.validate(block));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BlockValidatePoolPerTx)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
