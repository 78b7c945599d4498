// Ledger-digest oracle: WorldState::digest() against a deliberately naive
// reference that copies every (address, account) pair, sorts with
// Address's operator<, materializes the whole encoding with ByteWriter
// and hashes it with the portable scalar sha256 (so under the default
// backend every comparison is also SHA-NI against scalar wherever the
// host has SHA-NI). The reference shares no
// code with the optimized digest beyond WorldState's public accessors,
// so a wrong sort order, a dropped zero-balance account or a chunking
// bug in the streamed encoding shows up as a mismatch. One fixed state
// is also pinned to its hex digest, so the state commitment itself can
// never drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chain/state.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_batch.hpp"

namespace mc::chain {
namespace {

/// A WorldState plus the list of every address it was ever handed, so
/// the oracle can enumerate accounts through the public API.
struct Ledger {
  WorldState state;
  std::vector<Address> touched;

  void credit(const Address& a, Amount amount) {
    state.credit(a, amount);
    touched.push_back(a);
  }
  void set(const Address& a, const Account& acct) {
    state.set_account(a, acct);
    touched.push_back(a);
  }
};

std::vector<Address> distinct_addresses(const Ledger& ledger) {
  std::vector<Address> addrs = ledger.touched;
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  return addrs;
}

Hash256 naive_digest(const Ledger& ledger) {
  std::vector<std::pair<Address, Account>> pairs;
  for (const Address& a : distinct_addresses(ledger))
    pairs.emplace_back(a, ledger.state.account(a));
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  ByteWriter w;
  for (const auto& [addr, acct] : pairs) {
    w.raw(BytesView(addr.data));
    w.u64(acct.balance);
    w.u64(acct.nonce);
  }
  for (const AnchorRecord& anchor : ledger.state.anchors()) {
    w.raw(BytesView(anchor.owner.data));
    w.hash(anchor.digest);
    w.u64(anchor.height);
  }

  const crypto::HashBackend prev = crypto::hash_backend();
  crypto::set_hash_backend(crypto::HashBackend::kPortable);
  const Hash256 out = crypto::sha256(BytesView(w.data()));
  crypto::set_hash_backend(prev);
  return out;
}

void expect_oracle(const Ledger& ledger, const std::string& label) {
  ASSERT_EQ(ledger.state.account_count(), distinct_addresses(ledger).size())
      << label;
  EXPECT_EQ(ledger.state.digest(), naive_digest(ledger)) << label;
}

Address address_from(Rng& rng) {
  Address a;
  for (auto& b : a.data) b = static_cast<std::uint8_t>(rng.next());
  return a;
}

Hash256 hash_from(Rng& rng) {
  Hash256 h;
  for (auto& b : h.data) b = static_cast<std::uint8_t>(rng.next());
  return h;
}

TEST(LedgerDigest, EmptyStateMatchesOracle) {
  const Ledger ledger;
  expect_oracle(ledger, "empty");
  // Nothing encoded: the digest of the empty message.
  EXPECT_EQ(to_hex(ledger.state.digest()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(LedgerDigest, SharedEightBytePrefixOrdersOnTheTail) {
  // Every address shares bytes 0..18 and differs only in byte 19, so the
  // order is decided entirely past the first 8 bytes.
  Ledger ledger;
  Address base;
  for (std::size_t i = 0; i < base.data.size(); ++i)
    base.data[i] = static_cast<std::uint8_t>(0xA0 + i);
  for (const std::uint8_t last : {0xFFu, 0x00u, 0x7Fu, 0x80u, 0x01u, 0xFEu}) {
    Address a = base;
    a.data[19] = last;
    ledger.set(a, Account{1000u + last, last});
  }
  expect_oracle(ledger, "shared prefix, byte 19");

  // Prefix ties mixed with prefix differences, including a high-bit
  // first byte (big-endian prefix order must stay unsigned).
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    Address a = base;
    a.data[0] = static_cast<std::uint8_t>(rng.uniform(2) ? 0x01 : 0xF0);
    a.data[8 + rng.uniform(12)] = static_cast<std::uint8_t>(rng.next());
    ledger.set(a, Account{rng.uniform(1'000'000), rng.uniform(9)});
  }
  expect_oracle(ledger, "mixed prefix ties");
}

TEST(LedgerDigest, ZeroBalanceCreditsAreCommitted) {
  Ledger ledger;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) ledger.credit(address_from(rng), 0);
  ledger.credit(address_from(rng), 12345);
  expect_oracle(ledger, "credit(a, 0) materialized accounts");

  // The zero-balance accounts are part of the commitment: a state
  // without them differs.
  Ledger only_funded;
  only_funded.credit(ledger.touched.back(), 12345);
  EXPECT_NE(only_funded.state.digest(), ledger.state.digest());
}

TEST(LedgerDigest, AnchorsMatchOracle) {
  Ledger ledger;
  Rng rng(11);
  std::vector<Address> owners;
  for (int i = 0; i < 8; ++i) {
    owners.push_back(address_from(rng));
    ledger.credit(owners.back(), 1'000'000 + static_cast<Amount>(i));
  }
  for (Height h = 0; h < 300; ++h)
    ledger.state.record_anchor(owners[rng.uniform(owners.size())],
                               hash_from(rng), h);
  expect_oracle(ledger, "anchors");

  Ledger anchors_only;
  anchors_only.state.record_anchor(owners[0], hash_from(rng), 7);
  expect_oracle(anchors_only, "anchors without accounts");
}

TEST(LedgerDigest, BenchScaleLedgerMatchesOracle) {
  // The produce_clinic shape: 4,097 accounts, then 2,000 anchors. The
  // encoding spans many stream chunks, so chunk seams are exercised.
  Ledger ledger;
  Rng rng(4097);
  for (int i = 0; i < 4097; ++i)
    ledger.set(address_from(rng),
               Account{rng.uniform(1ULL << 40), rng.uniform(1000)});
  expect_oracle(ledger, "4097 accounts");
  for (Height h = 0; h < 2000; ++h)
    ledger.state.record_anchor(ledger.touched[rng.uniform(4097)],
                               hash_from(rng), h);
  expect_oracle(ledger, "4097 accounts + 2000 anchors");
}

TEST(LedgerDigest, PinnedFixedStateDigest) {
  // A fixed state: 64 accounts from a seeded stream, three of them
  // sharing an 8-byte prefix, one zero-balance credit and five anchors.
  Ledger ledger;
  Rng rng(2018);
  for (int i = 0; i < 64; ++i)
    ledger.set(address_from(rng),
               Account{static_cast<Amount>(1000 * i + 7),
                       static_cast<std::uint64_t>(i % 5)});
  Address twin = ledger.touched[0];
  for (const std::uint8_t tail : {0x00u, 0x55u, 0xFFu}) {
    twin.data[19] = tail;
    ledger.set(twin, Account{tail, 1});
  }
  ledger.credit(address_from(rng), 0);
  for (Height h = 1; h <= 5; ++h)
    ledger.state.record_anchor(ledger.touched[h], hash_from(rng), h);

  expect_oracle(ledger, "pinned state");
  EXPECT_EQ(to_hex(ledger.state.digest()), "85591110a2f1e517da5b37ca677fe9bb9f843d74ce5d03e7272bd4bbdc8a0e05");
}

}  // namespace
}  // namespace mc::chain
