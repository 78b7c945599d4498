#include "chain/state.hpp"

#include <algorithm>
#include <cstring>

#include "audit/check.hpp"
#include "crypto/sha256.hpp"

namespace mc::chain {

namespace {

/// Ledger-generic validate/apply: `Ledger` is WorldState (direct, the
/// sequential path) or StateOverlay (buffered, the speculative path). One
/// implementation keeps the two paths semantically identical by
/// construction — the determinism argument of DESIGN.md §13 leans on it.
template <typename Ledger>
ApplyResult validate_on(const Ledger& ledger, const Transaction& tx,
                        const ChainParams& params, bool assume_sig_valid) {
  if (!assume_sig_valid && !tx.verify_signature())
    return {false, 0, "bad signature"};
  const Account acct = ledger.account(tx.from);
  if (tx.nonce != acct.nonce) return {false, 0, "bad nonce"};
  if (tx.gas_limit < params.transfer_gas && tx.kind == TxKind::Transfer)
    return {false, 0, "gas limit below intrinsic cost"};
  const Amount max_fee = tx.gas_limit * tx.gas_price;
  if (acct.balance < tx.amount + max_fee)
    return {false, 0, "insufficient balance"};
  if (tx.kind == TxKind::Anchor && tx.payload.size() != 32)
    return {false, 0, "anchor payload must be a 32-byte digest"};
  return {true, 0, ""};
}

template <typename Ledger>
ApplyResult apply_on(Ledger& ledger, const Transaction& tx,
                     const Address& proposer, const ChainParams& params,
                     Gas execution_gas, bool credit_recipient,
                     bool assume_sig_valid) {
  ApplyResult check = validate_on(ledger, tx, params, assume_sig_valid);
  if (!check.ok) return check;

  Gas gas = execution_gas;
  switch (tx.kind) {
    case TxKind::Transfer:
      gas += params.transfer_gas;
      break;
    case TxKind::Anchor:
      gas += params.transfer_gas / 2 + 8 * tx.payload.size();
      break;
    case TxKind::Deploy:
    case TxKind::Call:
      gas += params.transfer_gas;  // intrinsic cost on top of VM gas
      break;
  }
  if (gas > tx.gas_limit) return {false, 0, "out of gas"};

  const Amount fee = gas * tx.gas_price;
  Account from = ledger.account(tx.from);
  if (from.balance < tx.amount + fee)
    return {false, 0, "insufficient balance for fee"};

  MC_DCHECK(gas <= tx.gas_limit, "charging more gas than the tx limit");
  MC_DCHECK(from.nonce == tx.nonce,
            "apply reached past validate with a mismatched nonce");
  from.balance -= tx.amount + fee;
  from.nonce += 1;
  ledger.set_account(tx.from, from);
  if (tx.kind == TxKind::Transfer && credit_recipient)
    ledger.credit(tx.to, tx.amount);
  ledger.credit(proposer, fee);
  return {true, gas, ""};
}

}  // namespace

Account WorldState::account(const Address& a) const {
  auto it = accounts_.find(a);
  return it == accounts_.end() ? Account{} : it->second;
}

void WorldState::credit(const Address& a, Amount amount) {
  accounts_[a].balance += amount;
}

void WorldState::set_account(const Address& a, const Account& acct) {
  accounts_[a] = acct;
}

ApplyResult WorldState::validate(const Transaction& tx,
                                 const ChainParams& params,
                                 bool assume_sig_valid) const {
  return validate_on(*this, tx, params, assume_sig_valid);
}

ApplyResult WorldState::apply(const Transaction& tx, const Address& proposer,
                              const ChainParams& params, Gas execution_gas,
                              bool credit_recipient, bool assume_sig_valid) {
  return apply_on(*this, tx, proposer, params, execution_gas, credit_recipient,
                  assume_sig_valid);
}

bool WorldState::reflects(const StateOverlay& delta) const {
  return std::all_of(
      delta.observed_.begin(), delta.observed_.end(),
      [this](const auto& kv) { return account(kv.first) == kv.second; });
}

void WorldState::commit(const StateOverlay& delta) {
  MC_DCHECK(delta.base_ == this,
            "committing an overlay built over a different base state");
  // Unordered iteration is safe here: writes target distinct keys with
  // absolute values, credits are commutative adds, anchors are a vector.
  for (const auto& [addr, acct] : delta.written_) accounts_[addr] = acct;
  for (const auto& [addr, amount] : delta.credited_)
    accounts_[addr].balance += amount;
  for (const AnchorRecord& r : delta.anchors_) anchors_.push_back(r);
}

Account StateOverlay::account(const Address& a) const {
  auto w = written_.find(a);
  if (w != written_.end()) return w->second;
  Account acct = base_->account(a);
  observed_.emplace(a, acct);  // first read wins; commit re-checks it
  auto c = credited_.find(a);
  if (c != credited_.end()) acct.balance += c->second;
  return acct;
}

void StateOverlay::set_account(const Address& a, const Account& acct) {
  written_[a] = acct;
  // Any prior blind credit is already folded into the absolute value the
  // caller derived from account(); keeping it would double-count.
  credited_.erase(a);
}

void StateOverlay::credit(const Address& a, Amount amount) {
  auto w = written_.find(a);
  if (w != written_.end()) {
    w->second.balance += amount;
    return;
  }
  credited_[a] += amount;  // entry materializes even when amount == 0
}

ApplyResult StateOverlay::validate(const Transaction& tx,
                                   const ChainParams& params,
                                   bool assume_sig_valid) const {
  return validate_on(*this, tx, params, assume_sig_valid);
}

ApplyResult StateOverlay::apply(const Transaction& tx, const Address& proposer,
                                const ChainParams& params, Gas execution_gas,
                                bool credit_recipient, bool assume_sig_valid) {
  return apply_on(*this, tx, proposer, params, execution_gas, credit_recipient,
                  assume_sig_valid);
}

void StateOverlay::record_anchor(const Address& owner, const Hash256& digest,
                                 Height height) {
  anchors_.push_back(AnchorRecord{owner, digest, height});
}

bool WorldState::anchored(const Address& owner, const Hash256& digest) const {
  return std::any_of(anchors_.begin(), anchors_.end(),
                     [&](const AnchorRecord& r) {
                       return r.owner == owner && r.digest == digest;
                     });
}

void WorldState::record_anchor(const Address& owner, const Hash256& digest,
                               Height height) {
  anchors_.push_back(AnchorRecord{owner, digest, height});
}

Hash256 WorldState::digest() const {
  // Canonical order: accounts ascending by address. Sort 16-byte keys
  // (big-endian first 8 address bytes + entry pointer) instead of copied
  // (Address, Account) pairs; equal prefixes fall back to the remaining
  // 12 bytes, so the order is exactly Address's byte-wise <=>.
  using Entry = std::unordered_map<Address, Account>::value_type;
  struct Key {
    std::uint64_t prefix;
    const Entry* entry;
  };
  std::vector<Key> keys;
  keys.reserve(accounts_.size());
  for (const Entry& e : accounts_) {
    std::uint64_t prefix = 0;
    for (int i = 0; i < 8; ++i)
      prefix = (prefix << 8) | e.first.data[static_cast<std::size_t>(i)];
    keys.push_back(Key{prefix, &e});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return std::memcmp(a.entry->first.data.data() + 8,
                       b.entry->first.data.data() + 8, 12) < 0;
  });

  // Stream the encoding (address || balance || nonce per account, then
  // owner || digest || height per anchor, integers little-endian) into
  // one hash through a fixed stack chunk.
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kMaxRecord = 20 + 32 + 8;
  std::uint8_t chunk[kChunk];
  std::size_t used = 0;
  crypto::Sha256 ctx;
  const auto room_for_record = [&] {
    if (used + kMaxRecord <= kChunk) return;
    ctx.update(BytesView(chunk, used));
    used = 0;
  };
  for (const Key& k : keys) {
    room_for_record();
    std::uint8_t* p = chunk + used;
    std::memcpy(p, k.entry->first.data.data(), 20);
    store_le(p + 20, k.entry->second.balance);
    store_le(p + 28, k.entry->second.nonce);
    used += 36;
  }
  for (const AnchorRecord& anchor : anchors_) {
    room_for_record();
    std::uint8_t* p = chunk + used;
    std::memcpy(p, anchor.owner.data.data(), 20);
    std::memcpy(p + 20, anchor.digest.data.data(), 32);
    store_le(p + 52, anchor.height);
    used += 60;
  }
  ctx.update(BytesView(chunk, used));
  return ctx.finalize();
}

}  // namespace mc::chain
