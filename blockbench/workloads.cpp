#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "vm/assembler.hpp"

namespace blockbench {

namespace mcc = mc::chain;

namespace {

// Per-patient record contract, the shape of bench_c8's C8c contract:
// selector 1 mixes calldata[2] for calldata[1] rounds (the "analysis"
// part of a record update) and folds the result into the patient's cell
// storage[H(7, calldata[3])]. The key is Param-classed; the symbolic
// summary concretizes it per tx, so only calls on one patient conflict.
constexpr const char* kPatientRecordSource = R"(
PUSH 0
CALLDATALOAD
PUSH 1
EQ
JUMPI @work
REVERT
work:
PUSH 2
CALLDATALOAD
PUSH 1
CALLDATALOAD
loop:
DUP 1
ISZERO
JUMPI @done
PUSH 1
SUB
SWAP 1
PUSH 48271
MUL
PUSH 11
ADD
DUP 1
PUSH 7
SHR
XOR
SWAP 1
JUMP @loop
done:
POP
PUSH 7
PUSH 3
CALLDATALOAD
HASHN 2
DUP 1
SLOAD
DUP 3
ADD
SWAP 1
SSTORE
POP
STOP
)";

// replay_patient's record update is bench_c8's C8c call: kMixRounds =
// 2000 rounds (~58 gas each, ~116k gas per call) under make_call's 500k
// gas limit, sized there so the interpreter work dwarfs per-tx scheduling
// overhead. On produce_clinic a record update is a plain write with no
// mixing, so the leader's own costs (admission checks, selection, the
// preview execution) are not buried under the VM.
constexpr mc::vm::Word kPatientRounds = 2'000;
constexpr mc::vm::Word kClinicRounds = 0;
constexpr mc::chain::Gas kCallGasLimit = 500'000;
constexpr mc::chain::Amount kFunding = 1'000'000'000'000'000ULL;
constexpr mc::chain::Gas kAnchorGasLimit = 20'000;
// Stated assumptions, not measured from a clinic: patient ids follow
// Zipf with s = 1 over Scale::patients ids (so hot patients collide
// inside a block), and the clinic stream is 50% payments, 35% record
// updates and 15% dataset anchors.
constexpr double kPatientSkew = 1.0;
constexpr double kClinicTransferShare = 0.50;
constexpr double kClinicRecordShare = 0.35;

mc::chain::Address derived_address(const std::string& label) {
  const mc::Hash256 h = mc::crypto::sha256(std::string_view(label));
  mc::chain::Address a;
  std::copy_n(h.data.begin(), a.data.size(), a.data.begin());
  return a;
}

mcc::Transaction make_anchor(const mc::crypto::PrivateKey& key,
                             const mc::Hash256& digest, std::uint64_t nonce) {
  mcc::Transaction tx;
  tx.kind = mcc::TxKind::Anchor;
  tx.nonce = nonce;
  tx.gas_limit = kAnchorGasLimit;
  tx.payload.assign(digest.data.begin(), digest.data.end());
  tx.sign_with(key);
  return tx;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::ReplayTransfer:
      return "replay_transfer";
    case Kind::ReplayPatient:
      return "replay_patient";
    case Kind::ProduceClinic:
      return "produce_clinic";
  }
  return "?";
}

bool parse_kind(const std::string& name, Kind& out) {
  for (const Kind k :
       {Kind::ReplayTransfer, Kind::ReplayPatient, Kind::ProduceClinic}) {
    if (name == kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

Scale Scale::full(Kind kind) {
  switch (kind) {
    case Kind::ReplayTransfer:
      // 16k funded accounts: the ledger map (~1.2 MB of nodes) plus the
      // digest's sorted copy and encoding (~1.2 MB) outgrow a 2 MB L2.
      return {.blocks = 100, .txs_per_block = 256, .senders = 4096,
              .accounts = 16384, .patients = 0};
    // Block sizes fit five set-ups and at least 15 passes into a 55 s run
    // on 4 vCPUs (a set-up runs the producer node, so it costs about two
    // passes). replay_patient: 24 C8c calls per block (C8c had 48).
    case Kind::ReplayPatient:
      return {.blocks = 100, .txs_per_block = 24, .senders = 1024,
              .accounts = 1024, .patients = 256};
    // 200 blocks, so its p90 rests on 20 blocks beyond it.
    case Kind::ProduceClinic:
      return {.blocks = 200, .txs_per_block = 64, .senders = 1024,
              .accounts = 4096, .patients = 256};
  }
  return {};
}

Scale Scale::tiny(Kind kind) {
  Scale s = full(kind);
  s.blocks = 4;
  s.txs_per_block = 24;
  s.senders = 32;
  s.accounts = std::min<std::size_t>(s.accounts, 64);
  s.patients = s.patients == 0 ? 0 : 8;
  return s;
}

PassNode::PassNode(const Workload& w, const NodeSetup& setup,
                   const mc::crypto::PrivateKey& key)
    : node(key, w.params, w.genesis, w.has_contracts ? &hook : nullptr) {
  node.set_validator(setup.validator);
  node.set_execution(setup.exec);
}

Workload make_workload(Kind kind, std::uint64_t seed, const Scale& scale,
                       const NodeSetup& setup) {
  Workload w;
  w.kind = kind;
  w.has_contracts = kind != Kind::ReplayTransfer;
  w.params.consensus = mcc::ConsensusKind::Pbft;
  w.params.max_block_txs = scale.txs_per_block;
  // Selection budgets by gas_limit; lift the cap so every batch fits.
  w.params.block_gas_limit = 1'000'000'000'000ULL;

  const std::string tag =
      std::string("blockbench/") + kind_name(kind) + "/" + std::to_string(seed);
  mc::Rng rng = mc::Rng(seed).fork(kind_name(kind));

  // Key derivation and genesis funding.
  std::vector<mc::crypto::PrivateKey> keys;
  keys.reserve(scale.senders);
  std::vector<mcc::Address> accounts;
  accounts.reserve(std::max(scale.accounts, scale.senders));
  for (std::size_t i = 0; i < scale.senders; ++i) {
    keys.push_back(mc::crypto::key_from_seed(tag + "/sender/" + std::to_string(i)));
    accounts.push_back(mc::crypto::address_of(keys.back().pub));
  }
  for (std::size_t i = scale.senders; i < scale.accounts; ++i)
    accounts.push_back(derived_address(tag + "/account/" + std::to_string(i)));
  w.params.premine.reserve(accounts.size());
  for (const mcc::Address& a : accounts) w.params.premine.emplace_back(a, kFunding);
  w.producer = mc::crypto::key_from_seed(tag + "/producer");
  w.genesis = mcc::make_genesis(tag, w.params.pow_target);

  PassNode producer(w, setup, w.producer);
  auto produce = [&](const std::vector<mcc::Transaction>& batch) {
    for (const mcc::Transaction& tx : batch)
      if (!producer.node.submit(tx))
        throw std::runtime_error("producer refused a generated transaction");
    const std::uint64_t time_ms = 1000 * (producer.node.height() + 1);
    mcc::Block block = producer.node.propose(time_ms);
    if (block.txs.size() != batch.size())
      throw std::runtime_error("producer left part of a batch unselected");
    if (producer.node.receive(block) != mcc::BlockVerdict::Accepted)
      throw std::runtime_error("producer rejected its own block");
    return block;
  };

  std::vector<std::uint64_t> nonces(scale.senders, 0);
  mc::vm::Word record_id = 0;
  mc::Bytes deploy_wire;
  if (w.has_contracts) {
    const mcc::Transaction deploy = mcc::make_deploy(
        keys[0], mc::vm::assemble(kPatientRecordSource), nonces[0]++);
    deploy_wire = produce({deploy}).encode();
    const auto id = producer.hook.contract_id_of(deploy.id());
    if (!id.has_value()) throw std::runtime_error("contract deploy failed");
    record_id = *id;
  }

  // Sign every batch up front (the leader path replays them verbatim).
  auto transfer = [&](std::size_t u) {
    const mcc::Address& to = accounts[rng.uniform(accounts.size())];
    return mcc::make_transfer(keys[u], to, 1 + rng.uniform(1000), nonces[u]++);
  };
  const mc::vm::Word rounds =
      kind == Kind::ProduceClinic ? kClinicRounds : kPatientRounds;
  auto record_update = [&](std::size_t u) {
    const mc::vm::Word patient = rng.zipf(scale.patients, kPatientSkew);
    return mcc::make_call(keys[u], record_id, {1, rounds, rng.next(), patient},
                          nonces[u]++, kCallGasLimit);
  };
  std::uint64_t anchors = 0;
  std::vector<std::vector<mcc::Transaction>> batches(scale.blocks);
  for (auto& batch : batches) {
    batch.reserve(scale.txs_per_block);
    for (std::size_t t = 0; t < scale.txs_per_block; ++t) {
      const std::size_t u = rng.uniform(scale.senders);
      switch (kind) {
        case Kind::ReplayTransfer:
          batch.push_back(transfer(u));
          break;
        case Kind::ReplayPatient:
          batch.push_back(record_update(u));
          break;
        case Kind::ProduceClinic: {
          // Clinic stream: payments, record updates, dataset anchors.
          const double r = rng.uniform01();
          if (r < kClinicTransferShare) {
            batch.push_back(transfer(u));
          } else if (r < kClinicTransferShare + kClinicRecordShare) {
            batch.push_back(record_update(u));
          } else {
            const mc::Hash256 digest = mc::crypto::sha256(std::string_view(
                tag + "/dataset/" + std::to_string(anchors++)));
            batch.push_back(make_anchor(keys[u], digest, nonces[u]++));
          }
          break;
        }
      }
    }
  }

  // Produce and wire-encode every block.
  std::vector<mc::Bytes> wire;
  wire.reserve(batches.size());
  for (const auto& batch : batches) {
    const mcc::Block block = produce(batch);
    wire.push_back(block.encode());
    w.times_ms.push_back(block.header.time_ms);
    w.total_txs += block.txs.size();
  }
  w.ref_tip = producer.node.tip();
  w.ref_root = producer.node.block(w.ref_tip)->header.state_root;

  // Pack the inputs into one buffer.
  const bool leader = kind == Kind::ProduceClinic;
  std::size_t total = deploy_wire.size();
  for (const mc::Bytes& b : wire) total += b.size();
  if (leader)
    for (const auto& batch : batches)
      for (const mcc::Transaction& tx : batch) total += tx.encoded_size();
  w.data.reserve(total);
  auto append = [&](const mc::Bytes& bytes) {
    const Workload::Range r{w.data.size(), bytes.size()};
    w.data.insert(w.data.end(), bytes.begin(), bytes.end());
    return r;
  };
  w.deploy = append(deploy_wire);
  for (const mc::Bytes& b : wire) w.blocks.push_back(append(b));
  if (leader) {
    w.batches.resize(batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i)
      for (const mcc::Transaction& tx : batches[i])
        w.batches[i].push_back(append(tx.encode()));
  }
  return w;
}

std::vector<mcc::Transaction> Workload::batch(std::size_t i) const {
  std::vector<mcc::Transaction> txs;
  txs.reserve(batches[i].size());
  for (const Range r : batches[i]) txs.push_back(mcc::Transaction::decode(bytes(r)));
  return txs;
}

}  // namespace blockbench
