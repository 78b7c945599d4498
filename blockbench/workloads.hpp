// Seeded workload generation for the block-lifecycle benchmark.
//
// A workload is everything a run needs before its timed loop: keys, the
// funded genesis, a contract deployment, pre-signed transactions and the
// wire bytes of every block. Generation drives a real producer
// chain::Node (submit → propose → receive), so the blocks carry honest
// state roots, and the producer's final tip id and state root become the
// reference every timed pass is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/block.hpp"
#include "chain/block_validator.hpp"
#include "chain/execution/executor.hpp"
#include "chain/node.hpp"
#include "chain/vm_hook.hpp"
#include "common/thread_pool.hpp"

namespace blockbench {

enum class Kind { ReplayTransfer, ReplayPatient, ProduceClinic };

/// Name as given on the command line ("replay_transfer", ...).
[[nodiscard]] const char* kind_name(Kind kind);
/// Parse a workload name; false when unknown.
[[nodiscard]] bool parse_kind(const std::string& name, Kind& out);

/// Size knobs. `full()` is what a measured run uses; `tiny()` keeps the
/// self-test fast.
struct Scale {
  std::size_t blocks = 0;
  std::size_t txs_per_block = 0;
  std::size_t senders = 0;   ///< keyed, funded accounts that sign txs
  std::size_t accounts = 0;  ///< funded accounts in genesis (>= senders)
  std::size_t patients = 0;  ///< Zipf-skewed record ids (contract workloads)

  [[nodiscard]] static Scale full(Kind kind);
  [[nodiscard]] static Scale tiny(Kind kind);
};

/// Validator and executor configuration shared by every node of a pass.
/// A null pool/validator with default `exec` is the sequential reference.
struct NodeSetup {
  const mc::chain::BlockValidator* validator = nullptr;
  mc::chain::exec::ExecutionConfig exec;
};

struct Workload {
  /// A slice of `data`.
  struct Range {
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  Kind kind = Kind::ReplayTransfer;
  mc::chain::ChainParams params;
  mc::chain::Block genesis;
  mc::crypto::PrivateKey producer;
  bool has_contracts = false;

  /// Every long-lived input in one buffer: the wire bytes of each block
  /// and, for the leader path, each pre-signed transaction. One
  /// allocation leaves no set-up garbage interleaved with the inputs, so
  /// a pass's resident-set growth does not depend on heap holes.
  mc::Bytes data;
  /// Contract deployment block (height 1); empty for replay_transfer.
  Range deploy;
  /// Every block after the deployment, as produced.
  std::vector<Range> blocks;
  /// Pre-signed transaction batch per block (produce_clinic only).
  std::vector<std::vector<Range>> batches;
  /// Block timestamps the producer used (the leader path reuses them).
  std::vector<std::uint64_t> times_ms;

  /// Reference outcome of the producer node.
  mc::chain::BlockId ref_tip{};
  mc::Hash256 ref_root{};
  std::size_t total_txs = 0;  ///< txs over `blocks` (deployment excluded)

  [[nodiscard]] mc::BytesView bytes(Range r) const {
    return mc::BytesView(data).subspan(r.offset, r.size);
  }
  /// Decode block `i`'s batch (the leader submits these).
  [[nodiscard]] std::vector<mc::chain::Transaction> batch(std::size_t i) const;
};

/// Generate `kind` from `seed`. Throws std::runtime_error when the
/// producer refuses a transaction or a block.
[[nodiscard]] Workload make_workload(Kind kind, std::uint64_t seed,
                                     const Scale& scale,
                                     const NodeSetup& setup);

/// A fresh node for `w`, wired to `setup`; owns the contract store and
/// hook the node executes through when the workload has contracts.
struct PassNode {
  PassNode(const Workload& w, const NodeSetup& setup,
           const mc::crypto::PrivateKey& key);
  PassNode(const PassNode&) = delete;
  PassNode& operator=(const PassNode&) = delete;

  mc::vm::ContractStore store;
  mc::chain::VmExecutionHook hook{store};
  mc::chain::Node node;
};

}  // namespace blockbench
