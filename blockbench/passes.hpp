// Timed and traced passes over one generated workload.
//
// A *node pass* is the measured unit: a fresh chain::Node takes every
// block of the workload through its public surface — Block::decode +
// Node::receive on the replay workloads, Node::submit × batch +
// Node::propose + Node::receive on produce_clinic — and must finish on
// the reference tip and state root.
//
// A *staged pass* is the traced counterpart for the per-layer numbers.
// It drives, stage by stage and in Node::receive's order, the same public
// calls the node makes (Block::decode, BlockValidator::validate, the
// WorldState copy, BlockExecutor::execute_block, WorldState::digest,
// VmExecutionHook::state_digest, block storage) with a clock read between
// stages, and checks the same state root. A *leader pass* does the same
// for produce_clinic's submit/propose/receive. Tracing lives in these
// files only; nothing inside src/ is instrumented.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace blockbench {

/// Counts that must repeat bit-for-bit across passes and runs of one seed.
struct ExactCounts {
  std::uint64_t txs = 0;
  std::uint64_t blocks = 0;
  /// BlockExecMetrics deltas over the pass.
  std::uint64_t waves = 0;
  std::uint64_t aborts = 0;
  std::uint64_t reruns = 0;
  std::uint64_t parallel_txs = 0;
  std::uint64_t sequential_txs = 0;
  std::uint64_t dag_edges = 0;
  std::uint64_t critical_ticks = 0;
  std::uint64_t sha256 = 0;  ///< crypto::Sha256::digest_count delta
  std::uint64_t sigs = 0;    ///< NodeCounters::sig_verifications delta

  friend bool operator==(const ExactCounts&, const ExactCounts&) = default;

  /// Executor view of the deltas (wave width, ideal speedup).
  [[nodiscard]] mc::chain::exec::BlockExecMetrics exec() const;
};

struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;  ///< first few, for the report

  void fail(std::string message);
  void merge(const Failures& other);
};

struct NodePassResult {
  double seconds = 0;  ///< wall time of the timed loop
  std::uint64_t txs = 0;
  std::vector<double> block_ms;
  double rss_growth_mb = 0;
  /// Host CPU steal during the timed loop, CPU-seconds per second.
  double steal_rate = 0;
  ExactCounts counts;
  Failures failures;
};

/// One node pass; `follower` keys the replay node (the leader path uses
/// the workload's producer key so its blocks reproduce the reference).
[[nodiscard]] NodePassResult run_node_pass(
    const Workload& w, const NodeSetup& setup,
    const mc::crypto::PrivateKey& follower);

/// CPU time the hypervisor ran other guests on this machine's CPUs while
/// this guest wanted them, summed over CPUs since boot (/proc/stat), in
/// seconds; 0 where the kernel does not report it.
[[nodiscard]] double host_steal_seconds();

/// Stages of the staged follower, in Node::receive order.
enum Stage : std::size_t {
  kDecode,          ///< Block::decode
  kLink,            ///< block id, duplicate/parent/height checks
  kValidate,        ///< BlockValidator::validate
  kStateCopy,       ///< WorldState copy (the node's next-state scratch)
  kExecute,         ///< BlockExecutor::execute_block
  kLedgerDigest,    ///< WorldState::digest
  kContractDigest,  ///< VmExecutionHook::state_digest
  kStore,           ///< root check, block storage, receipt index, swap
  kStageCount,
};

struct StagedPassResult {
  std::array<double, kStageCount> stage_ms{};
  double block_ms = 0;     ///< sum of whole-block times
  double txroot_ms = 0;    ///< probe: BlockValidator::compute_tx_root
  double plan_ms = 0;      ///< probe: FootprintProvider::footprint + build_tx_dag
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
  std::uint64_t vm_gas = 0;  ///< VM gas of Deploy/Call receipts
  std::uint64_t accounts = 0;
  ExactCounts counts;        ///< executor counts only
  Failures failures;
};

/// Staged replay of the workload's wire blocks; `probes` adds the
/// out-of-sum probe calls.
[[nodiscard]] StagedPassResult run_staged_pass(const Workload& w,
                                               const NodeSetup& setup,
                                               bool probes);

struct LeaderPassResult {
  double submit_ms = 0;
  double select_ms = 0;  ///< probe: Mempool::select on the pending batch
  double propose_ms = 0;
  double receive_ms = 0;
  double block_ms = 0;
  std::uint64_t submits = 0;
  std::uint64_t blocks = 0;
  Failures failures;
};

/// Traced leader path (produce_clinic).
[[nodiscard]] LeaderPassResult run_leader_pass(const Workload& w,
                                               const NodeSetup& setup);

}  // namespace blockbench
