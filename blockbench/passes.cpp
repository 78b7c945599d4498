#include "passes.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <unordered_map>

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "chain/execution/dag.hpp"
#include "crypto/sha256.hpp"

namespace blockbench {

namespace mcc = mc::chain;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kMaxMessages = 5;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Executor counts of one pass: `after` minus `before`.
void add_exec_delta(ExactCounts& c, const mcc::exec::BlockExecMetrics& before,
                    const mcc::exec::BlockExecMetrics& after) {
  c.waves = after.waves - before.waves;
  c.aborts = after.aborts - before.aborts;
  c.reruns = after.reruns - before.reruns;
  c.parallel_txs = after.parallel_txs - before.parallel_txs;
  c.sequential_txs = after.sequential_txs - before.sequential_txs;
  c.dag_edges = after.dag_edges - before.dag_edges;
  c.critical_ticks = after.critical_ticks - before.critical_ticks;
}

/// Connect the deployment block through the node's own receive path.
void connect_deploy(const Workload& w, mcc::Node& node, Failures& f) {
  if (w.deploy.size == 0) return;
  ++f.attempted;
  if (node.receive(mcc::Block::decode(w.bytes(w.deploy))) !=
      mcc::BlockVerdict::Accepted)
    f.fail("deployment block not accepted");
}

/// Every leader batch, decoded ahead of the timed loop.
std::vector<std::vector<mcc::Transaction>> decode_batches(const Workload& w) {
  std::vector<std::vector<mcc::Transaction>> out;
  out.reserve(w.batches.size());
  for (std::size_t i = 0; i < w.batches.size(); ++i) out.push_back(w.batch(i));
  return out;
}

/// The final tip and its state root must equal the producer's reference.
void check_reference(const Workload& w, const mcc::Node& node, Failures& f) {
  f.attempted += 2;
  if (node.tip() != w.ref_tip) f.fail("final tip differs from the reference");
  const mcc::Block* tip = node.block(node.tip());
  if (tip == nullptr || tip->header.state_root != w.ref_root)
    f.fail("final state root differs from the reference");
}

/// Resident set size of this process, bytes.
std::uint64_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Return freed heap pages to the OS so a pass's RSS growth is its own.
void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Node::receive's direct-extension path, split into its public calls.
class StagedFollower {
 public:
  StagedFollower(const Workload& w, const NodeSetup& setup)
      : w_(w),
        validator_(setup.validator != nullptr ? *setup.validator
                                              : sequential_validator_),
        executor_(w.params, w.has_contracts ? &hook_ : nullptr) {
    executor_.set_config(setup.exec);
    for (const auto& [addr, amount] : w.params.premine)
      state_.credit(addr, amount);
    tip_ = w.genesis.id();
    blocks_.emplace(tip_, Stored{w.genesis, 0});
  }

  [[nodiscard]] const mcc::exec::BlockExecutor& executor() const {
    return executor_;
  }
  [[nodiscard]] const mcc::WorldState& state() const { return state_; }
  [[nodiscard]] const mcc::BlockId& tip() const { return tip_; }

  /// Connect one block; returns an error message, empty on success.
  /// With `out`, stage times, probes and VM gas are added to it.
  std::string connect(mc::BytesView wire, StagedPassResult* out,
                      bool probes) {
    std::array<Clock::time_point, kStageCount + 1> t;
    std::size_t stage = 0;
    auto mark = [&] { t[stage++] = Clock::now(); };

    mark();
    mcc::Block block;
    try {
      block = mcc::Block::decode(wire);
    } catch (const std::exception& e) {
      return std::string("decode failed: ") + e.what();
    }
    mark();
    const mcc::BlockId id = block.id();
    if (blocks_.count(id) > 0) return "duplicate block";
    const auto parent = blocks_.find(block.header.parent);
    if (parent == blocks_.end()) return "orphan block";
    const mcc::Height height = block.header.height;
    if (height != parent->second.height + 1 || parent->first != tip_)
      return "block does not extend the tip";
    mark();
    if (!validator_.validate(block).ok()) return "invalid transaction set";
    if (block.txs.size() > w_.params.max_block_txs) return "oversized block";
    mark();
    mcc::WorldState next = state_;
    mark();
    std::vector<mcc::TxReceipt> receipts;
    const mcc::exec::BlockExecResult res =
        executor_.execute_block(next, block, &receipts,
                                /*sigs_prechecked=*/true);
    if (!res.ok) return "execution failed: " + res.error;
    mark();
    const mc::Hash256 ledger = next.digest();
    mark();
    const mc::Hash256 contracts =
        w_.has_contracts ? hook_.state_digest() : mc::Hash256{};
    mark();
    if (mc::crypto::sha256_pair(ledger, contracts) != block.header.state_root)
      return "state root mismatch";
    // Stored by copy, as Node::receive stores its const& argument.
    blocks_.emplace(id, Stored{block, height});
    tip_ = id;
    state_ = std::move(next);
    for (const mcc::TxReceipt& r : receipts) committed_[r.id] = r;
    mempool_.remove(block.txs);
    mark();

    if (out == nullptr) return {};
    for (std::size_t s = 0; s < kStageCount; ++s)
      out->stage_ms[s] += ms_between(t[s], t[s + 1]);
    out->block_ms += ms_between(t[0], t[kStageCount]);
    ++out->blocks;
    out->txs += block.txs.size();
    for (const mcc::TxReceipt& r : receipts) {
      const mcc::TxKind kind = block.txs[r.index].kind;
      if (kind == mcc::TxKind::Call || kind == mcc::TxKind::Deploy)
        out->vm_gas += r.gas_used - w_.params.transfer_gas;
    }
    if (probes) {
      const auto p0 = Clock::now();
      (void)validator_.compute_tx_root(block);
      const auto p1 = Clock::now();
      std::vector<mcc::TxFootprint> fps;
      fps.reserve(block.txs.size());
      for (const mcc::Transaction& tx : block.txs)
        fps.push_back(executor_.footprints().footprint(tx, height));
      (void)mcc::exec::build_tx_dag(fps);
      const auto p2 = Clock::now();
      out->txroot_ms += ms_between(p0, p1);
      out->plan_ms += ms_between(p1, p2);
    }
    return {};
  }

 private:
  struct Stored {
    mcc::Block block;
    mcc::Height height = 0;
  };

  const Workload& w_;
  const mcc::BlockValidator sequential_validator_;
  const mcc::BlockValidator& validator_;
  mc::vm::ContractStore store_;
  mcc::VmExecutionHook hook_{store_};
  mcc::exec::BlockExecutor executor_;
  mcc::WorldState state_;
  mcc::Mempool mempool_;
  std::unordered_map<mcc::BlockId, Stored> blocks_;
  std::unordered_map<mcc::TxId, mcc::TxReceipt> committed_;
  mcc::BlockId tip_{};
};

}  // namespace

mcc::exec::BlockExecMetrics ExactCounts::exec() const {
  mcc::exec::BlockExecMetrics m;
  m.blocks = blocks;
  m.txs = txs;
  m.parallel_txs = parallel_txs;
  m.sequential_txs = sequential_txs;
  m.waves = waves;
  m.aborts = aborts;
  m.reruns = reruns;
  m.dag_edges = dag_edges;
  m.critical_ticks = critical_ticks;
  return m;
}

void Failures::fail(std::string message) {
  ++failed;
  if (messages.size() < kMaxMessages) messages.push_back(std::move(message));
}

void Failures::merge(const Failures& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& m : other.messages)
    if (messages.size() < kMaxMessages) messages.push_back(m);
}

double host_steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long t[8] = {};
  const int got =
      std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                  &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]);
  std::fclose(f);
  if (got != 8) return 0;
  return static_cast<double>(t[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

NodePassResult run_node_pass(const Workload& w, const NodeSetup& setup,
                             const mc::crypto::PrivateKey& follower) {
  NodePassResult r;
  Failures& f = r.failures;
  const bool leader = w.kind == Kind::ProduceClinic;
  PassNode pn(w, setup, leader ? w.producer : follower);
  mcc::Node& node = pn.node;
  connect_deploy(w, node, f);
  const auto batches = decode_batches(w);

  const mcc::exec::BlockExecMetrics exec0 = node.executor().metrics();
  const std::uint64_t sigs0 = node.counters().sig_verifications;
  release_free_memory();
  const std::uint64_t rss0 = resident_bytes();
  const std::uint64_t sha0 = mc::crypto::Sha256::digest_count();
  const double steal0 = host_steal_seconds();
  r.block_ms.reserve(w.blocks.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < w.blocks.size(); ++i) {
    const auto t0 = Clock::now();
    mcc::BlockVerdict verdict = mcc::BlockVerdict::Invalid;
    if (leader) {
      for (const mcc::Transaction& tx : batches[i]) {
        ++f.attempted;
        if (!node.submit(tx)) f.fail("submit refused");
      }
      verdict = node.receive(node.propose(w.times_ms[i]));
    } else {
      try {
        verdict = node.receive(mcc::Block::decode(w.bytes(w.blocks[i])));
      } catch (const std::exception& e) {
        f.fail(std::string("decode failed: ") + e.what());
      }
    }
    r.block_ms.push_back(ms_between(t0, Clock::now()));
    ++f.attempted;
    if (verdict != mcc::BlockVerdict::Accepted) f.fail("block not accepted");
  }
  r.seconds = ms_between(start, Clock::now()) / 1000.0;
  r.steal_rate = (host_steal_seconds() - steal0) / r.seconds;
  const std::uint64_t sha1 = mc::crypto::Sha256::digest_count();
  const std::uint64_t rss1 = resident_bytes();
  r.rss_growth_mb =
      (static_cast<double>(rss1) - static_cast<double>(rss0)) / (1 << 20);
  r.txs = w.total_txs;

  check_reference(w, node, f);
  r.counts.txs = w.total_txs;
  r.counts.blocks = w.blocks.size();
  add_exec_delta(r.counts, exec0, node.executor().metrics());
  r.counts.sha256 = sha1 - sha0;
  r.counts.sigs = node.counters().sig_verifications - sigs0;
  return r;
}

StagedPassResult run_staged_pass(const Workload& w, const NodeSetup& setup,
                                 bool probes) {
  StagedPassResult r;
  Failures& f = r.failures;
  StagedFollower follower(w, setup);
  if (w.deploy.size > 0) {
    ++f.attempted;
    const std::string err = follower.connect(w.bytes(w.deploy), nullptr, false);
    if (!err.empty()) f.fail("deployment block: " + err);
  }
  const mcc::exec::BlockExecMetrics exec0 = follower.executor().metrics();
  for (const Workload::Range block : w.blocks) {
    ++f.attempted;
    const std::string err = follower.connect(w.bytes(block), &r, probes);
    if (!err.empty()) f.fail(err);
  }
  // connect() checked each block's root; the tip id commits to the last.
  ++f.attempted;
  if (follower.tip() != w.ref_tip) f.fail("staged tip differs from the reference");
  r.accounts = follower.state().account_count();
  r.counts.txs = r.txs;
  r.counts.blocks = r.blocks;
  add_exec_delta(r.counts, exec0, follower.executor().metrics());
  return r;
}

LeaderPassResult run_leader_pass(const Workload& w, const NodeSetup& setup) {
  LeaderPassResult r;
  Failures& f = r.failures;
  PassNode pn(w, setup, w.producer);
  mcc::Node& node = pn.node;
  connect_deploy(w, node, f);
  const auto batches = decode_batches(w);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto t0 = Clock::now();
    for (const mcc::Transaction& tx : batches[i]) {
      const auto s0 = Clock::now();
      const bool ok = node.submit(tx);
      r.submit_ms += ms_between(s0, Clock::now());
      ++r.submits;
      ++f.attempted;
      if (!ok) f.fail("submit refused");
    }
    // Probe: the selection propose() is about to make, outside the sum.
    const auto q0 = Clock::now();
    (void)node.mempool().select(node.state(), w.params, w.params.max_block_txs);
    const double probe_ms = ms_between(q0, Clock::now());
    r.select_ms += probe_ms;

    const auto p0 = Clock::now();
    const mcc::Block block = node.propose(w.times_ms[i]);
    const auto p1 = Clock::now();
    const mcc::BlockVerdict verdict = node.receive(block);
    const auto p2 = Clock::now();
    r.propose_ms += ms_between(p0, p1);
    r.receive_ms += ms_between(p1, p2);
    r.block_ms += ms_between(t0, p2) - probe_ms;
    ++r.blocks;
    ++f.attempted;
    if (verdict != mcc::BlockVerdict::Accepted) f.fail("block not accepted");
  }
  check_reference(w, node, f);
  return r;
}

}  // namespace blockbench
