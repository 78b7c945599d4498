// Deployed-contract registry: code, storage, event log, snapshots.
//
// One ContractStore exists per blockchain node; since contract execution
// is deterministic, all honest nodes' stores stay identical — which the
// duplicated-execution tests assert literally via digest().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "vm/analysis/analysis.hpp"
#include "vm/vm.hpp"

namespace mc::vm {

/// Thrown by ContractStore::deploy when the static analyzer rejects the
/// code under the store's admission policy. Derives invalid_argument so
/// chain::Node::apply_block's existing handler marks the tx invalid.
class AdmissionError : public std::invalid_argument {
 public:
  explicit AdmissionError(const std::string& reason)
      : std::invalid_argument("contract admission rejected: " + reason) {}
};

/// Deploy-time artefacts of a contract, computed once by
/// ContractStore::deploy and immutable afterwards. DeployedContract holds
/// them behind a shared pointer: a store snapshot copies the pointer, not
/// the artefacts, and concurrent speculative calls read them with no
/// synchronisation.
struct ContractCode {
  Bytes bytes;
  /// The decoded program every call runs over.
  Program program;
  /// Static analysis of the program; the audit build checks every later
  /// call's dynamic trace against these bounds.
  analysis::AnalysisReport report;
  /// Per-dispatch-entry footprint summaries with symbolic keys. The
  /// execution layer concretizes these against a tx's calldata to
  /// schedule on exact cells (DESIGN.md §12–13).
  std::vector<analysis::SelectorSummary> selector_summaries;
  /// Program contains Op::Oracle: such calls must not be re-run
  /// speculatively — a rerun would duplicate the external side effect —
  /// so the parallel scheduler executes them at their commit slot.
  bool uses_oracle = false;
};

struct DeployedContract {
  Word id = 0;
  Word deployer = 0;
  std::shared_ptr<const ContractCode> code;
  Storage storage;
  std::uint64_t deployed_height = 0;
};

/// One contract call executed speculatively against the committed store
/// (parallel scheduler, DESIGN.md §13). The store itself is untouched;
/// `writes` holds the post-image of every key the run stored (value 0
/// means *erase* — the VM never keeps zero-valued entries), `observed`
/// the value every read saw (own SLOADs and foreign SXLOADs alike), and
/// `events` the buffered emissions to append on commit.
struct SpeculativeCall {
  Word contract_id = 0;
  ExecResult result;
  std::map<Word, Word> writes;                    ///< key -> post value (0 = erase)
  std::map<std::pair<Word, Word>, Word> observed; ///< (contract, key) -> value
  std::vector<Event> events;
  ExecTrace trace;
};

class ContractStore {
 public:
  /// Deploy code; the id is derived from (code, deployer, store nonce) so
  /// repeated deployments get distinct ids deterministically. The code is
  /// statically analyzed and admitted under the store's policy first —
  /// rejection throws AdmissionError and deploys nothing.
  Word deploy(Bytes code, Word deployer, std::uint64_t height);

  /// Replace the admission policy applied by subsequent deploy() calls.
  void set_admission_policy(analysis::AdmissionPolicy policy) {
    policy_ = policy;
  }
  [[nodiscard]] const analysis::AdmissionPolicy& admission_policy() const {
    return policy_;
  }

  [[nodiscard]] bool exists(Word id) const { return contracts_.count(id) > 0; }
  [[nodiscard]] const DeployedContract* contract(Word id) const;

  /// Execute a call into `id`. Events emitted by a successful run are
  /// appended to the store's event log and forwarded to `oracle_host`.
  /// Returns nullopt when the contract does not exist.
  std::optional<ExecResult> call(Word id, ExecContext ctx, Host& oracle_host);

  /// Convenience call with a NullHost (no oracle, events logged only).
  std::optional<ExecResult> call(Word id, ExecContext ctx);

  // --- speculative execution (chain/execution scheduler) ----------------

  /// True when `id` exists and its code is oracle-free, i.e. a
  /// speculative run of it is safe to discard and repeat.
  [[nodiscard]] bool speculable(Word id) const;

  /// Execute a call WITHOUT mutating the store: storage writes, reads and
  /// events are captured into the returned SpeculativeCall. Oracle use
  /// traps (speculable() gates it out beforehand); foreign reads are
  /// served from committed state exactly as call() does. Returns nullopt
  /// for an unknown contract.
  [[nodiscard]] std::optional<SpeculativeCall> call_speculative(
      Word id, ExecContext ctx) const;

  /// Commit-time validation: every cell `spec` observed still holds the
  /// value it observed, so replaying it now would reproduce it verbatim.
  [[nodiscard]] bool speculation_current(const SpeculativeCall& spec) const;

  /// Apply a successful speculative run: fold its write-set into the
  /// contract's storage (0 erases) and append its events, forwarding each
  /// to `event_host` when non-null (monitor-node parity with call()).
  void commit_speculation(const SpeculativeCall& spec,
                          Host* event_host = nullptr);

  /// All events ever emitted, oldest first.
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  /// Events with index >= `from_index` (monitor-node polling cursor).
  [[nodiscard]] std::vector<Event> events_since(std::size_t from_index) const;

  /// Capture a snapshot labeled with `height`: every contract's storage,
  /// sharing (not copying) its ContractCode.
  void snapshot(std::uint64_t height);

  /// Restore the newest snapshot labeled <= `height`; with none, resets
  /// to empty (height 0 == fresh store).
  void rollback_to(std::uint64_t height);

  /// Canonical digest over all contracts and storage (cross-node
  /// determinism checks).
  [[nodiscard]] Hash256 digest() const;

  [[nodiscard]] std::size_t size() const { return contracts_.size(); }

 private:
  struct Snapshot {
    std::map<Word, DeployedContract> contracts;
    std::size_t event_count = 0;
    std::uint64_t nonce = 0;
  };

  std::map<Word, DeployedContract> contracts_;  // ordered => stable digest
  std::vector<Event> events_;
  std::uint64_t nonce_ = 0;
  std::map<std::uint64_t, Snapshot> snapshots_;
  analysis::AdmissionPolicy policy_ = analysis::AdmissionPolicy::strict();
};

}  // namespace mc::vm
