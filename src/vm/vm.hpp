// The medchain contract virtual machine.
//
// Deterministic, gas-metered execution of Op bytecode over 64-bit words.
// Determinism is what lets every blockchain node run the identical
// contract and reach the identical state — and the per-instruction gas
// counter is what lets the experiments price that duplication.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "vm/opcode.hpp"
#include "vm/program.hpp"

namespace mc::vm {

/// Hard cap on the operand stack; pushing past it traps StackOverflow.
/// Shared with the static analyzer, whose stack bounds are proven
/// against this same limit.
inline constexpr std::size_t kMaxStack = 1024;

/// Contract storage: persistent key/value words.
using Storage = std::map<Word, Word>;

/// Event appended by EMIT; the off-chain monitor node subscribes to these
/// (paper Fig. 3: "a monitor node is used to monitor all the related smart
/// contract events").
struct Event {
  Word contract_id = 0;
  Word topic = 0;
  std::vector<Word> args;
  std::uint64_t height = 0;
};

/// Why execution halted.
enum class Halt : std::uint8_t {
  Stop,
  Return,
  Revert,
  OutOfGas,
  StackUnderflow,
  StackOverflow,
  BadJump,
  BadOpcode,
  DivideByZero,
  OracleFailure,
  StepLimit,
};

[[nodiscard]] constexpr bool halted_ok(Halt h) {
  return h == Halt::Stop || h == Halt::Return;
}

std::string_view halt_name(Halt h);

struct ExecResult {
  Halt halt = Halt::Stop;
  std::uint64_t gas_used = 0;
  std::uint64_t steps = 0;  ///< instructions retired (energy accounting)
  std::vector<Word> returned;

  [[nodiscard]] bool ok() const { return halted_ok(halt); }
};

/// Dynamic execution trace, recorded when ExecContext::trace is set:
/// every storage key actually touched (including by runs that later
/// trapped and rolled back) and the peak stack depth. The static
/// analyzer's soundness contract is checked against this — see
/// vm/analysis/analysis.hpp soundness_violation().
struct ExecTrace {
  std::set<Word> reads;
  std::set<Word> writes;
  std::set<std::pair<Word, Word>> foreign_reads;  ///< (contract, key)
  std::size_t max_stack = 0;
};

/// Execution environment provided by the node.
struct ExecContext {
  Word contract_id = 0;
  Word caller = 0;       ///< u64-folded caller address
  Word call_value = 0;
  std::uint64_t height = 0;
  std::uint64_t time_ms = 0;
  std::uint64_t gas_limit = 1'000'000;
  std::uint64_t step_limit = 10'000'000;  ///< hard bound beyond gas
  std::vector<Word> calldata;
  ExecTrace* trace = nullptr;  ///< optional footprint/stack recording
};

/// Host hooks: the ORACLE opcode is the paper's on-chain/off-chain bridge
/// ("a special data oracle mechanism by remote procedure call", §IV).
class Host {
 public:
  virtual ~Host() = default;

  /// Answer an oracle request; nullopt traps the VM with OracleFailure.
  virtual std::optional<Word> oracle(Word request) = 0;

  /// Observe an emitted event (monitor-node subscription point).
  virtual void on_event(const Event& event) = 0;

  /// Serve SXLOAD: committed storage of another contract. nullopt traps
  /// (the default for hosts with no contract-store access); hosts backed
  /// by a ContractStore return 0 for unknown contracts/keys.
  virtual std::optional<Word> foreign_storage(Word /*contract_id*/,
                                              Word /*key*/) {
    return std::nullopt;
  }
};

/// A host that fails every oracle call and drops events.
class NullHost : public Host {
 public:
  std::optional<Word> oracle(Word) override { return std::nullopt; }
  void on_event(const Event&) override {}
};

/// Execute `program` with `storage` as its working state: writes land in
/// `storage` as they execute, a trapped run's included, so callers that
/// need all-or-nothing semantics pass a copy they drop on failure
/// (ContractStore does). Emitted events are delivered to the host only
/// on success.
ExecResult execute(const Program& program, Storage& storage,
                   const ExecContext& ctx, Host& host);

/// Decode `code` and execute it on a copy of `storage`, committed on
/// success: on any failure halt, storage changes made during the run are
/// rolled back (all-or-nothing semantics). For tests and fuzz harnesses;
/// deployed contracts run over the Program decoded at deployment.
ExecResult execute(BytesView code, Storage& storage, const ExecContext& ctx,
                   Host& host);

/// Static bytecode sanity check: opcodes defined, immediates in bounds
/// (Program::well_formed of the decoded code).
bool code_well_formed(BytesView code);

}  // namespace mc::vm
