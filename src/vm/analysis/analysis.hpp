// Static analyzer over vm::Op bytecode: abstract interpretation on a
// constant-propagation stack domain.
//
// Produces, per contract (DESIGN.md §12):
//   * CFG with invalid-jump-target and unreachable-code detection,
//   * a proven max-stack-depth bound plus under/overflow possibility,
//   * a worst-case gas upper bound (top for unbounded loops, with the
//     loop heads identified),
//   * the storage read/write footprint — every SLoad/SStore/SxLoad site
//     with its key classified exact-constant / parameter-derived /
//     top-unknown.
//
// Soundness contract: for ANY concrete execution of the same code under
// any context, dynamic gas_used <= gas bound (unless top), the dynamic
// max stack depth <= stack bound (unless top), and every storage key
// actually touched is covered by the footprint (exactly, or by a
// non-exact entry of the same kind). soundness_violation() checks this
// mechanically against a recorded vm::ExecTrace; the fuzz corpus replays
// it in every preset. The dual direction (no false *traps*) is NOT
// promised: a branch guarded by storage or oracle data is explored both
// ways, so "possible" flags over-approximate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "vm/analysis/cfg.hpp"
#include "vm/vm.hpp"

namespace mc::vm::analysis {

/// Abstract word value. Const tracks the exact value; Param marks data
/// that is a pure function of the call environment (calldata, caller,
/// value, height, timestamp); Top is unknown (storage, oracle, merges of
/// distinct constants).
enum class ValueClass : std::uint8_t { Bottom, Const, Param, Top };

// ---------------------------------------------------------------------------
// Symbolic expression domain
// ---------------------------------------------------------------------------

/// Call-environment leaf a symbolic expression can reference.
enum class EnvParam : std::uint8_t {
  Calldata,      ///< calldata[index]; out-of-range reads are 0 (VM rule)
  CallDataSize,
  Caller,
  CallValue,
  Height,
  Timestamp,
};

[[nodiscard]] std::string_view env_param_name(EnvParam p);

struct SymExpr;
/// Nodes are immutable and shared: copies of an AbsValue (stack dup,
/// state merge, cached summary) alias the same expression tree.
using SymExprPtr = std::shared_ptr<const SymExpr>;

/// Closed-form expression over the call environment, rich enough to
/// cover the contract suite's key-derivation idioms: raw parameter
/// reads, affine combinations `scale·base + offset` (wrapping u64, like
/// the VM), and `HashN` of symbolic tuples mirroring the VM's sha256
/// folding. Anything outside this language stays a plain Param with no
/// expression attached.
struct SymExpr {
  enum class Kind : std::uint8_t { Const, Param, Affine, Hash };
  Kind kind = Kind::Const;
  Word value = 0;                 ///< Const
  EnvParam param = EnvParam::Calldata;  ///< Param
  Word index = 0;                 ///< Param(Calldata): calldata word index
  Word scale = 1;                 ///< Affine
  Word offset = 0;                ///< Affine
  SymExprPtr base;                ///< Affine operand
  std::vector<SymExprPtr> parts;  ///< Hash: bottom-to-top stack order
};

[[nodiscard]] SymExprPtr sym_const(Word v);
[[nodiscard]] SymExprPtr sym_param(EnvParam p, Word index = 0);
/// Normalizing: scale 0 folds to Const(offset), a Const base folds
/// exactly, nested Affine composes, and identity wrappers disappear.
[[nodiscard]] SymExprPtr sym_affine(Word scale, SymExprPtr base, Word offset);
[[nodiscard]] SymExprPtr sym_hash(std::vector<SymExprPtr> parts);

[[nodiscard]] bool sym_equal(const SymExprPtr& a, const SymExprPtr& b);
[[nodiscard]] std::size_t sym_node_count(const SymExpr& e);
/// Human-readable form, e.g. "8*calldata[2]+16" or "H(7, calldata[3])".
[[nodiscard]] std::string sym_to_string(const SymExpr& e);

/// Concrete call environment a symbolic expression is evaluated against.
/// Fields unknown at evaluation time stay nullopt (e.g. the block
/// timestamp at scheduling time); an expression touching them fails to
/// concretize.
struct SymbolicEnv {
  const std::vector<Word>* calldata = nullptr;
  std::optional<Word> caller;
  std::optional<Word> call_value;
  std::optional<Word> height;
  std::optional<Word> time_ms;
};

/// SymbolicEnv with every field known, for the post-execution audit
/// check in ContractStore::call.
[[nodiscard]] SymbolicEnv env_of(const ExecContext& ctx);

/// Evaluate `e` under `env`, mirroring vm::execute's semantics exactly
/// (wrapping arithmetic, out-of-range calldata reads 0, ByteWriter +
/// sha256 prefix for Hash). nullopt when a referenced leaf is unknown.
[[nodiscard]] std::optional<Word> eval_symbolic(const SymExpr& e,
                                                const SymbolicEnv& env);

struct AbsValue {
  ValueClass cls = ValueClass::Bottom;
  Word value = 0;  ///< meaningful only when cls == Const
  /// Closed-form derivation; meaningful only when cls == Param. nullptr
  /// means "environment-derived, no expression" (the pre-symbolic Param).
  SymExprPtr sym;

  [[nodiscard]] static AbsValue constant(Word v) {
    return {ValueClass::Const, v, nullptr};
  }
  [[nodiscard]] static AbsValue param() {
    return {ValueClass::Param, 0, nullptr};
  }
  [[nodiscard]] static AbsValue symbolic(SymExprPtr e) {
    return {ValueClass::Param, 0, std::move(e)};
  }
  [[nodiscard]] static AbsValue top() { return {ValueClass::Top, 0, nullptr}; }

  [[nodiscard]] bool is_const() const { return cls == ValueClass::Const; }

  friend bool operator==(const AbsValue& a, const AbsValue& b) {
    if (a.cls != b.cls) return false;
    if (a.cls == ValueClass::Const) return a.value == b.value;
    if (a.cls == ValueClass::Param) return sym_equal(a.sym, b.sym);
    return true;
  }
};

/// Lattice join (Bottom < Const(v) < Top, Bottom < Param(expr) <
/// Param < Top; distinct constants and Const/Param mixes go to Top).
/// Two Params with different expressions widen to the expressionless
/// Param — a join never invents a concrete cell.
[[nodiscard]] AbsValue join(const AbsValue& a, const AbsValue& b);

/// Storage-key classification surfaced in reports and admission.
enum class KeyClass : std::uint8_t { Exact, Param, Unknown };

[[nodiscard]] KeyClass key_class_of(const AbsValue& v);
[[nodiscard]] std::string_view key_class_name(KeyClass c);
/// Printable key: "42", a symbolic expression, "<param>" or "<unknown>".
[[nodiscard]] std::string key_to_string(const AbsValue& v);

struct FootprintEntry {
  enum class Kind : std::uint8_t { Read, Write, ForeignRead };
  Kind kind = Kind::Read;
  std::size_t pc = 0;      ///< SLoad/SStore/SxLoad site
  AbsValue key;            ///< abstract storage key at the site
  AbsValue contract;       ///< ForeignRead only: abstract contract id
};

[[nodiscard]] std::string_view footprint_kind_name(FootprintEntry::Kind k);

/// Aggregated storage read/write footprint.
struct StorageFootprint {
  std::vector<FootprintEntry> entries;

  /// Keys proven exactly (entries with Const keys) per kind.
  [[nodiscard]] std::set<Word> exact_keys(FootprintEntry::Kind kind) const;
  /// True when some entry of `kind` has a non-constant key — the
  /// footprint then covers every key of that kind (top).
  [[nodiscard]] bool unbounded(FootprintEntry::Kind kind) const;
};

struct StackBound {
  /// No proven bound (unresolved jump or iteration cap hit).
  bool top = false;
  std::size_t max_depth = 0;  ///< proven bound when !top
  bool underflow_possible = false;
  bool overflow_possible = false;
};

struct GasBound {
  bool top = false;           ///< cycle in the CFG or analysis incomplete
  std::uint64_t max = 0;      ///< proven worst case when !top
  std::vector<std::size_t> loop_head_pcs;  ///< back-edge targets
};

struct AnalysisReport {
  std::size_t code_bytes = 0;
  std::size_t instruction_count = 0;
  /// vm::code_well_formed: no undefined opcode / truncated immediate.
  bool well_formed = true;
  Cfg cfg;
  std::size_t unreachable_instructions = 0;
  /// Jump/JumpI sites whose constant target is not a valid boundary.
  std::vector<std::size_t> invalid_jump_pcs;
  /// Jump/JumpI sites whose target is not a compile-time constant. The
  /// analysis cannot follow them, so every bound degrades to top.
  std::vector<std::size_t> unresolved_jump_pcs;
  /// Set on unresolved jumps or the iteration cap: bounds and footprint
  /// are top (still sound, no longer precise).
  bool incomplete = false;
  bool divide_by_zero_possible = false;
  StackBound stack;
  GasBound gas;
  StorageFootprint footprint;

  /// Proven free of the statically-decidable trap classes: well-formed,
  /// fully resolved CFG, no invalid jump, no possible stack violation.
  [[nodiscard]] bool clean() const {
    return well_formed && !incomplete && invalid_jump_pcs.empty() &&
           unresolved_jump_pcs.empty() && !stack.underflow_possible &&
           !stack.overflow_possible;
  }
};

struct AnalyzeOptions {
  /// Pin calldata[0] to a constant: per-entry-point analysis (the
  /// dispatch chain folds, yielding a per-selector gas bound/footprint).
  std::optional<Word> selector;
};

/// Analyze a decoded program (ContractStore::deploy passes the Program
/// it stores); the BytesView form decodes first.
[[nodiscard]] AnalysisReport analyze(const Program& program,
                                     const AnalyzeOptions& opts = {});
[[nodiscard]] AnalysisReport analyze(BytesView code,
                                     const AnalyzeOptions& opts = {});

/// Selector constants compared against calldata[0] in the canonical
/// dispatch pattern (PUSH k / EQ / PUSH @target / JUMPI), for
/// per-entry-point sweeps by tools and benches.
[[nodiscard]] std::vector<Word> discover_selectors(const Program& program);
[[nodiscard]] std::vector<Word> discover_selectors(BytesView code);

// ---------------------------------------------------------------------------
// Deployment admission
// ---------------------------------------------------------------------------

/// What a ContractStore rejects at deployment. The strict default admits
/// every contract in src/contracts/ and examples/; permissive() restores
/// the pre-analysis behaviour (only malformed code rejected).
struct AdmissionPolicy {
  bool reject_malformed = true;
  bool reject_invalid_jumps = true;
  bool reject_unresolved_jumps = true;
  bool reject_stack_violations = true;
  bool require_bounded_gas = false;
  /// When set (and the gas bound is finite), reject bounds above this.
  std::optional<std::uint64_t> max_gas_bound;

  [[nodiscard]] static AdmissionPolicy strict() { return {}; }
  [[nodiscard]] static AdmissionPolicy permissive() {
    AdmissionPolicy p;
    p.reject_invalid_jumps = false;
    p.reject_unresolved_jumps = false;
    p.reject_stack_violations = false;
    return p;
  }
};

struct AdmissionVerdict {
  bool admitted = true;
  std::string reason;  ///< human-readable rejection cause
};

[[nodiscard]] AdmissionVerdict admit(const AnalysisReport& report,
                                     const AdmissionPolicy& policy);

// ---------------------------------------------------------------------------
// Soundness check (dynamic subset-of static)
// ---------------------------------------------------------------------------

/// Empty string when `trace`/`result` (recorded by vm::execute on the
/// SAME code the report was computed from) are contained in the static
/// bounds; otherwise a description of the violated bound. The audit
/// build wraps this in MC_DCHECK on every ContractStore::call.
[[nodiscard]] std::string soundness_violation(const AnalysisReport& report,
                                              const ExecTrace& trace,
                                              const ExecResult& result);

// ---------------------------------------------------------------------------
// Per-selector footprint summaries + concretization
// ---------------------------------------------------------------------------

/// Footprint of one dispatch entry point, computed by re-analyzing the
/// contract with calldata[0] pinned to `selector` (the dispatch chain
/// folds, so other handlers' keys drop out of the summary).
struct SelectorSummary {
  Word selector = 0;
  /// Per-selector analysis hit ⊤ somewhere: the footprint covers every
  /// key and consumers must not concretize from it.
  bool incomplete = false;
  StorageFootprint footprint;
};

/// Summaries beyond this count are skipped (a purely adversarial
/// contract could embed thousands of dispatch patterns; capping bounds
/// deploy-time analysis cost, costing only scheduling precision).
inline constexpr std::size_t kMaxSelectorSummaries = 32;

/// One summary per discovered selector, in selector order, capped at
/// kMaxSelectorSummaries. Cached by ContractStore at deploy time.
[[nodiscard]] std::vector<SelectorSummary> summarize_selectors(
    const Program& program);
[[nodiscard]] std::vector<SelectorSummary> summarize_selectors(BytesView code);

/// The summary whose selector equals calldata[0]; nullptr when calldata
/// is empty or no selector matches (callers fall back to the
/// whole-program footprint).
[[nodiscard]] const SelectorSummary* summary_for(
    const std::vector<SelectorSummary>& summaries,
    const std::vector<Word>& calldata);

/// A footprint with every key evaluated under a concrete environment.
/// `*_exact` is false when some entry of that kind failed to evaluate
/// (non-symbolic key or unknown env leaf) — that kind then covers every
/// key, exactly as in the abstract footprint.
struct ConcreteFootprint {
  std::set<Word> reads;
  std::set<Word> writes;
  std::set<std::pair<Word, Word>> foreign_reads;  ///< (contract, key)
  bool reads_exact = true;
  bool writes_exact = true;
  bool foreign_exact = true;

  [[nodiscard]] bool exact() const {
    return reads_exact && writes_exact && foreign_exact;
  }
};

[[nodiscard]] ConcreteFootprint concretize_footprint(
    const StorageFootprint& fp, const SymbolicEnv& env);

/// Empty string when every traced access of a kind that concretized
/// exactly lands inside the concretized cell set (kinds that did not
/// concretize are covered by the abstract soundness check instead).
/// MC_DCHECKed next to soundness_violation on every ContractStore::call
/// in audit builds, and replayed by the analyze fuzz harness.
[[nodiscard]] std::string concretization_violation(const StorageFootprint& fp,
                                                   const SymbolicEnv& env,
                                                   const ExecTrace& trace);

}  // namespace mc::vm::analysis
