#include "vm/analysis/analysis.hpp"

#include <algorithm>
#include <map>

#include "audit/check.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace mc::vm::analysis {

std::string_view env_param_name(EnvParam p) {
  switch (p) {
    case EnvParam::Calldata: return "calldata";
    case EnvParam::CallDataSize: return "calldatasize";
    case EnvParam::Caller: return "caller";
    case EnvParam::CallValue: return "callvalue";
    case EnvParam::Height: return "height";
    case EnvParam::Timestamp: return "timestamp";
  }
  return "?";
}

SymExprPtr sym_const(Word v) {
  auto e = std::make_shared<SymExpr>();
  e->kind = SymExpr::Kind::Const;
  e->value = v;
  return e;
}

SymExprPtr sym_param(EnvParam p, Word index) {
  auto e = std::make_shared<SymExpr>();
  e->kind = SymExpr::Kind::Param;
  e->param = p;
  e->index = index;
  return e;
}

SymExprPtr sym_affine(Word scale, SymExprPtr base, Word offset) {
  if (!base || scale == 0) return sym_const(offset);
  // All folds use wrapping u64 arithmetic, exactly like the VM.
  if (base->kind == SymExpr::Kind::Const)
    return sym_const(scale * base->value + offset);
  if (base->kind == SymExpr::Kind::Affine) {
    const Word s = scale * base->scale;
    const Word o = scale * base->offset + offset;
    return sym_affine(s, base->base, o);
  }
  if (scale == 1 && offset == 0) return base;
  auto e = std::make_shared<SymExpr>();
  e->kind = SymExpr::Kind::Affine;
  e->scale = scale;
  e->offset = offset;
  e->base = std::move(base);
  return e;
}

SymExprPtr sym_hash(std::vector<SymExprPtr> parts) {
  auto e = std::make_shared<SymExpr>();
  e->kind = SymExpr::Kind::Hash;
  e->parts = std::move(parts);
  return e;
}

bool sym_equal(const SymExprPtr& a, const SymExprPtr& b) {
  if (a == b) return true;  // covers both-null and shared nodes
  if (!a || !b) return false;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case SymExpr::Kind::Const: return a->value == b->value;
    case SymExpr::Kind::Param:
      return a->param == b->param &&
             (a->param != EnvParam::Calldata || a->index == b->index);
    case SymExpr::Kind::Affine:
      return a->scale == b->scale && a->offset == b->offset &&
             sym_equal(a->base, b->base);
    case SymExpr::Kind::Hash: {
      if (a->parts.size() != b->parts.size()) return false;
      for (std::size_t i = 0; i < a->parts.size(); ++i)
        if (!sym_equal(a->parts[i], b->parts[i])) return false;
      return true;
    }
  }
  return false;
}

std::size_t sym_node_count(const SymExpr& e) {
  std::size_t n = 1;
  if (e.base) n += sym_node_count(*e.base);
  for (const SymExprPtr& p : e.parts)
    if (p) n += sym_node_count(*p);
  return n;
}

std::string sym_to_string(const SymExpr& e) {
  switch (e.kind) {
    case SymExpr::Kind::Const: return std::to_string(e.value);
    case SymExpr::Kind::Param:
      if (e.param == EnvParam::Calldata)
        return "calldata[" + std::to_string(e.index) + "]";
      return std::string(env_param_name(e.param));
    case SymExpr::Kind::Affine: {
      std::string s;
      if (e.scale != 1) s += std::to_string(e.scale) + "*";
      s += e.base ? sym_to_string(*e.base) : "?";
      if (e.offset != 0) s += "+" + std::to_string(e.offset);
      return s;
    }
    case SymExpr::Kind::Hash: {
      std::string s = "H(";
      for (std::size_t i = 0; i < e.parts.size(); ++i) {
        if (i > 0) s += ", ";
        s += e.parts[i] ? sym_to_string(*e.parts[i]) : "?";
      }
      return s + ")";
    }
  }
  return "?";
}

SymbolicEnv env_of(const ExecContext& ctx) {
  SymbolicEnv env;
  env.calldata = &ctx.calldata;
  env.caller = ctx.caller;
  env.call_value = ctx.call_value;
  env.height = ctx.height;
  env.time_ms = ctx.time_ms;
  return env;
}

std::optional<Word> eval_symbolic(const SymExpr& e, const SymbolicEnv& env) {
  switch (e.kind) {
    case SymExpr::Kind::Const: return e.value;
    case SymExpr::Kind::Param:
      switch (e.param) {
        case EnvParam::Calldata:
          if (env.calldata == nullptr) return std::nullopt;
          // Out-of-range calldata reads are 0, the VM's CallDataLoad rule.
          return e.index < env.calldata->size()
                     ? (*env.calldata)[static_cast<std::size_t>(e.index)]
                     : Word{0};
        case EnvParam::CallDataSize:
          if (env.calldata == nullptr) return std::nullopt;
          return static_cast<Word>(env.calldata->size());
        case EnvParam::Caller: return env.caller;
        case EnvParam::CallValue: return env.call_value;
        case EnvParam::Height: return env.height;
        case EnvParam::Timestamp: return env.time_ms;
      }
      return std::nullopt;
    case SymExpr::Kind::Affine: {
      if (!e.base) return std::nullopt;
      const std::optional<Word> base = eval_symbolic(*e.base, env);
      if (!base) return std::nullopt;
      return e.scale * *base + e.offset;
    }
    case SymExpr::Kind::Hash: {
      // Mirror the VM's HashN folding bit-for-bit.
      ByteWriter w;
      for (const SymExprPtr& p : e.parts) {
        if (!p) return std::nullopt;
        const std::optional<Word> v = eval_symbolic(*p, env);
        if (!v) return std::nullopt;
        w.u64(*v);
      }
      return crypto::sha256(BytesView(w.data())).prefix_u64();
    }
  }
  return std::nullopt;
}

AbsValue join(const AbsValue& a, const AbsValue& b) {
  if (a.cls == ValueClass::Bottom) return b;
  if (b.cls == ValueClass::Bottom) return a;
  if (a == b) return a;
  // Two environment-derived values with different (or missing)
  // expressions stay Param but lose the closed form: widening, so a
  // merged key never names a cell only one branch would touch.
  if (a.cls == ValueClass::Param && b.cls == ValueClass::Param)
    return AbsValue::param();
  return AbsValue::top();
}

KeyClass key_class_of(const AbsValue& v) {
  switch (v.cls) {
    case ValueClass::Const: return KeyClass::Exact;
    case ValueClass::Param: return KeyClass::Param;
    default: return KeyClass::Unknown;
  }
}

std::string_view key_class_name(KeyClass c) {
  switch (c) {
    case KeyClass::Exact: return "exact";
    case KeyClass::Param: return "param";
    case KeyClass::Unknown: return "unknown";
  }
  return "?";
}

std::string key_to_string(const AbsValue& v) {
  switch (v.cls) {
    case ValueClass::Const: return std::to_string(v.value);
    case ValueClass::Param:
      return v.sym ? sym_to_string(*v.sym) : "<param>";
    default: return "<unknown>";
  }
}

std::string_view footprint_kind_name(FootprintEntry::Kind k) {
  switch (k) {
    case FootprintEntry::Kind::Read: return "read";
    case FootprintEntry::Kind::Write: return "write";
    case FootprintEntry::Kind::ForeignRead: return "xread";
  }
  return "?";
}

std::set<Word> StorageFootprint::exact_keys(FootprintEntry::Kind kind) const {
  std::set<Word> keys;
  for (const FootprintEntry& e : entries)
    if (e.kind == kind && e.key.is_const()) keys.insert(e.key.value);
  return keys;
}

bool StorageFootprint::unbounded(FootprintEntry::Kind kind) const {
  for (const FootprintEntry& e : entries) {
    if (e.kind != kind) continue;
    if (!e.key.is_const()) return true;
    if (kind == FootprintEntry::Kind::ForeignRead && !e.contract.is_const())
      return true;
  }
  return false;
}

namespace {

using Stack = std::vector<AbsValue>;

/// Cap on symbolic expression size: adversarial bytecode can nest HashN
/// results into each other; past this the value stays Param (sound).
constexpr std::size_t kMaxSymNodes = 64;

/// The symbolic view of a value: Const lifts to a Const leaf, Param
/// keeps its expression (when it has one). nullptr = not expressible.
SymExprPtr as_sym(const AbsValue& v) {
  if (v.is_const()) return sym_const(v.value);
  if (v.cls == ValueClass::Param) return v.sym;
  return nullptr;
}

/// Binary arithmetic on abstract values, mirroring vm::execute's
/// wrapping/compare semantics exactly for the Const x Const case.
/// Symbolic operands compose affinely (sym ± const, sym · const,
/// sym << const), keeping key derivations like `8*calldata[i] + 16`
/// in closed form.
AbsValue arith(Op op, const AbsValue& a, const AbsValue& b) {
  if (a.is_const() && b.is_const()) {
    const Word x = a.value;
    const Word y = b.value;
    switch (op) {
      case Op::Add: return AbsValue::constant(x + y);
      case Op::Sub: return AbsValue::constant(x - y);
      case Op::Mul: return AbsValue::constant(x * y);
      case Op::Div: return AbsValue::constant(y == 0 ? 0 : x / y);
      case Op::Mod: return AbsValue::constant(y == 0 ? 0 : x % y);
      case Op::Lt: return AbsValue::constant(x < y ? 1 : 0);
      case Op::Gt: return AbsValue::constant(x > y ? 1 : 0);
      case Op::Eq: return AbsValue::constant(x == y ? 1 : 0);
      case Op::And: return AbsValue::constant(x & y);
      case Op::Or: return AbsValue::constant(x | y);
      case Op::Xor: return AbsValue::constant(x ^ y);
      case Op::Shl: return AbsValue::constant(y >= 64 ? 0 : x << y);
      case Op::Shr: return AbsValue::constant(y >= 64 ? 0 : x >> y);
      default: break;
    }
  }
  if (a.cls == ValueClass::Param && a.sym && b.is_const()) {
    switch (op) {
      case Op::Add: return AbsValue::symbolic(sym_affine(1, a.sym, b.value));
      case Op::Sub:
        return AbsValue::symbolic(sym_affine(1, a.sym, Word{0} - b.value));
      case Op::Mul:
        return AbsValue::symbolic(sym_affine(b.value, a.sym, 0));
      case Op::Shl:
        if (b.value >= 64) return AbsValue::constant(0);
        return AbsValue::symbolic(sym_affine(Word{1} << b.value, a.sym, 0));
      default: break;
    }
  }
  if (a.is_const() && b.cls == ValueClass::Param && b.sym) {
    switch (op) {
      case Op::Add: return AbsValue::symbolic(sym_affine(1, b.sym, a.value));
      case Op::Sub:  // a - b  ==  (-1)·b + a, wrapping
        return AbsValue::symbolic(sym_affine(Word{0} - 1, b.sym, a.value));
      case Op::Mul:
        return AbsValue::symbolic(sym_affine(a.value, b.sym, 0));
      default: break;
    }
  }
  const bool derived = a.cls != ValueClass::Top && b.cls != ValueClass::Top;
  return derived ? AbsValue::param() : AbsValue::top();
}

/// One abstract interpretation pass state.
///
/// The domain is one abstract stack per (instruction, entry depth) pair:
/// shared exit blocks reached from sites with different stack depths
/// (ubiquitous in the contract suite — every guard jumps to one revert
/// label) are analyzed separately per depth instead of forcing an
/// imprecise or unsound merge. Depths are bounded by kMaxStack and each
/// slot climbs a height-3 lattice, so the fixpoint stays finite; the
/// visit cap below additionally bounds adversarial (fuzzed) inputs.
struct Interp {
  const Program& program;
  const AnalyzeOptions& opts;
  AnalysisReport& report;

  std::vector<std::map<std::size_t, Stack>> state;  ///< instr -> depth -> stack
  SuccessorMap succs;  ///< union over all depth variants (only grows)
  std::vector<std::pair<std::size_t, std::size_t>> worklist;  ///< (instr, depth)
  std::set<std::pair<std::size_t, std::size_t>> queued;
  std::map<std::size_t, FootprintEntry> footprint_at;  ///< keyed by pc
  std::set<std::size_t> invalid_jumps;
  std::set<std::size_t> unresolved_jumps;
  std::size_t max_depth = 0;

  Interp(const Program& p, const AnalyzeOptions& o, AnalysisReport& r)
      : program(p), opts(o), report(r) {
    state.resize(p.instrs.size());
    succs.resize(p.instrs.size());
  }

  void enqueue(std::size_t i, std::size_t depth) {
    if (queued.insert({i, depth}).second) worklist.push_back({i, depth});
  }

  /// Merge `s` into the entry state of instruction `i` at its depth;
  /// enqueue on change.
  void merge_into(std::size_t i, const Stack& s) {
    max_depth = std::max(max_depth, s.size());
    auto [it, inserted] = state[i].try_emplace(s.size(), s);
    if (inserted) {
      enqueue(i, s.size());
      return;
    }
    Stack& dst = it->second;
    bool changed = false;
    for (std::size_t k = 0; k < dst.size(); ++k) {
      const AbsValue merged = join(dst[k], s[k]);
      if (!(merged == dst[k])) {
        dst[k] = merged;
        changed = true;
      }
    }
    if (changed) enqueue(i, s.size());
  }

  void record_footprint(FootprintEntry::Kind kind, std::size_t pc,
                        const AbsValue& key, const AbsValue& contract) {
    auto it = footprint_at.find(pc);
    if (it == footprint_at.end()) {
      footprint_at.emplace(pc,
                           FootprintEntry{kind, pc, key, contract});
    } else {
      it->second.key = join(it->second.key, key);
      it->second.contract = join(it->second.contract, contract);
    }
  }

  /// Execute instruction `i` abstractly from its entry state at `depth`.
  void step(std::size_t i, std::size_t depth) {
    const Instr& in = program.instrs[i];
    Stack s = state[i].at(depth);
    std::vector<std::size_t> next;

    bool trapped = false;
    const auto underflow = [&](std::size_t n) {
      if (s.size() >= n) return false;
      report.stack.underflow_possible = true;
      trapped = true;
      return true;
    };
    const auto pop = [&]() {
      const AbsValue v = s.back();
      s.pop_back();
      return v;
    };
    const auto push = [&](const AbsValue& v) {
      if (s.size() >= kMaxStack) {
        report.stack.overflow_possible = true;
        trapped = true;
        return;
      }
      s.push_back(v);
      max_depth = std::max(max_depth, s.size());
    };
    const auto fallthrough = [&]() {
      if (i + 1 < program.instrs.size()) next.push_back(i + 1);
    };
    /// Resolve a jump target; returns the instruction index or nullopt
    /// when the branch provably traps (invalid) or cannot be followed.
    const auto resolve_jump = [&](const AbsValue& target) -> std::optional<std::size_t> {
      if (!target.is_const()) {
        unresolved_jumps.insert(in.pc);
        report.incomplete = true;
        return std::nullopt;
      }
      if (!program.is_boundary(target.value)) {
        invalid_jumps.insert(in.pc);
        return std::nullopt;
      }
      return program.instr_at[static_cast<std::size_t>(target.value)];
    };

    if (!in.valid) {
      // Undefined opcode / truncated immediate: traps BadOpcode.
      return;
    }

    switch (in.op) {
      case Op::Stop:
      case Op::Revert:
        break;  // terminators

      case Op::Return:
        (void)underflow(static_cast<std::size_t>(in.imm));
        break;

      case Op::Push:
        push(AbsValue::constant(in.imm));
        if (!trapped) fallthrough();
        break;

      case Op::Pop:
        if (!underflow(1)) {
          pop();
          fallthrough();
        }
        break;

      case Op::Dup: {
        const auto depth = static_cast<std::size_t>(in.imm);
        if (depth == 0 || underflow(depth)) {
          report.stack.underflow_possible = report.stack.underflow_possible ||
                                            depth == 0;
          break;
        }
        push(s[s.size() - depth]);
        if (!trapped) fallthrough();
        break;
      }

      case Op::Swap: {
        const auto depth = static_cast<std::size_t>(in.imm);
        if (depth == 0 || underflow(depth + 1)) {
          report.stack.underflow_possible = report.stack.underflow_possible ||
                                            depth == 0;
          break;
        }
        std::swap(s.back(), s[s.size() - 1 - depth]);
        fallthrough();
        break;
      }

      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Div:
      case Op::Mod:
      case Op::Lt:
      case Op::Gt:
      case Op::Eq:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Shl:
      case Op::Shr: {
        if (underflow(2)) break;
        const AbsValue b = pop();
        const AbsValue a = pop();
        if (in.op == Op::Div || in.op == Op::Mod) {
          if (b.is_const() && b.value == 0) {
            report.divide_by_zero_possible = true;
            break;  // proven trap on this path
          }
          if (!b.is_const()) report.divide_by_zero_possible = true;
        }
        push(arith(in.op, a, b));
        if (!trapped) fallthrough();
        break;
      }

      case Op::IsZero:
      case Op::Not: {
        if (underflow(1)) break;
        const AbsValue a = pop();
        AbsValue out = AbsValue::top();
        if (a.is_const())
          out = AbsValue::constant(in.op == Op::IsZero ? (a.value == 0 ? 1 : 0)
                                                       : ~a.value);
        else if (a.cls == ValueClass::Param)
          out = AbsValue::param();  // still env-derived, but not affine
        push(out);
        if (!trapped) fallthrough();
        break;
      }

      case Op::Jump: {
        if (underflow(1)) break;
        const AbsValue target = pop();
        if (const auto t = resolve_jump(target)) next.push_back(*t);
        break;
      }

      case Op::JumpI: {
        if (underflow(2)) break;
        const AbsValue target = pop();
        const AbsValue cond = pop();
        const bool may_take = !cond.is_const() || cond.value != 0;
        const bool may_fall = !cond.is_const() || cond.value == 0;
        if (may_take)
          if (const auto t = resolve_jump(target)) next.push_back(*t);
        if (may_fall) fallthrough();
        break;
      }

      case Op::CallDataLoad: {
        if (underflow(1)) break;
        const AbsValue index = pop();
        AbsValue out = AbsValue::top();
        if (index.cls != ValueClass::Top) {
          out = AbsValue::param();
          if (index.is_const())
            out = AbsValue::symbolic(
                sym_param(EnvParam::Calldata, index.value));
          if (index.is_const() && index.value == 0 &&
              opts.selector.has_value())
            out = AbsValue::constant(*opts.selector);
        }
        push(out);
        if (!trapped) fallthrough();
        break;
      }

      case Op::CallDataSize:
        push(AbsValue::symbolic(sym_param(EnvParam::CallDataSize)));
        if (!trapped) fallthrough();
        break;

      case Op::SLoad: {
        if (underflow(1)) break;
        const AbsValue key = pop();
        record_footprint(FootprintEntry::Kind::Read, in.pc, key, {});
        push(AbsValue::top());
        if (!trapped) fallthrough();
        break;
      }

      case Op::SxLoad: {
        if (underflow(2)) break;
        const AbsValue target = pop();
        const AbsValue key = pop();
        record_footprint(FootprintEntry::Kind::ForeignRead, in.pc, key,
                         target);
        push(AbsValue::top());
        if (!trapped) fallthrough();
        break;
      }

      case Op::SStore: {
        if (underflow(2)) break;
        const AbsValue key = pop();
        pop();  // value
        record_footprint(FootprintEntry::Kind::Write, in.pc, key, {});
        fallthrough();
        break;
      }

      case Op::Caller:
        push(AbsValue::symbolic(sym_param(EnvParam::Caller)));
        if (!trapped) fallthrough();
        break;
      case Op::CallValue:
        push(AbsValue::symbolic(sym_param(EnvParam::CallValue)));
        if (!trapped) fallthrough();
        break;
      case Op::Height:
        push(AbsValue::symbolic(sym_param(EnvParam::Height)));
        if (!trapped) fallthrough();
        break;
      case Op::Timestamp:
        push(AbsValue::symbolic(sym_param(EnvParam::Timestamp)));
        if (!trapped) fallthrough();
        break;

      case Op::GasLeft:
        // Depends on the gas accounting of the concrete path: unknown.
        push(AbsValue::top());
        if (!trapped) fallthrough();
        break;

      case Op::Emit: {
        const auto n = static_cast<std::size_t>(in.imm);
        if (underflow(n + 1)) break;
        s.resize(s.size() - (n + 1));
        fallthrough();
        break;
      }

      case Op::HashN: {
        const auto n = static_cast<std::size_t>(in.imm);
        if (n == 0 || underflow(n)) {
          report.stack.underflow_possible = report.stack.underflow_possible ||
                                            n == 0;
          break;
        }
        bool all_const = true;
        bool all_derived = true;
        bool all_symbolic = true;
        for (std::size_t k = 0; k < n; ++k) {
          const AbsValue& v = s[s.size() - n + k];
          all_const = all_const && v.is_const();
          all_derived = all_derived && v.cls != ValueClass::Top;
          all_symbolic = all_symbolic && as_sym(v) != nullptr;
        }
        AbsValue out = AbsValue::top();
        if (all_const) {
          // Mirror the VM's hash exactly so constant keys stay exact.
          ByteWriter w;
          for (std::size_t k = 0; k < n; ++k) w.u64(s[s.size() - n + k].value);
          out = AbsValue::constant(
              crypto::sha256(BytesView(w.data())).prefix_u64());
        } else if (all_symbolic) {
          // Hash of a known tuple shape: keep the closed form so a
          // per-patient key like H(7, calldata[3]) concretizes later.
          std::vector<SymExprPtr> parts;
          parts.reserve(n);
          std::size_t nodes = 1;
          for (std::size_t k = 0; k < n; ++k) {
            parts.push_back(as_sym(s[s.size() - n + k]));
            nodes += sym_node_count(*parts.back());
          }
          out = nodes <= kMaxSymNodes
                    ? AbsValue::symbolic(sym_hash(std::move(parts)))
                    : AbsValue::param();
        } else if (all_derived) {
          out = AbsValue::param();
        }
        s.resize(s.size() - n);
        push(out);
        if (!trapped) fallthrough();
        break;
      }

      case Op::Oracle:
        if (underflow(1)) break;
        pop();
        push(AbsValue::top());
        if (!trapped) fallthrough();
        break;
    }

    for (const std::size_t t : next) {
      if (std::find(succs[i].begin(), succs[i].end(), t) == succs[i].end())
        succs[i].push_back(t);
      merge_into(t, s);
    }
  }
};

}  // namespace

AnalysisReport analyze(BytesView code, const AnalyzeOptions& opts) {
  return analyze(decode_program(code), opts);
}

AnalysisReport analyze(const Program& program, const AnalyzeOptions& opts) {
  AnalysisReport report;
  report.code_bytes = program.code_size();
  report.instruction_count = program.instrs.size();
  report.well_formed = program.well_formed;
  if (program.instrs.empty()) {
    report.cfg = build_cfg(program, {}, {});
    return report;
  }

  Interp interp(program, opts, report);
  interp.merge_into(0, Stack{});

  // Termination: the per-(pc, depth) fixpoint is finite, but adversarial
  // inputs (a loop that nets +1 depth per iteration visits every depth up
  // to kMaxStack) could make it large. The visit cap keeps fuzzed inputs
  // fast — hitting it degrades the result to incomplete, still sound.
  const std::size_t visit_cap = 128 * program.instrs.size() + 4096;
  std::size_t visits = 0;
  while (!interp.worklist.empty()) {
    if (++visits > visit_cap) {
      report.incomplete = true;
      break;
    }
    const auto [i, depth] = interp.worklist.back();
    interp.worklist.pop_back();
    interp.queued.erase({i, depth});
    interp.step(i, depth);
  }

  std::vector<bool> reachable(program.instrs.size(), false);
  for (std::size_t i = 0; i < program.instrs.size(); ++i)
    reachable[i] = !interp.state[i].empty();
  report.unreachable_instructions = static_cast<std::size_t>(
      std::count(reachable.begin(), reachable.end(), false));

  report.invalid_jump_pcs.assign(interp.invalid_jumps.begin(),
                                 interp.invalid_jumps.end());
  report.unresolved_jump_pcs.assign(interp.unresolved_jumps.begin(),
                                    interp.unresolved_jumps.end());

  report.cfg = build_cfg(program, interp.succs, reachable);

  report.stack.top = report.incomplete;
  report.stack.max_depth = interp.max_depth;

  std::uint64_t gas = 0;
  if (report.incomplete || !longest_path_gas(program, report.cfg, gas)) {
    report.gas.top = true;
    for (const CfgBlock& b : report.cfg.blocks)
      if (b.loop_head) report.gas.loop_head_pcs.push_back(b.first_pc);
  } else {
    report.gas.max = gas;
  }

  for (const auto& [pc, entry] : interp.footprint_at)
    report.footprint.entries.push_back(entry);
  return report;
}

std::vector<Word> discover_selectors(BytesView code) {
  return discover_selectors(decode_program(code));
}

std::vector<Word> discover_selectors(const Program& program) {
  std::set<Word> selectors;
  const auto& ins = program.instrs;
  // Canonical dispatch shape emitted by the assembler's `JUMPI @label`
  // sugar: PUSH <k> / EQ / PUSH <target> / JUMPI.
  for (std::size_t i = 0; i + 3 < ins.size(); ++i)
    if (ins[i].valid && ins[i].op == Op::Push && ins[i + 1].op == Op::Eq &&
        ins[i + 2].op == Op::Push && ins[i + 3].op == Op::JumpI)
      selectors.insert(ins[i].imm);
  return std::vector<Word>(selectors.begin(), selectors.end());
}

AdmissionVerdict admit(const AnalysisReport& report,
                       const AdmissionPolicy& policy) {
  const auto reject = [](std::string reason) {
    return AdmissionVerdict{false, std::move(reason)};
  };
  if (policy.reject_malformed && !report.well_formed)
    return reject("malformed bytecode (undefined opcode or truncated "
                  "immediate)");
  if (policy.reject_invalid_jumps && !report.invalid_jump_pcs.empty())
    return reject("invalid jump target at pc " +
                  std::to_string(report.invalid_jump_pcs.front()));
  if (policy.reject_unresolved_jumps && !report.unresolved_jump_pcs.empty())
    return reject("non-constant jump target at pc " +
                  std::to_string(report.unresolved_jump_pcs.front()));
  if (policy.reject_stack_violations) {
    if (report.stack.underflow_possible)
      return reject("possible stack underflow");
    if (report.stack.overflow_possible)
      return reject("possible stack overflow (depth can exceed " +
                    std::to_string(kMaxStack) + ")");
    if (report.stack.top)
      return reject("no provable stack bound (analysis incomplete)");
  }
  if (policy.require_bounded_gas && report.gas.top)
    return reject("no finite gas bound (loop or unresolved control flow)");
  if (policy.max_gas_bound.has_value() && !report.gas.top &&
      report.gas.max > *policy.max_gas_bound)
    return reject("gas bound " + std::to_string(report.gas.max) +
                  " exceeds policy limit " +
                  std::to_string(*policy.max_gas_bound));
  return {};
}

std::string soundness_violation(const AnalysisReport& report,
                                const ExecTrace& trace,
                                const ExecResult& result) {
  if (!report.gas.top && result.gas_used > report.gas.max)
    return "dynamic gas " + std::to_string(result.gas_used) +
           " exceeds static bound " + std::to_string(report.gas.max);
  if (!report.stack.top && trace.max_stack > report.stack.max_depth)
    return "dynamic stack depth " + std::to_string(trace.max_stack) +
           " exceeds static bound " + std::to_string(report.stack.max_depth);

  using Kind = FootprintEntry::Kind;
  const bool all_top = report.incomplete;
  if (!all_top && !report.footprint.unbounded(Kind::Read)) {
    const std::set<Word> reads = report.footprint.exact_keys(Kind::Read);
    for (const Word key : trace.reads)
      if (reads.count(key) == 0)
        return "dynamic read of key " + std::to_string(key) +
               " outside the static read set";
  }
  if (!all_top && !report.footprint.unbounded(Kind::Write)) {
    const std::set<Word> writes = report.footprint.exact_keys(Kind::Write);
    for (const Word key : trace.writes)
      if (writes.count(key) == 0)
        return "dynamic write of key " + std::to_string(key) +
               " outside the static write set";
  }
  if (!all_top && !report.footprint.unbounded(Kind::ForeignRead)) {
    std::set<std::pair<Word, Word>> pairs;
    for (const FootprintEntry& e : report.footprint.entries)
      if (e.kind == Kind::ForeignRead)
        pairs.emplace(e.contract.value, e.key.value);
    for (const auto& fr : trace.foreign_reads)
      if (pairs.count(fr) == 0)
        return "dynamic foreign read (" + std::to_string(fr.first) + ", " +
               std::to_string(fr.second) + ") outside the static set";
  }
  return {};
}

std::vector<SelectorSummary> summarize_selectors(BytesView code) {
  return summarize_selectors(decode_program(code));
}

std::vector<SelectorSummary> summarize_selectors(const Program& program) {
  std::vector<SelectorSummary> summaries;
  const std::vector<Word> selectors = discover_selectors(program);
  for (const Word sel : selectors) {
    if (summaries.size() >= kMaxSelectorSummaries) break;
    AnalyzeOptions opts;
    opts.selector = sel;
    AnalysisReport per = analyze(program, opts);
    summaries.push_back(
        {sel, per.incomplete, std::move(per.footprint)});
  }
  return summaries;
}

const SelectorSummary* summary_for(
    const std::vector<SelectorSummary>& summaries,
    const std::vector<Word>& calldata) {
  if (calldata.empty()) return nullptr;
  for (const SelectorSummary& s : summaries)
    if (s.selector == calldata.front()) return &s;
  return nullptr;
}

ConcreteFootprint concretize_footprint(const StorageFootprint& fp,
                                       const SymbolicEnv& env) {
  ConcreteFootprint out;
  const auto eval_key = [&env](const AbsValue& v) -> std::optional<Word> {
    if (v.is_const()) return v.value;
    if (v.cls == ValueClass::Param && v.sym)
      return eval_symbolic(*v.sym, env);
    return std::nullopt;
  };
  for (const FootprintEntry& e : fp.entries) {
    switch (e.kind) {
      case FootprintEntry::Kind::Read:
        if (const auto key = eval_key(e.key))
          out.reads.insert(*key);
        else
          out.reads_exact = false;
        break;
      case FootprintEntry::Kind::Write:
        if (const auto key = eval_key(e.key))
          out.writes.insert(*key);
        else
          out.writes_exact = false;
        break;
      case FootprintEntry::Kind::ForeignRead: {
        const auto contract = eval_key(e.contract);
        const auto key = eval_key(e.key);
        if (contract && key)
          out.foreign_reads.emplace(*contract, *key);
        else
          out.foreign_exact = false;
        break;
      }
    }
  }
  return out;
}

std::string concretization_violation(const StorageFootprint& fp,
                                     const SymbolicEnv& env,
                                     const ExecTrace& trace) {
  const ConcreteFootprint cf = concretize_footprint(fp, env);
  if (cf.reads_exact) {
    for (const Word key : trace.reads)
      if (cf.reads.count(key) == 0)
        return "dynamic read of key " + std::to_string(key) +
               " outside the concretized read set";
  }
  if (cf.writes_exact) {
    for (const Word key : trace.writes)
      if (cf.writes.count(key) == 0)
        return "dynamic write of key " + std::to_string(key) +
               " outside the concretized write set";
  }
  if (cf.foreign_exact) {
    for (const auto& fr : trace.foreign_reads)
      if (cf.foreign_reads.count(fr) == 0)
        return "dynamic foreign read (" + std::to_string(fr.first) + ", " +
               std::to_string(fr.second) +
               ") outside the concretized set";
  }
  return {};
}

}  // namespace mc::vm::analysis
