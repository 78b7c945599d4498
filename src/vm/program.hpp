// Decoded contract program: the VM's one bytecode decoder.
//
// Every consumer of contract bytecode reads it through decode_program():
// the interpreter (vm::execute), the static analyzer (vm/analysis), the
// well-formedness check (vm::code_well_formed), the deploy-time oracle
// scan and the disassembler. ContractStore decodes each contract once at
// deployment and every later call runs over the stored Program.
//
// Boundary rule: decoding walks from pc 0, one instruction at a time. The
// first undefined opcode or truncated immediate is decoded as an invalid
// instruction — itself a valid jump target that traps BadOpcode when
// executed — and decoding stops there; bytes beyond it, and bytes inside
// an immediate, are not instruction boundaries (a jump to them traps
// BadJump).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "vm/opcode.hpp"

namespace mc::vm {

using Word = std::uint64_t;

/// One decoded instruction. `valid == false` marks the trailing
/// undefined-opcode / truncated-immediate position: executing it traps
/// BadOpcode before charging gas, so its `gas` is 0.
struct Instr {
  std::size_t pc = 0;
  Word imm = 0;
  std::size_t size = 1;  ///< opcode byte + immediate bytes
  std::uint32_t gas = 0;  ///< gas_cost(op) for a valid instruction
  Op op = Op::Stop;
  bool valid = true;
};

/// Decoded program: instruction list plus the pc -> index map that jump
/// validation uses.
struct Program {
  std::vector<Instr> instrs;
  /// index into instrs for each code byte that starts an instruction;
  /// kNoInstr elsewhere (mid-immediate bytes, bytes past a decode stop).
  std::vector<std::size_t> instr_at;
  /// True when every byte decoded: no undefined opcode, no truncated
  /// immediate.
  bool well_formed = true;

  static constexpr std::size_t kNoInstr = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t code_size() const { return instr_at.size(); }

  [[nodiscard]] bool is_boundary(Word pc) const {
    return pc < instr_at.size() &&
           instr_at[static_cast<std::size_t>(pc)] != kNoInstr;
  }

  /// True when a valid decoded instruction is `op`.
  [[nodiscard]] bool contains(Op op) const;
};

[[nodiscard]] Program decode_program(BytesView code);

}  // namespace mc::vm
