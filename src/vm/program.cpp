#include "vm/program.hpp"

#include <algorithm>

namespace mc::vm {

Program decode_program(BytesView code) {
  Program program;
  program.instr_at.assign(code.size(), Program::kNoInstr);
  std::size_t pc = 0;
  while (pc < code.size()) {
    // Every decoded start is a boundary, including the undefined-opcode
    // position itself.
    program.instr_at[pc] = program.instrs.size();
    if (!is_valid_op(code[pc])) {
      program.instrs.push_back({pc, 0, 1, 0, Op::Stop, /*valid=*/false});
      program.well_formed = false;
      return program;
    }
    const Op op = static_cast<Op>(code[pc]);
    const auto width = static_cast<std::size_t>(immediate_width(op));
    if (pc + 1 + width > code.size()) {
      // Truncated immediate: decodes as a boundary, traps at execution.
      program.instrs.push_back(
          {pc, 0, code.size() - pc, 0, op, /*valid=*/false});
      program.well_formed = false;
      return program;
    }
    Word imm = 0;
    for (std::size_t i = 0; i < width; ++i)
      imm |= static_cast<Word>(code[pc + 1 + i]) << (8 * i);
    program.instrs.push_back({pc, imm, 1 + width,
                              static_cast<std::uint32_t>(gas_cost(op)), op,
                              /*valid=*/true});
    pc += 1 + width;
  }
  return program;
}

bool Program::contains(Op op) const {
  return std::any_of(instrs.begin(), instrs.end(), [op](const Instr& in) {
    return in.valid && in.op == op;
  });
}

}  // namespace mc::vm
