// Control-flow graph layer of the bytecode static analyzer.
//
// Builds basic blocks over the VM's decoded Program (vm/program.hpp, the
// same decoding vm::execute runs over) once the abstract interpreter has
// resolved constant jump targets. The block graph is what the gas bound
// (longest acyclic path), loop-head identification (back edges) and
// unreachable-code detection are computed on.
#pragma once

#include <cstdint>
#include <vector>

#include "vm/program.hpp"

namespace mc::vm::analysis {

/// Basic block over [first_instr, past_instr) indices into
/// Program::instrs. Successor lists hold block indices.
struct CfgBlock {
  std::size_t first_instr = 0;
  std::size_t past_instr = 0;
  std::size_t first_pc = 0;
  std::vector<std::size_t> successors;
  bool reachable = false;
  bool loop_head = false;  ///< target of a back edge (DFS on reachable blocks)
};

struct Cfg {
  std::vector<CfgBlock> blocks;
  /// blocks index for each instruction index.
  std::vector<std::size_t> block_of;
  bool has_cycle = false;
};

/// Per-instruction successor sets resolved by the abstract interpreter
/// (fall-throughs plus constant jump targets; empty for terminators).
using SuccessorMap = std::vector<std::vector<std::size_t>>;

/// Build basic blocks from resolved successors. `reachable` marks the
/// instruction indices the interpreter actually visited.
[[nodiscard]] Cfg build_cfg(const Program& program, const SuccessorMap& succs,
                            const std::vector<bool>& reachable);

/// Worst-case gas along any path from the entry block, summing each
/// instruction's decoded gas cost. Returns false (top) when the reachable
/// subgraph has a cycle; loop heads are flagged on the Cfg by build_cfg.
[[nodiscard]] bool longest_path_gas(const Program& program, const Cfg& cfg,
                                    std::uint64_t& out_gas);

}  // namespace mc::vm::analysis
