#include "vm/opcode.hpp"

namespace mc::vm {

std::optional<Op> op_from_mnemonic(std::string_view name) {
  for (const auto& [mnem, op] : kMnemonics)
    if (mnem == name) return op;
  return std::nullopt;
}

std::string_view mnemonic(Op op) {
  for (const auto& [mnem, candidate] : kMnemonics)
    if (candidate == op) return mnem;
  return "UNKNOWN";
}

}  // namespace mc::vm
