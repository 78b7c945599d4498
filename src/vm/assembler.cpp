#include "vm/assembler.hpp"

#include <charconv>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/hex.hpp"
#include "vm/opcode.hpp"
#include "vm/program.hpp"

namespace mc::vm {
namespace {

struct Token {
  std::string mnemonic;
  std::string operand;  // empty, number, or @label
  std::size_t line = 0;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

std::uint64_t parse_number(const std::string& text, std::size_t line) {
  std::uint64_t value = 0;
  std::from_chars_result r{};
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    r = std::from_chars(text.data() + 2, text.data() + text.size(), value, 16);
  } else {
    r = std::from_chars(text.data(), text.data() + text.size(), value, 10);
  }
  if (r.ec != std::errc{} || r.ptr != text.data() + text.size())
    throw AssembleError(line, "bad numeric operand '" + text + "'");
  return value;
}

}  // namespace

Bytes assemble(std::string_view source) {
  // Pass 1: tokenize, record label offsets while measuring encoded size.
  std::vector<Token> tokens;
  std::unordered_map<std::string, std::uint64_t> labels;
  std::size_t offset = 0;
  std::size_t line_no = 0;

  std::istringstream lines{std::string(source)};
  std::string raw_line;
  while (std::getline(lines, raw_line)) {
    ++line_no;
    std::string_view line = trim(raw_line);
    if (const auto comment = line.find(';'); comment != std::string_view::npos)
      line = trim(line.substr(0, comment));
    if (line.empty()) continue;

    if (line.back() == ':') {
      const std::string label(trim(line.substr(0, line.size() - 1)));
      if (label.empty()) throw AssembleError(line_no, "empty label");
      if (!labels.emplace(label, offset).second)
        throw AssembleError(line_no, "duplicate label '" + label + "'");
      continue;
    }

    Token tok;
    tok.line = line_no;
    const auto space = line.find_first_of(" \t");
    if (space == std::string_view::npos) {
      tok.mnemonic = std::string(line);
    } else {
      tok.mnemonic = std::string(trim(line.substr(0, space)));
      tok.operand = std::string(trim(line.substr(space + 1)));
    }

    const auto op = op_from_mnemonic(tok.mnemonic);
    if (!op.has_value())
      throw AssembleError(line_no, "unknown mnemonic '" + tok.mnemonic + "'");

    // `JUMP @label` / `JUMPI @label` sugar expands to PUSH + JUMP(I).
    const bool sugar = (*op == Op::Jump || *op == Op::JumpI) &&
                       !tok.operand.empty() && tok.operand[0] == '@';
    if (sugar) {
      Token push;
      push.line = line_no;
      push.mnemonic = "PUSH";
      push.operand = tok.operand;
      tokens.push_back(push);
      offset += 9;  // PUSH + imm64
      tok.operand.clear();
    }

    const int width = immediate_width(*op);
    if (width == 0 && !tok.operand.empty())
      throw AssembleError(line_no,
                          tok.mnemonic + " takes no operand");
    if (width > 0 && tok.operand.empty())
      throw AssembleError(line_no, tok.mnemonic + " needs an operand");

    tokens.push_back(tok);
    offset += 1 + static_cast<std::size_t>(width);
    if (offset > kMaxCodeBytes)
      throw AssembleError(line_no, "program exceeds " +
                                       std::to_string(kMaxCodeBytes) +
                                       " bytecode bytes");
  }

  // Pass 2: encode with labels resolved.
  Bytes code;
  code.reserve(offset);
  for (const auto& tok : tokens) {
    const Op op = *op_from_mnemonic(tok.mnemonic);
    code.push_back(static_cast<std::uint8_t>(op));
    const int width = immediate_width(op);
    if (width == 0) continue;

    std::uint64_t value = 0;
    if (!tok.operand.empty() && tok.operand[0] == '@') {
      const std::string label = tok.operand.substr(1);
      auto it = labels.find(label);
      if (it == labels.end())
        throw AssembleError(tok.line, "undefined label '" + label + "'");
      value = it->second;
    } else {
      value = parse_number(tok.operand, tok.line);
    }
    if (width == 1 && value > 0xff)
      throw AssembleError(tok.line, "operand exceeds one byte");
    for (int i = 0; i < width; ++i)
      code.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
  return code;
}

std::string disassemble(BytesView code) {
  std::ostringstream out;
  for (const Instr& in : decode_program(code).instrs) {
    out << in.pc << ": ";
    if (!in.valid) {
      // The decode stop: an undefined opcode, or a truncated immediate
      // (untrusted bytecode reaches the disassembler via debug tooling).
      if (is_valid_op(code[in.pc]))
        out << "<truncated " << mnemonic(in.op) << ">\n";
      else
        out << "<bad 0x" << std::hex << static_cast<int>(code[in.pc])
            << std::dec << ">\n";
      break;
    }
    out << mnemonic(in.op);
    if (immediate_width(in.op) > 0) out << ' ' << in.imm;
    out << '\n';
  }
  return out.str();
}

}  // namespace mc::vm
