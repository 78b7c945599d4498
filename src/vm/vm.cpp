#include "vm/vm.hpp"

#include <algorithm>
#include <array>

#include "audit/check.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace mc::vm {
std::string_view halt_name(Halt h) {
  switch (h) {
    case Halt::Stop: return "stop";
    case Halt::Return: return "return";
    case Halt::Revert: return "revert";
    case Halt::OutOfGas: return "out-of-gas";
    case Halt::StackUnderflow: return "stack-underflow";
    case Halt::StackOverflow: return "stack-overflow";
    case Halt::BadJump: return "bad-jump";
    case Halt::BadOpcode: return "bad-opcode";
    case Halt::DivideByZero: return "divide-by-zero";
    case Halt::OracleFailure: return "oracle-failure";
    case Halt::StepLimit: return "step-limit";
  }
  return "unknown";
}

bool code_well_formed(BytesView code) {
  return decode_program(code).well_formed;
}

ExecResult execute(BytesView code, Storage& storage, const ExecContext& ctx,
                   Host& host) {
  Storage working = storage;  // all-or-nothing: commit on success
  const ExecResult result = execute(decode_program(code), working, ctx, host);
  if (result.ok()) storage = std::move(working);
  return result;
}

ExecResult execute(const Program& program, Storage& storage,
                   const ExecContext& ctx, Host& host) {
  ExecResult result;
  std::vector<Event> events;
  ExecTrace* const trace = ctx.trace;
  const Instr* const instrs = program.instrs.data();
  const std::size_t count = program.instrs.size();

  std::array<Word, kMaxStack> stack{};  // slots [0, sp) are live
  std::size_t sp = 0;
  // Deepest stack after any retired instruction. Only the growing ops
  // (PUSH, DUP, CALLDATASIZE, environment reads) can set a new peak.
  std::size_t peak = 0;
  std::uint64_t gas = 0;
  std::uint64_t steps = 0;

  const auto finish = [&](Halt h) {
    result.halt = h;
    result.steps = steps;
    result.gas_used = std::min(gas, ctx.gas_limit);  // == gas unless OutOfGas
    if (trace != nullptr) trace->max_stack = std::max(trace->max_stack, peak);
    if (halted_ok(h))
      for (const auto& ev : events) host.on_event(ev);
    return result;
  };
  const auto push = [&](Word v) {
    stack[sp++] = v;
    peak = std::max(peak, sp);
  };

  std::size_t i = 0;
  while (i < count) {
    MC_DCHECK(sp <= kMaxStack, "VM stack exceeded its hard bound");
    MC_DCHECK(gas <= ctx.gas_limit, "VM retired an instruction past its gas");
    const Instr& in = instrs[i];
    // An undefined opcode or truncated immediate traps before any charge.
    if (!in.valid) return finish(Halt::BadOpcode);
    gas += in.gas;
    if (gas > ctx.gas_limit) return finish(Halt::OutOfGas);
    if (++steps > ctx.step_limit) return finish(Halt::StepLimit);
    ++i;

    switch (in.op) {
      case Op::Stop:
        return finish(Halt::Stop);

      case Op::Push:
        if (sp >= kMaxStack) return finish(Halt::StackOverflow);
        push(in.imm);
        break;

      case Op::Pop:
        if (sp < 1) return finish(Halt::StackUnderflow);
        --sp;
        break;

      case Op::Dup: {
        const auto depth = static_cast<std::size_t>(in.imm);
        if (depth == 0 || sp < depth) return finish(Halt::StackUnderflow);
        if (sp >= kMaxStack) return finish(Halt::StackOverflow);
        push(stack[sp - depth]);
        break;
      }

      case Op::Swap: {
        const auto depth = static_cast<std::size_t>(in.imm);
        if (depth == 0 || sp < depth + 1) return finish(Halt::StackUnderflow);
        std::swap(stack[sp - 1], stack[sp - 1 - depth]);
        break;
      }

      // Binary ops: a = stack[sp-2], b = stack[sp-1]; the result
      // replaces a.
      case Op::Add:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] += stack[sp];
        break;
      case Op::Sub:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] -= stack[sp];
        break;
      case Op::Mul:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] *= stack[sp];
        break;
      case Op::Div:
        if (sp < 2) return finish(Halt::StackUnderflow);
        if (stack[sp - 1] == 0) return finish(Halt::DivideByZero);
        --sp;
        stack[sp - 1] /= stack[sp];
        break;
      case Op::Mod:
        if (sp < 2) return finish(Halt::StackUnderflow);
        if (stack[sp - 1] == 0) return finish(Halt::DivideByZero);
        --sp;
        stack[sp - 1] %= stack[sp];
        break;
      case Op::Lt:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] = stack[sp - 1] < stack[sp] ? 1 : 0;
        break;
      case Op::Gt:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] = stack[sp - 1] > stack[sp] ? 1 : 0;
        break;
      case Op::Eq:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] = stack[sp - 1] == stack[sp] ? 1 : 0;
        break;
      case Op::And:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] &= stack[sp];
        break;
      case Op::Or:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] |= stack[sp];
        break;
      case Op::Xor:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] ^= stack[sp];
        break;
      case Op::Shl:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] = stack[sp] >= 64 ? 0 : stack[sp - 1] << stack[sp];
        break;
      case Op::Shr:
        if (sp < 2) return finish(Halt::StackUnderflow);
        --sp;
        stack[sp - 1] = stack[sp] >= 64 ? 0 : stack[sp - 1] >> stack[sp];
        break;

      case Op::IsZero:
        if (sp < 1) return finish(Halt::StackUnderflow);
        stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0;
        break;
      case Op::Not:
        if (sp < 1) return finish(Halt::StackUnderflow);
        stack[sp - 1] = ~stack[sp - 1];
        break;

      case Op::Jump: {
        if (sp < 1) return finish(Halt::StackUnderflow);
        const Word target = stack[--sp];
        if (!program.is_boundary(target)) return finish(Halt::BadJump);
        i = program.instr_at[static_cast<std::size_t>(target)];
        break;
      }

      case Op::JumpI: {
        if (sp < 2) return finish(Halt::StackUnderflow);
        const Word target = stack[sp - 1];
        const Word cond = stack[sp - 2];
        sp -= 2;
        if (cond != 0) {
          if (!program.is_boundary(target)) return finish(Halt::BadJump);
          i = program.instr_at[static_cast<std::size_t>(target)];
        }
        break;
      }

      case Op::CallDataLoad: {
        if (sp < 1) return finish(Halt::StackUnderflow);
        const Word index = stack[sp - 1];
        stack[sp - 1] = index < ctx.calldata.size()
                            ? ctx.calldata[static_cast<std::size_t>(index)]
                            : 0;
        break;
      }

      case Op::CallDataSize:
        if (sp >= kMaxStack) return finish(Halt::StackOverflow);
        push(ctx.calldata.size());
        break;

      case Op::SLoad: {
        if (sp < 1) return finish(Halt::StackUnderflow);
        const Word key = stack[sp - 1];
        if (trace != nullptr) trace->reads.insert(key);
        auto it = storage.find(key);
        stack[sp - 1] = it == storage.end() ? 0 : it->second;
        break;
      }

      case Op::SxLoad: {
        if (sp < 2) return finish(Halt::StackUnderflow);
        const Word target = stack[sp - 1];
        const Word key = stack[sp - 2];
        sp -= 2;
        if (trace != nullptr) trace->foreign_reads.emplace(target, key);
        const std::optional<Word> value = host.foreign_storage(target, key);
        if (!value.has_value()) return finish(Halt::OracleFailure);
        push(*value);
        break;
      }

      case Op::SStore: {
        if (sp < 2) return finish(Halt::StackUnderflow);
        const Word key = stack[sp - 1];
        const Word value = stack[sp - 2];
        sp -= 2;
        if (trace != nullptr) trace->writes.insert(key);
        if (value == 0)
          storage.erase(key);
        else
          storage[key] = value;
        break;
      }

      // Environment reads grow the stack like PUSH and need the same
      // overflow trap (a CALLER-flood program must not blow the cap).
      case Op::Caller:
        if (sp >= kMaxStack) return finish(Halt::StackOverflow);
        push(ctx.caller);
        break;
      case Op::CallValue:
        if (sp >= kMaxStack) return finish(Halt::StackOverflow);
        push(ctx.call_value);
        break;
      case Op::Height:
        if (sp >= kMaxStack) return finish(Halt::StackOverflow);
        push(ctx.height);
        break;
      case Op::Timestamp:
        if (sp >= kMaxStack) return finish(Halt::StackOverflow);
        push(ctx.time_ms);
        break;
      case Op::GasLeft:
        if (sp >= kMaxStack) return finish(Halt::StackOverflow);
        push(ctx.gas_limit - gas);
        break;

      case Op::Emit: {
        const auto n = static_cast<std::size_t>(in.imm);
        if (sp < n + 1) return finish(Halt::StackUnderflow);
        Event ev;
        ev.contract_id = ctx.contract_id;
        ev.height = ctx.height;
        ev.topic = stack[--sp];
        ev.args.assign(stack.begin() + static_cast<std::ptrdiff_t>(sp - n),
                       stack.begin() + static_cast<std::ptrdiff_t>(sp));
        sp -= n;
        events.push_back(std::move(ev));
        break;
      }

      case Op::HashN: {
        const auto n = static_cast<std::size_t>(in.imm);
        if (n == 0 || sp < n) return finish(Halt::StackUnderflow);
        ByteWriter w;
        for (std::size_t k = sp - n; k < sp; ++k) w.u64(stack[k]);
        sp -= n;
        push(crypto::sha256(BytesView(w.data())).prefix_u64());
        break;
      }

      case Op::Oracle: {
        if (sp < 1) return finish(Halt::StackUnderflow);
        const std::optional<Word> reply = host.oracle(stack[sp - 1]);
        if (!reply.has_value()) return finish(Halt::OracleFailure);
        stack[sp - 1] = *reply;
        break;
      }

      case Op::Return: {
        const auto n = static_cast<std::size_t>(in.imm);
        if (sp < n) return finish(Halt::StackUnderflow);
        result.returned.assign(
            stack.begin() + static_cast<std::ptrdiff_t>(sp - n),
            stack.begin() + static_cast<std::ptrdiff_t>(sp));
        return finish(Halt::Return);
      }

      case Op::Revert:
        return finish(Halt::Revert);
    }
  }

  // Falling off the end behaves like STOP.
  return finish(Halt::Stop);
}

}  // namespace mc::vm
