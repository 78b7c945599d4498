// Seed-corpus generator: writes one file per interesting input under
// fuzz/corpus/<target>/. Seeds are deterministic (fixed keys, fixed
// field values) so regenerating the corpus is reproducible; regression
// inputs for fixed bugs are listed explicitly with the bug they pin.
//
//   fuzz_gen_corpus <corpus-dir>
//
// Run after changing wire formats, then commit the refreshed files —
// the fuzz_regression test replays everything committed here.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>

#include "chain/block.hpp"
#include "chain/codec.hpp"
#include "chain/transaction.hpp"
#include "common/serial.hpp"
#include "contracts/policy.hpp"
#include "crypto/schnorr.hpp"
#include "vm/assembler.hpp"

namespace {

namespace fs = std::filesystem;

void write_seed(const fs::path& dir, const std::string& name,
                mc::BytesView data) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  if (!data.empty())
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  std::printf("  %s/%s (%zu bytes)\n", dir.string().c_str(), name.c_str(),
              data.size());
}

void write_seed(const fs::path& dir, const std::string& name,
                const std::string& text) {
  write_seed(dir, name, mc::str_bytes(text));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];

  using namespace mc;

  // Deterministic signed transaction (a real accept-path seed).
  const crypto::PrivateKey key = crypto::key_from_seed("fuzz-corpus-from");
  const crypto::PrivateKey to_key = crypto::key_from_seed("fuzz-corpus-to");
  chain::Transaction tx = chain::make_transfer(
      key, crypto::address_of(to_key.pub), /*amount=*/1000, /*nonce=*/1);
  tx.payload = to_bytes("seed-payload");
  tx.sign_with(key);

  write_seed(root / "tx_decode", "signed_transfer", BytesView(tx.encode()));
  {
    chain::Transaction anchor = tx;
    anchor.kind = chain::TxKind::Anchor;
    anchor.sign_with(key);
    write_seed(root / "tx_decode", "anchor_tx", BytesView(anchor.encode()));
  }

  // Block seeds: genesis header, a block carrying the tx above.
  chain::Block genesis = chain::make_genesis("medchain-fuzz", 0);
  write_seed(root / "block_decode", "genesis_header",
             BytesView(genesis.header.encode()));
  write_seed(root / "block_decode", "genesis_block",
             BytesView(genesis.encode()));
  chain::Block block;
  block.header.parent = genesis.id();
  block.header.height = 1;
  block.txs.push_back(tx);
  block.header.tx_root = block.compute_tx_root();
  write_seed(root / "block_decode", "one_tx_block", BytesView(block.encode()));
  // Regression (PR 4): a forged tx count must be rejected before any
  // count-proportional allocation, not OOM/length_error.
  {
    ByteWriter w;
    w.varint(genesis.header.encoded_size());
    genesis.header.encode_to(w);
    w.varint(0xffff'ffff'ffffULL);  // forged count, no tx bytes follow
    write_seed(root / "block_decode", "forged_txcount_bomb",
               BytesView(w.data()));
  }

  // Chain-file seeds.
  chain::ChainFile file;
  file.blocks.push_back(genesis);
  file.blocks.push_back(block);
  write_seed(root / "chainfile_decode", "two_block_chain",
             BytesView(file.encode()));
  {
    ByteWriter w;
    w.u32(chain::ChainFile::kMagic);
    w.varint(0x7fff'ffff'ffff'ffffULL);  // regression: forged block count
    write_seed(root / "chainfile_decode", "forged_blockcount_bomb",
               BytesView(w.data()));
  }

  // Serial-reader seeds: primitive soup with the op-select prefix byte.
  {
    ByteWriter w;
    w.u8(5);  // op stream selector
    w.varint(0);
    w.varint(127);
    w.varint(128);
    w.varint(0xffff'ffff'ffff'ffffULL);
    w.bytes(str_bytes("nested"));
    w.u64(0x0123456789abcdefULL);
    write_seed(root / "serial_reader", "varint_edges", BytesView(w.data()));
    write_seed(root / "serial_reader", "hex_text",
               std::string("00ff7fDEADbeef"));
    // Regression (PR 2): overlong varint encodings must be rejected.
    const std::uint8_t overlong[] = {6, 0x80, 0x00};
    write_seed(root / "serial_reader", "overlong_varint",
               BytesView(overlong, sizeof overlong));
  }

  // VM seeds: the real policy-contract bytecode plus crafted regressions.
  write_seed(root / "vm_execute", "policy_bytecode",
             BytesView(mc::contracts::PolicyContract::bytecode()));
  {
    // Regression (PR 4): PUSH with a truncated immediate used to make the
    // disassembler read past the end of the code blob.
    const std::uint8_t trunc_push[] = {0x01, 0x2a};
    write_seed(root / "vm_execute", "trunc_push_imm",
               BytesView(trunc_push, sizeof trunc_push));
    // Regression (PR 4): a CALLER flood must trap StackOverflow at the
    // stack cap instead of growing past it.
    Bytes flood(1100, 0x60);  // Op::Caller
    write_seed(root / "vm_execute", "caller_flood", BytesView(flood));
  }
  {
    // Interpreter boundary cases. tests/vm_pinned_test.cpp replays every
    // vm_execute seed against a table of pinned outcomes; the gas cases
    // are sized for the harness's 100'000 gas limit.
    const auto with_tail = [](Bytes code, std::initializer_list<std::uint8_t>
                                              tail) {
      code.insert(code.end(), tail.begin(), tail.end());
      return code;
    };
    const auto repeat = [](const std::string& line, int n) {
      std::string out;
      for (int i = 0; i < n; ++i) out += line;
      return out;
    };
    // pc 2 lies inside PUSH's immediate: BadJump.
    write_seed(root / "vm_execute", "jump_into_push_imm",
               BytesView(vm::assemble("PUSH 2\nJUMP")));
    // pc 10 holds an undefined opcode: a valid target that traps BadOpcode.
    write_seed(root / "vm_execute", "jump_to_bad_opcode",
               BytesView(with_tail(vm::assemble("PUSH 10\nJUMP"), {0xff})));
    // Retires two instructions, then meets a PUSH cut short by the end.
    write_seed(root / "vm_execute", "trunc_push_tail",
               BytesView(with_tail(vm::assemble("PUSH 5\nPOP"),
                                   {0x01, 0x2a, 0x00})));
    // 3 + 2939*34 + 17 + 3 + 8*6 + 3 = 100'000 gas: STOP retires at the
    // limit exactly. One more PUSH/POP pair: the PUSH lands on the limit,
    // the POP traps OutOfGas.
    const std::string countdown =
        "PUSH 2939\nloop:\nDUP 1\nISZERO\nJUMPI @done\nPUSH 1\nSUB\n"
        "JUMP @loop\ndone:\nPOP\n";
    write_seed(root / "vm_execute", "gas_exact_limit",
               BytesView(vm::assemble(countdown + repeat("PUSH 0\nPOP\n", 8) +
                                      "STOP")));
    write_seed(root / "vm_execute", "gas_over_limit",
               BytesView(vm::assemble(countdown + repeat("PUSH 0\nPOP\n", 9) +
                                      "STOP")));
    // Endless loop: OutOfGas under the harness, StepLimit under a tighter
    // step cap.
    write_seed(root / "vm_execute", "endless_loop",
               BytesView(vm::assemble("loop:\nJUMP @loop")));
    // kMaxStack pushes fit; the next PUSH / DUP traps StackOverflow.
    write_seed(root / "vm_execute", "push_overflow",
               BytesView(vm::assemble(repeat("PUSH 1\n", 1025))));
    write_seed(root / "vm_execute", "dup_overflow",
               BytesView(vm::assemble(repeat("PUSH 1\n", 1024) + "DUP 1")));
    // Depth 0 is StackUnderflow for both.
    write_seed(root / "vm_execute", "dup_depth0",
               BytesView(vm::assemble("PUSH 1\nDUP 0")));
    write_seed(root / "vm_execute", "swap_depth0",
               BytesView(vm::assemble("PUSH 1\nPUSH 2\nSWAP 0")));
    // No STOP: falling off the end commits like STOP.
    write_seed(root / "vm_execute", "fall_off_end",
               BytesView(vm::assemble("PUSH 5\nPUSH 9\nSSTORE\nPUSH 1\n"
                                      "PUSH 2\nADD")));
    // Environment reads, HASHN, storage set and erase, SXLOAD, ORACLE,
    // EMIT, arithmetic and RETURN in one successful run.
    write_seed(root / "vm_execute", "mixed_ops", BytesView(vm::assemble(R"(
CALLER
CALLVALUE
HEIGHT
TIMESTAMP
GASLEFT
CALLDATASIZE
HASHN 6
DUP 1
PUSH 3
SSTORE
PUSH 0
PUSH 1
SSTORE
PUSH 42
SLOAD
PUSH 9
PUSH 5
SXLOAD
PUSH 17
ORACLE
PUSH 7
MOD
PUSH 3
SHL
NOT
ADD
PUSH 2748
EMIT 2
PUSH 4
DIV
PUSH 48271
MUL
PUSH 5
SUB
DUP 1
PUSH 9
GT
ADD
DUP 1
PUSH 3
LT
OR
PUSH 1099511627775
AND
DUP 1
PUSH 1
SHR
XOR
DUP 1
RETURN 2
)")));
  }

  // Static-analyzer seeds: real contract bytecode (the precision path)
  // plus the four admission-rejection regressions the analysis tests
  // replay at deployment (invalid jumps, stack violations).
  write_seed(root / "analyze", "policy_bytecode",
             BytesView(mc::contracts::PolicyContract::bytecode()));
  {
    // Regression (PR 6): jump past the end of the code blob must be
    // flagged invalid_jump and rejected at deployment.
    ByteWriter w;
    w.u8(0x01);  // PUSH
    w.u64(9999);
    w.u8(0x30);  // JUMP
    write_seed(root / "analyze", "invalid_jump_oob", BytesView(w.data()));
  }
  {
    // Regression (PR 6): jump INTO a PUSH immediate (pc 2 is not an
    // instruction boundary) must be flagged invalid_jump.
    ByteWriter w;
    w.u8(0x01);  // PUSH
    w.u64(2);
    w.u8(0x30);  // JUMP
    write_seed(root / "analyze", "invalid_jump_misaligned",
               BytesView(w.data()));
  }
  {
    // Regression (PR 6): POP on an empty stack must set
    // underflow_possible and be rejected by the strict policy.
    const std::uint8_t pop_empty[] = {0x02};
    write_seed(root / "analyze", "stack_underflow",
               BytesView(pop_empty, sizeof pop_empty));
    // Regression (PR 6): a CALLER flood past kMaxStack must set
    // overflow_possible and be rejected by the strict policy.
    Bytes flood(1100, 0x60);  // Op::Caller
    write_seed(root / "analyze", "stack_overflow", BytesView(flood));
  }

  // Param-keyed analyzer seeds (PR 9): programs whose storage keys are
  // symbolic in calldata/env — the concretization leg of fuzz_analyze
  // must evaluate them to the exact cells the trace touches.
  {
    // storage[H(7, calldata[3])] += calldata[2] — the per-patient record
    // shape the parallel-execution bench schedules conflict-free.
    write_seed(root / "analyze", "patient_record",
               BytesView(vm::assemble(R"(
PUSH 0
CALLDATALOAD
DUP 1
PUSH 1
EQ
JUMPI @put
REVERT
put:
POP
PUSH 7
PUSH 3
CALLDATALOAD        ; [7, patient]
HASHN 2             ; [rkey]
DUP 1               ; [rkey, rkey]
SLOAD               ; [rkey, old]
PUSH 2
CALLDATALOAD        ; [rkey, old, delta]
ADD                 ; [rkey, new]
SWAP 1              ; [new, rkey]
SSTORE
PUSH 1
RETURN 1
)")));
    // storage[8*calldata[1] + 16] = calldata[2] — affine key, wraps mod
    // 2^64 exactly like the VM's arithmetic.
    write_seed(root / "analyze", "affine_key",
               BytesView(vm::assemble(R"(
PUSH 0
CALLDATALOAD
DUP 1
PUSH 1
EQ
JUMPI @put
REVERT
put:
POP
PUSH 2
CALLDATALOAD        ; [val]
PUSH 1
CALLDATALOAD        ; [val, cd1]
PUSH 8
MUL                 ; [val, 8*cd1]
PUSH 16
ADD                 ; [val, key]
SSTORE
PUSH 1
RETURN 1
)")));
    // storage[H(3, CALLER)] += 1 — key symbolic in the caller identity.
    write_seed(root / "analyze", "caller_keyed",
               BytesView(vm::assemble(R"(
PUSH 0
CALLDATALOAD
DUP 1
PUSH 1
EQ
JUMPI @bump
REVERT
bump:
POP
PUSH 3
CALLER              ; [3, caller]
HASHN 2             ; [ckey]
DUP 1               ; [ckey, ckey]
SLOAD               ; [ckey, old]
PUSH 1
ADD                 ; [ckey, new]
SWAP 1              ; [new, ckey]
SSTORE
PUSH 1
RETURN 1
)")));
    // Two selectors with disjoint footprints: per-selector summaries
    // must prune each entry point to its own key.
    write_seed(root / "analyze", "selector_switch",
               BytesView(vm::assemble(R"(
PUSH 0
CALLDATALOAD
DUP 1
PUSH 1
EQ
JUMPI @dyn
DUP 1
PUSH 2
EQ
JUMPI @fixed
REVERT
dyn:
POP
PUSH 1              ; [val]
PUSH 5
PUSH 1
CALLDATALOAD        ; [val, 5, cd1]
HASHN 2             ; [val, key]
SSTORE
PUSH 1
RETURN 1
fixed:
POP
PUSH 1              ; [val]
PUSH 42             ; [val, 42]
SSTORE
PUSH 1
RETURN 1
)")));
    // Key loaded from storage itself: symbolic evaluation has no model
    // for it, so the footprint must refuse to concretize (fall back to
    // the unbounded/recorded ladder), never invent a cell.
    write_seed(root / "analyze", "nonconcrete_storage_key",
               BytesView(vm::assemble(R"(
PUSH 0
CALLDATALOAD
DUP 1
PUSH 1
EQ
JUMPI @put
REVERT
put:
POP
PUSH 99             ; [val]
PUSH 1
SLOAD               ; [val, storage[1]]
SSTORE
PUSH 1
RETURN 1
)")));
  }

  // Contract-input seeds: policy source text and dispatcher calldata.
  write_seed(root / "contracts_input", "policy_source",
             std::string(mc::contracts::PolicyContract::source()));
  write_seed(root / "contracts_input", "tiny_program",
             std::string("PUSH 1\nPUSH 2\nADD\nRETURN 1\n"));
  {
    ByteWriter w;
    for (std::uint64_t v : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) w.u64(v);
    write_seed(root / "contracts_input", "selector_words",
               BytesView(w.data()));
  }

  // Round-trip seeds: arbitrary field streams (content is structural).
  {
    ByteWriter w;
    for (int i = 0; i < 64; ++i) w.u64(0x9e3779b97f4a7c15ULL * (i + 1));
    write_seed(root / "roundtrip", "field_stream", BytesView(w.data()));
    write_seed(root / "roundtrip", "empty", BytesView());
  }

  // Batch-verify seeds: op streams for the structure-aware sig_batch
  // target (8 seed bytes, then per-item: key byte, msg-len byte, msg
  // bytes, corruption-op byte). One all-valid batch, one per corruption
  // class, one cancellation pair.
  {
    ByteWriter w;
    w.u64(0x5eedULL);
    for (std::uint8_t i = 0; i < 12; ++i) {
      w.u8(i);        // key selector
      w.u8(1);        // one message byte
      w.u8(i);        // message
      w.u8(0);        // op 0: leave valid
    }
    write_seed(root / "sig_batch", "all_valid", BytesView(w.data()));
  }
  {
    ByteWriter w;
    w.u64(0xc0ffeeULL);
    for (std::uint8_t op = 0; op < 12; ++op) {
      w.u8(op);
      w.u8(2);
      w.u8(op);
      w.u8(0x55);
      w.u8(op);       // one item per corruption class
    }
    write_seed(root / "sig_batch", "one_per_corruption", BytesView(w.data()));
  }
  {
    ByteWriter w;
    w.u64(0x2b1dULL);
    const std::uint8_t ops[] = {0, 0, 9, 0};  // cancel pair at {earlier, 2}
    for (std::uint8_t i = 0; i < 4; ++i) {
      w.u8(i);
      w.u8(1);
      w.u8(static_cast<std::uint8_t>(0x40 + i));
      w.u8(ops[i]);
    }
    write_seed(root / "sig_batch", "cancellation_pair", BytesView(w.data()));
  }

  // Multi-lane sha256 seeds: byte 0 = batch size selector, then one
  // length byte per message, then the byte pool messages slice from.
  {
    ByteWriter w;
    w.u8(7);  // 8 messages: one full AVX2 lane group
    // Lengths on both padding boundaries (one vs two pad blocks).
    for (std::uint8_t len : {55, 56, 63, 64, 65, 0, 1, 127}) w.u8(len);
    for (int i = 0; i < 64; ++i) w.u8(static_cast<std::uint8_t>(i * 7));
    write_seed(root / "sha256_many", "boundary_lanes", BytesView(w.data()));
  }
  {
    // Multi-block seed: every lane long enough that the interleaved
    // kernels stream several full compressions before the pad block.
    ByteWriter w;
    w.u8(7);
    for (int i = 0; i < 8; ++i) w.u8(200);
    for (int i = 0; i < 200; ++i) w.u8(static_cast<std::uint8_t>(i * 13));
    write_seed(root / "sha256_many", "multi_block", BytesView(w.data()));
  }
  {
    ByteWriter w;
    w.u8(0);   // single message: scalar straggler path
    w.u8(32);
    for (int i = 0; i < 32; ++i) w.u8(static_cast<std::uint8_t>(0xa0 + i));
    write_seed(root / "sha256_many", "single", BytesView(w.data()));
  }
  {
    // Ragged mix: unequal lengths force the grouping + straggler logic.
    ByteWriter w;
    w.u8(11);  // 12 messages
    for (std::uint8_t len : {3, 3, 3, 3, 64, 64, 9, 100, 100, 100, 100, 0})
      w.u8(len);
    for (int i = 0; i < 96; ++i) w.u8(static_cast<std::uint8_t>(i ^ 0x5a));
    write_seed(root / "sha256_many", "ragged_pool", BytesView(w.data()));
  }

  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
