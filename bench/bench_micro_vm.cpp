// Micro-benchmarks: contract VM dispatch, storage ops, full contract
// calls (google-benchmark).
#include <benchmark/benchmark.h>

#include "contracts/policy.hpp"
#include "vm/analysis/analysis.hpp"
#include "vm/assembler.hpp"
#include "vm/contract_store.hpp"
#include "vm/vm.hpp"

namespace {

using namespace mc;
using namespace mc::vm;

void BM_OpcodeDispatchLoop(benchmark::State& state) {
  // Tight arithmetic loop: measures raw instruction dispatch rate.
  const Bytes code = assemble(R"(
PUSH 0
loop:
PUSH 1
ADD
DUP 1
PUSH 10000
LT
JUMPI @loop
RETURN 1
)");
  Storage storage;
  ExecContext ctx;
  ctx.gas_limit = ~0ULL;
  NullHost host;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const ExecResult result = execute(BytesView(code), storage, ctx, host);
    benchmark::DoNotOptimize(result.returned);
    steps += result.steps;
  }
  state.counters["instr_per_s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OpcodeDispatchLoop);

void BM_StorageWrites(benchmark::State& state) {
  const Bytes code = assemble(R"(
PUSH 0
loop:
DUP 1
DUP 2
SSTORE
PUSH 1
ADD
DUP 1
PUSH 100
LT
JUMPI @loop
STOP
)");
  ExecContext ctx;
  ctx.gas_limit = ~0ULL;
  NullHost host;
  for (auto _ : state) {
    Storage storage;  // fresh map per run
    benchmark::DoNotOptimize(execute(BytesView(code), storage, ctx, host));
  }
}
BENCHMARK(BM_StorageWrites);

void BM_PolicyCheckCall(benchmark::State& state) {
  // Full contract-call path: the gate the transform pays per task.
  ContractStore store;
  contracts::PolicyContract policy(store, 1, 1);
  policy.register_dataset(0x10, 0xd5);
  policy.grant(0x10, 0xd5, 0x20, contracts::kPermCompute);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        policy.check(0xd5, 0x20, contracts::kPermCompute));
}
BENCHMARK(BM_PolicyCheckCall);

void BM_PatientRecordCall(benchmark::State& state) {
  // bench_c8's C8c record call (2000 mixing rounds, ~128k gas) through
  // ContractStore::call_speculative, the path the wave executor takes
  // for every contract tx: reports the interpreter's instruction rate on
  // the call that dominates blockbench's replay_patient.
  ContractStore store;
  const Word id = store.deploy(assemble(R"(
PUSH 0
CALLDATALOAD
PUSH 1
EQ
JUMPI @work
REVERT
work:
PUSH 2
CALLDATALOAD
PUSH 1
CALLDATALOAD
loop:
DUP 1
ISZERO
JUMPI @done
PUSH 1
SUB
SWAP 1
PUSH 48271
MUL
PUSH 11
ADD
DUP 1
PUSH 7
SHR
XOR
SWAP 1
JUMP @loop
done:
POP
PUSH 7
PUSH 3
CALLDATALOAD
HASHN 2
DUP 1
SLOAD
DUP 3
ADD
SWAP 1
SSTORE
POP
STOP
)"),
                               /*deployer=*/1, /*height=*/1);
  // 256 committed patient cells, as on replay_patient once it warms up.
  for (Word patient = 0; patient < 256; ++patient) {
    ExecContext seed;
    seed.gas_limit = 500'000;
    seed.calldata = {1, 0, patient, patient};
    store.call(id, seed);
  }
  ExecContext ctx;
  ctx.gas_limit = 500'000;
  std::uint64_t steps = 0;
  Word patient = 0;
  for (auto _ : state) {
    ctx.calldata = {1, 2'000, patient, patient};
    patient = (patient + 1) % 256;
    const auto spec = store.call_speculative(id, ctx);
    benchmark::DoNotOptimize(spec->writes);
    steps += spec->result.steps;
  }
  state.counters["instr_per_s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PatientRecordCall);

void BM_Assemble(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        assemble(contracts::PolicyContract::source()));
}
BENCHMARK(BM_Assemble);

void BM_AnalyzeContract(benchmark::State& state) {
  // Static-analyzer throughput over the largest builtin contract: the
  // one-time cost the deployment admission gate adds per contract.
  const Bytes code = assemble(contracts::PolicyContract::source());
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const analysis::AnalysisReport report = analysis::analyze(BytesView(code));
    benchmark::DoNotOptimize(report.stack.max_depth);
    bytes += code.size();
  }
  state.counters["bytecode_bytes_per_s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AnalyzeContract);

void BM_HashNOpcode(benchmark::State& state) {
  const Bytes code = assemble("PUSH 1\nPUSH 2\nPUSH 3\nHASHN 3\nRETURN 1");
  Storage storage;
  ExecContext ctx;
  NullHost host;
  for (auto _ : state)
    benchmark::DoNotOptimize(execute(BytesView(code), storage, ctx, host));
}
BENCHMARK(BM_HashNOpcode);

}  // namespace

BENCHMARK_MAIN();
