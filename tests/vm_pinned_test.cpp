// Pinned-outcome oracle for the contract VM.
//
// Every fuzz/corpus/vm_execute seed runs under two fixed contexts and its
// full outcome is compared with a committed table: halt, gas, steps,
// returned words, delivered events, post-storage and the ExecTrace
// (reads, writes, foreign reads, peak stack depth). The table was
// recorded from the byte-walking interpreter, so any change to the
// interpreter's dispatch, decoding or trap order that alters an outcome
// fails here, independent of the VM's own code. A seed with no row, or a
// row with no seed, fails too.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "vm/vm.hpp"

#ifndef MEDCHAIN_CORPUS_DIR
#error "build must define MEDCHAIN_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace mc::vm {
namespace {

namespace fs = std::filesystem;

/// Deterministic host: the fuzz harness's oracle rule, a pure function
/// for foreign storage (contract 0 traps), and every delivered event kept.
class PinnedHost : public Host {
 public:
  std::optional<Word> oracle(Word request) override {
    if ((request & 7) == 0) return std::nullopt;
    return request * 2654435761ULL + 1;
  }
  void on_event(const Event& event) override { events.push_back(event); }
  std::optional<Word> foreign_storage(Word contract_id, Word key) override {
    if (contract_id == 0) return std::nullopt;
    return contract_id * 1000 + key;
  }

  std::vector<Event> events;
};

struct PinnedContext {
  const char* name;
  std::uint64_t gas_limit;
  std::uint64_t step_limit;
};

/// `harness` is fuzz_vm_execute's context; `steps` lifts gas and caps
/// steps, so loops end in StepLimit instead of OutOfGas.
constexpr PinnedContext kContexts[] = {
    {"harness", 100'000, 50'000},
    {"steps", 1'000'000, 1'000},
};

template <typename Seq, typename Fn>
void join(std::ostringstream& out, const Seq& seq, Fn&& each) {
  bool first = true;
  for (const auto& item : seq) {
    if (!first) out << ',';
    first = false;
    each(item);
  }
}

std::string run_pinned(BytesView code, const PinnedContext& pc) {
  Storage storage{{1, 7}, {42, 9}};
  ExecTrace trace;
  ExecContext ctx;
  ctx.contract_id = 11;
  ctx.caller = 22;
  ctx.call_value = 33;
  ctx.height = 44;
  ctx.time_ms = 55;
  ctx.gas_limit = pc.gas_limit;
  ctx.step_limit = pc.step_limit;
  ctx.calldata = {1, 2, 3, 0xdeadbeefULL};
  ctx.trace = &trace;
  PinnedHost host;
  const ExecResult r = execute(code, storage, ctx, host);

  std::ostringstream out;
  out << "halt=" << halt_name(r.halt) << " gas=" << r.gas_used
      << " steps=" << r.steps << " ret=[";
  join(out, r.returned, [&](Word w) { out << w; });
  out << "] ev=[";
  join(out, host.events, [&](const Event& e) {
    out << e.contract_id << ':' << e.topic << '@' << e.height << '(';
    join(out, e.args, [&](Word w) { out << w; });
    out << ')';
  });
  out << "] st={";
  join(out, storage, [&](const auto& kv) { out << kv.first << ':' << kv.second; });
  out << "} rd={";
  join(out, trace.reads, [&](Word w) { out << w; });
  out << "} wr={";
  join(out, trace.writes, [&](Word w) { out << w; });
  out << "} fr={";
  join(out, trace.foreign_reads,
       [&](const auto& cell) { out << cell.first << '/' << cell.second; });
  out << "} max=" << trace.max_stack;
  return out.str();
}

struct Pinned {
  const char* seed;
  const char* context;
  const char* outcome;
};

// clang-format off
constexpr Pinned kPinned[] = {
    {"caller_flood", "harness",
     "halt=stack-overflow gas=3075 steps=1025 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1024"},
    {"caller_flood", "steps",
     "halt=step-limit gas=3003 steps=1001 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1000"},
    {"dup_depth0", "harness",
     "halt=stack-underflow gas=6 steps=2 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
    {"dup_depth0", "steps",
     "halt=stack-underflow gas=6 steps=2 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
    {"dup_overflow", "harness",
     "halt=stack-overflow gas=3075 steps=1025 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1024"},
    {"dup_overflow", "steps",
     "halt=step-limit gas=3003 steps=1001 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1000"},
    {"endless_loop", "harness",
     "halt=out-of-gas gas=100000 steps=18181 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
    {"endless_loop", "steps",
     "halt=step-limit gas=5503 steps=1001 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
    {"fall_off_end", "harness",
     "halt=stop gas=115 steps=6 ret=[] ev=[] st={1:7,9:5,42:9} rd={} wr={9} fr={} max=2"},
    {"fall_off_end", "steps",
     "halt=stop gas=115 steps=6 ret=[] ev=[] st={1:7,9:5,42:9} rd={} wr={9} fr={} max=2"},
    {"gas_exact_limit", "harness",
     "halt=stop gas=100000 steps=23535 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=3"},
    {"gas_exact_limit", "steps",
     "halt=step-limit gas=4253 steps=1001 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=3"},
    {"gas_over_limit", "harness",
     "halt=out-of-gas gas=100000 steps=23535 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=3"},
    {"gas_over_limit", "steps",
     "halt=step-limit gas=4253 steps=1001 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=3"},
    {"jump_into_push_imm", "harness",
     "halt=bad-jump gas=11 steps=2 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
    {"jump_into_push_imm", "steps",
     "halt=bad-jump gas=11 steps=2 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
    {"jump_to_bad_opcode", "harness",
     "halt=bad-opcode gas=11 steps=2 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
    {"jump_to_bad_opcode", "steps",
     "halt=bad-opcode gas=11 steps=2 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
    {"mixed_ops", "harness",
     "halt=return gas=669 steps=50 ret=[98028494036,98028494036] ev=[11:2748@44(9,4992)] st={3:17874887412729673111,42:9} rd={42} wr={1,3} fr={5/9} max=6"},
    {"mixed_ops", "steps",
     "halt=return gas=669 steps=50 ret=[43223597501,43223597501] ev=[11:2748@44(9,4992)] st={3:12098995454731735579,42:9} rd={42} wr={1,3} fr={5/9} max=6"},
    {"policy_bytecode", "harness",
     "halt=return gas=282 steps=28 ret=[1] ev=[11:100@44(2,22)] st={1:7,42:9,18049411314830875541:22} rd={18049411314830875541} wr={18049411314830875541} fr={} max=4"},
    {"policy_bytecode", "steps",
     "halt=return gas=282 steps=28 ret=[1] ev=[11:100@44(2,22)] st={1:7,42:9,18049411314830875541:22} rd={18049411314830875541} wr={18049411314830875541} fr={} max=4"},
    {"push_overflow", "harness",
     "halt=stack-overflow gas=3075 steps=1025 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1024"},
    {"push_overflow", "steps",
     "halt=step-limit gas=3003 steps=1001 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1000"},
    {"swap_depth0", "harness",
     "halt=stack-underflow gas=9 steps=3 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=2"},
    {"swap_depth0", "steps",
     "halt=stack-underflow gas=9 steps=3 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=2"},
    {"trunc_push_imm", "harness",
     "halt=bad-opcode gas=0 steps=0 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=0"},
    {"trunc_push_imm", "steps",
     "halt=bad-opcode gas=0 steps=0 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=0"},
    {"trunc_push_tail", "harness",
     "halt=bad-opcode gas=6 steps=2 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
    {"trunc_push_tail", "steps",
     "halt=bad-opcode gas=6 steps=2 ret=[] ev=[] st={1:7,42:9} rd={} wr={} fr={} max=1"},
};
// clang-format on

Bytes read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

TEST(VmPinned, EveryCorpusSeedMatchesItsPinnedOutcome) {
  const fs::path dir = fs::path(MEDCHAIN_CORPUS_DIR) / "vm_execute";
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::map<std::pair<std::string, std::string>, std::string> table;
  for (const Pinned& p : kPinned)
    ASSERT_TRUE(table.emplace(std::make_pair(p.seed, p.context), p.outcome)
                    .second)
        << "duplicate row " << p.seed << "/" << p.context;

  std::size_t matched = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string seed = entry.path().filename().string();
    const Bytes code = read_file(entry.path());
    for (const PinnedContext& pc : kContexts) {
      const std::string actual = run_pinned(BytesView(code), pc);
      auto it = table.find({seed, pc.name});
      if (it == table.end()) {
        ADD_FAILURE() << "no pinned outcome; row:\n    {\"" << seed
                      << "\", \"" << pc.name << "\",\n     \"" << actual
                      << "\"},";
        continue;
      }
      EXPECT_EQ(it->second, actual) << seed << " under " << pc.name;
      ++matched;
    }
  }
  EXPECT_EQ(matched, table.size()) << "pinned rows without a corpus seed";
}

}  // namespace
}  // namespace mc::vm
