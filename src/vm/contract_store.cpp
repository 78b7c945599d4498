#include "vm/contract_store.hpp"

#include "audit/check.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace mc::vm {
namespace {

/// Forwards oracle calls to the outer host, holds a successful run's
/// events until call() has committed its storage, and serves
/// cross-contract reads from the store's committed state (so SXLOAD is
/// deterministic on-chain data, never an off-chain call).
class CapturingHost : public Host {
 public:
  CapturingHost(Host& inner, const std::map<Word, DeployedContract>& contracts)
      : inner_(inner), contracts_(contracts) {}

  std::optional<Word> oracle(Word request) override {
    return inner_.oracle(request);
  }

  void on_event(const Event& event) override { events.push_back(event); }

  std::optional<Word> foreign_storage(Word contract_id, Word key) override {
    auto it = contracts_.find(contract_id);
    if (it == contracts_.end()) return 0;  // unknown contract reads as 0
    auto slot = it->second.storage.find(key);
    return slot == it->second.storage.end() ? 0 : slot->second;
  }

  std::vector<Event> events;

 private:
  Host& inner_;
  const std::map<Word, DeployedContract>& contracts_;
};

/// Host for speculative runs: buffers events locally (committed later, or
/// never), records the value of every foreign read for commit-time
/// validation, and fails oracle requests — speculable() excludes oracle
/// contracts, so a trap here only means the gate was bypassed.
class SpeculativeHost : public Host {
 public:
  SpeculativeHost(SpeculativeCall& spec,
                  const std::map<Word, DeployedContract>& contracts)
      : spec_(spec), contracts_(contracts) {}

  std::optional<Word> oracle(Word /*request*/) override {
    return std::nullopt;
  }

  void on_event(const Event& event) override { spec_.events.push_back(event); }

  std::optional<Word> foreign_storage(Word contract_id, Word key) override {
    Word value = 0;  // unknown contract/key reads as 0, as CapturingHost
    auto it = contracts_.find(contract_id);
    if (it != contracts_.end()) {
      auto slot = it->second.storage.find(key);
      if (slot != it->second.storage.end()) value = slot->second;
    }
    spec_.observed.emplace(std::make_pair(contract_id, key), value);
    return value;
  }

 private:
  SpeculativeCall& spec_;
  const std::map<Word, DeployedContract>& contracts_;
};

#if defined(MEDCHAIN_AUDIT)
/// Audit leg of the symbolic-domain contract: evaluate the deployed
/// symbolic footprints under the call's fully-known environment and
/// require the dynamic trace to sit inside the concretized cells —
/// first the whole-program footprint, then the matching per-selector
/// summary (what the execution-layer concretizer schedules on).
std::string concretization_check(const DeployedContract& dc,
                                 const ExecContext& ctx,
                                 const ExecTrace& trace) {
  const analysis::SymbolicEnv env = analysis::env_of(ctx);
  const ContractCode& code = *dc.code;
  if (!code.report.incomplete) {
    std::string v =
        analysis::concretization_violation(code.report.footprint, env, trace);
    if (!v.empty()) return v;
  }
  const analysis::SelectorSummary* sum =
      analysis::summary_for(code.selector_summaries, ctx.calldata);
  if (sum != nullptr && !sum->incomplete)
    return analysis::concretization_violation(sum->footprint, env, trace);
  return {};
}
#endif

}  // namespace

Word ContractStore::deploy(Bytes code, Word deployer, std::uint64_t height) {
  Program program = decode_program(BytesView(code));
  analysis::AnalysisReport report = analysis::analyze(program);
  const analysis::AdmissionVerdict verdict = analysis::admit(report, policy_);
  if (!verdict.admitted) throw AdmissionError(verdict.reason);

  ByteWriter w;
  w.bytes(BytesView(code));
  w.u64(deployer);
  w.u64(nonce_++);
  const Word id = crypto::sha256(BytesView(w.data())).prefix_u64();

  const bool uses_oracle = program.contains(Op::Oracle);
  std::vector<analysis::SelectorSummary> summaries =
      analysis::summarize_selectors(program);
  DeployedContract dc;
  dc.id = id;
  dc.deployer = deployer;
  dc.code = std::make_shared<const ContractCode>(
      ContractCode{std::move(code), std::move(program), std::move(report),
                   std::move(summaries), uses_oracle});
  dc.deployed_height = height;
  contracts_[id] = std::move(dc);
  return id;
}

bool ContractStore::speculable(Word id) const {
  auto it = contracts_.find(id);
  return it != contracts_.end() && !it->second.code->uses_oracle;
}

std::optional<SpeculativeCall> ContractStore::call_speculative(
    Word id, ExecContext ctx) const {
  auto it = contracts_.find(id);
  if (it == contracts_.end()) return std::nullopt;
  const DeployedContract& dc = it->second;

  SpeculativeCall spec;
  spec.contract_id = id;
  ctx.contract_id = id;
  ctx.trace = &spec.trace;  // always traced: the write/read sets come from it

  SpeculativeHost host(spec, contracts_);
  // The run's one storage copy, worked on in place; the store stays
  // untouched.
  Storage working = dc.storage;
  spec.result = execute(dc.code->program, working, ctx, host);

#if defined(MEDCHAIN_AUDIT)
  // Same soundness contract as call(): the dynamic trace must sit inside
  // the static bounds proven at deployment.
  const std::string violation =
      analysis::soundness_violation(dc.code->report, spec.trace, spec.result);
  MC_DCHECK(violation.empty(),
            "static analysis soundness contract violated on speculative call");
  const std::string concrete_violation = concretization_check(dc, ctx, spec.trace);
  MC_DCHECK(concrete_violation.empty(),
            "concretized footprint missed a traced cell on speculative call");
#endif

  // Own-storage observations: the pre-state value of every key the run
  // read (conservative — even reads after an own write validate against
  // the committed pre-image).
  for (const Word key : spec.trace.reads) {
    auto slot = dc.storage.find(key);
    spec.observed.emplace(std::make_pair(id, key),
                          slot == dc.storage.end() ? 0 : slot->second);
  }
  // Write post-images, only meaningful for runs that halted ok (a trap
  // rolls its writes back; validation still uses the observed set).
  if (spec.result.ok()) {
    for (const Word key : spec.trace.writes) {
      auto slot = working.find(key);
      spec.writes[key] = slot == working.end() ? 0 : slot->second;
    }
  }
  return spec;
}

bool ContractStore::speculation_current(const SpeculativeCall& spec) const {
  for (const auto& [cell, seen] : spec.observed) {
    Word current = 0;
    auto it = contracts_.find(cell.first);
    if (it != contracts_.end()) {
      auto slot = it->second.storage.find(cell.second);
      if (slot != it->second.storage.end()) current = slot->second;
    }
    if (current != seen) return false;
  }
  return true;
}

void ContractStore::commit_speculation(const SpeculativeCall& spec,
                                       Host* event_host) {
  auto it = contracts_.find(spec.contract_id);
  MC_ASSERT(it != contracts_.end(),
            "committing a speculative call into a missing contract");
  MC_ASSERT(spec.result.ok(), "committing a trapped speculative call");
  for (const auto& [key, value] : spec.writes) {
    if (value == 0)
      it->second.storage.erase(key);  // the VM keeps no zero entries
    else
      it->second.storage[key] = value;
  }
  for (const Event& event : spec.events) {
    events_.push_back(event);
    if (event_host != nullptr) event_host->on_event(event);
  }
}

const DeployedContract* ContractStore::contract(Word id) const {
  auto it = contracts_.find(id);
  return it == contracts_.end() ? nullptr : &it->second;
}

std::optional<ExecResult> ContractStore::call(Word id, ExecContext ctx,
                                              Host& oracle_host) {
  auto it = contracts_.find(id);
  if (it == contracts_.end()) return std::nullopt;
  DeployedContract& dc = it->second;
  ctx.contract_id = id;
  CapturingHost host(oracle_host, contracts_);
#if defined(MEDCHAIN_AUDIT)
  // Audit builds mechanically enforce the analyzer's soundness contract:
  // record the dynamic footprint/stack of every call and require it to be
  // contained in the static bounds proven at deployment.
  ExecTrace trace;
  ctx.trace = &trace;
#endif
  // Run on a copy, committed on success: an SXLOAD of the callee itself
  // reads its committed storage, as on the speculative path.
  Storage working = dc.storage;
  const ExecResult result = execute(dc.code->program, working, ctx, host);
  if (result.ok()) {
    dc.storage = std::move(working);
    for (const Event& event : host.events) {
      events_.push_back(event);
      oracle_host.on_event(event);
    }
  }
#if defined(MEDCHAIN_AUDIT)
  const std::string violation =
      analysis::soundness_violation(dc.code->report, trace, result);
  MC_DCHECK(violation.empty(),
            "static analysis soundness contract violated on contract call");
  const std::string concrete_violation = concretization_check(dc, ctx, trace);
  MC_DCHECK(concrete_violation.empty(),
            "concretized footprint missed a traced cell on contract call");
#endif
  return result;
}

std::optional<ExecResult> ContractStore::call(Word id, ExecContext ctx) {
  NullHost null_host;
  return call(id, std::move(ctx), null_host);
}

std::vector<Event> ContractStore::events_since(std::size_t from_index) const {
  if (from_index >= events_.size()) return {};
  return std::vector<Event>(events_.begin() +
                                static_cast<std::ptrdiff_t>(from_index),
                            events_.end());
}

void ContractStore::snapshot(std::uint64_t height) {
  snapshots_[height] = Snapshot{contracts_, events_.size(), nonce_};
}

void ContractStore::rollback_to(std::uint64_t height) {
  auto it = snapshots_.upper_bound(height);
  if (it == snapshots_.begin()) {
    contracts_.clear();
    events_.clear();
    nonce_ = 0;
  } else {
    --it;
    contracts_ = it->second.contracts;
    events_.resize(it->second.event_count);
    nonce_ = it->second.nonce;
  }
  // Drop snapshots newer than the restore point.
  snapshots_.erase(snapshots_.upper_bound(height), snapshots_.end());
}

Hash256 ContractStore::digest() const {
  ByteWriter w;
  for (const auto& [id, dc] : contracts_) {
    w.u64(id);
    w.u64(dc.deployer);
    w.bytes(BytesView(dc.code->bytes));
    for (const auto& [key, value] : dc.storage) {
      w.u64(key);
      w.u64(value);
    }
  }
  w.u64(events_.size());
  return crypto::sha256(BytesView(w.data()));
}

}  // namespace mc::vm
