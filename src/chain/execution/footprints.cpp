#include "chain/execution/footprints.hpp"

#include <algorithm>
#include <utility>

#include "chain/vm_hook.hpp"

namespace mc::chain::exec {

bool concretize_call_footprint(const Transaction& tx,
                               const vm::ContractStore& store,
                               std::uint64_t height, TxFootprint& out) {
  if (tx.kind != TxKind::Call) return false;
  const auto call = decode_call_payload(BytesView(tx.payload));
  if (!call.has_value()) return false;
  const vm::DeployedContract* dc = store.contract(call->contract_id);
  if (dc == nullptr) return false;

  // Prefer the per-selector summary (dispatch folded away, so only the
  // matching handler's keys remain); fall back to the whole-program
  // footprint for non-dispatch contracts or unmatched selectors.
  const vm::analysis::SelectorSummary* sum =
      vm::analysis::summary_for(dc->code->selector_summaries, call->calldata);
  const vm::analysis::StorageFootprint* fp = nullptr;
  if (sum != nullptr && !sum->incomplete)
    fp = &sum->footprint;
  else if (!dc->code->report.incomplete)
    fp = &dc->code->report.footprint;
  if (fp == nullptr) return false;

  // The scheduling-time environment mirrors VmExecutionHook's ExecContext
  // exactly; the block timestamp is NOT known here, so Timestamp-derived
  // keys refuse to concretize rather than guess.
  vm::analysis::SymbolicEnv env;
  env.calldata = &call->calldata;
  env.caller = fnv1a(BytesView(tx.from.data));
  env.call_value = tx.amount;
  env.height = height;

  const vm::analysis::ConcreteFootprint cf =
      vm::analysis::concretize_footprint(*fp, env);
  if (!cf.exact()) return false;

  TxFootprint result;
  result.reads.insert(balance_cell_of(tx.from));
  result.writes.insert(balance_cell_of(tx.from));
  for (const vm::Word key : cf.reads)
    result.reads.insert({fp_domain::kContract, dc->id, key});
  for (const vm::Word key : cf.writes)
    result.writes.insert({fp_domain::kContract, dc->id, key});
  for (const auto& fr : cf.foreign_reads)
    result.reads.insert({fp_domain::kContract, fr.first, fr.second});
  out = std::move(result);
  return true;
}

TxFootprint scheduling_footprint(const Transaction& tx,
                                 const vm::ContractStore* store,
                                 std::uint64_t height, bool symbolic) {
  TxFootprint fp = tx_footprint(tx, store);
  if (!fp.unbounded) return fp;
  if (symbolic && store != nullptr) {
    TxFootprint concrete;
    if (concretize_call_footprint(tx, *store, height, concrete))
      return concrete;
  }
  return fp;
}

TxFootprint FootprintProvider::footprint(const Transaction& tx,
                                         std::uint64_t height) const {
  TxFootprint fp = scheduling_footprint(tx, store_, height, symbolic_);
  if (!fp.unbounded) return fp;
  auto it = dynamic_.find(tx.id());
  if (it != dynamic_.end()) return it->second;
  return fp;  // still ⊤: first run of an unbounded tx
}

void FootprintProvider::record(const Transaction& tx, vm::Word contract_id,
                               const vm::ExecTrace& trace) {
  const TxId id = tx.id();
  if (dynamic_.count(id) == 0) {
    if (dynamic_.size() >= max_recorded_) {
      // Evict the oldest half: the overflow cliff costs the stalest
      // hints instead of every hint at once.
      const std::size_t evict = std::max<std::size_t>(1, dynamic_.size() / 2);
      for (std::size_t i = 0; i < evict && !order_.empty(); ++i) {
        dynamic_.erase(order_.front());
        order_.pop_front();
      }
    }
    order_.push_back(id);
  }
  dynamic_[id] = footprint_from_trace(tx, contract_id, trace);
}

}  // namespace mc::chain::exec
