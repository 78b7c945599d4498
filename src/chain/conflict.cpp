#include "chain/conflict.hpp"

#include <algorithm>

#include "chain/vm_hook.hpp"

namespace mc::chain {

FootprintCell balance_cell_of(const Address& addr) {
  return {fp_domain::kBalance, fnv1a(BytesView(addr.data)), 0};
}

namespace {

FootprintCell balance_cell(const Address& addr) { return balance_cell_of(addr); }

/// Fold a contract's deployment-time static footprint into cells. Exact
/// keys become precise cells; any non-constant key (or an incomplete
/// analysis) makes the footprint unbounded.
void fold_contract_footprint(const vm::DeployedContract& dc,
                             TxFootprint& out) {
  using Kind = vm::analysis::FootprintEntry::Kind;
  const vm::analysis::AnalysisReport& report = dc.code->report;
  if (report.incomplete) {
    out.unbounded = true;
    return;
  }
  for (const vm::analysis::FootprintEntry& e : report.footprint.entries) {
    if (!e.key.is_const() ||
        (e.kind == Kind::ForeignRead && !e.contract.is_const())) {
      out.unbounded = true;
      return;
    }
    switch (e.kind) {
      case Kind::Read:
        out.reads.insert({fp_domain::kContract, dc.id, e.key.value});
        break;
      case Kind::Write:
        out.writes.insert({fp_domain::kContract, dc.id, e.key.value});
        break;
      case Kind::ForeignRead:
        out.reads.insert(
            {fp_domain::kContract, e.contract.value, e.key.value});
        break;
    }
  }
}

}  // namespace

TxFootprint tx_footprint(const Transaction& tx,
                         const vm::ContractStore* store) {
  TxFootprint fp;
  // Every kind debits the sender's balance (fees) and bumps its nonce.
  fp.reads.insert(balance_cell(tx.from));
  fp.writes.insert(balance_cell(tx.from));

  switch (tx.kind) {
    case TxKind::Transfer:
      fp.reads.insert(balance_cell(tx.to));
      fp.writes.insert(balance_cell(tx.to));
      break;

    case TxKind::Deploy:
      // The created id depends on the store nonce, so any two deploys
      // serialize against each other via the registry cell.
      fp.writes.insert({fp_domain::kRegistry, 0, 0});
      break;

    case TxKind::Call: {
      const auto call = decode_call_payload(BytesView(tx.payload));
      if (!call.has_value()) {
        fp.unbounded = true;
        break;
      }
      const vm::DeployedContract* dc =
          store != nullptr ? store->contract(call->contract_id) : nullptr;
      if (dc == nullptr) {
        fp.unbounded = true;
        break;
      }
      fold_contract_footprint(*dc, fp);
      break;
    }

    case TxKind::Anchor:
      fp.writes.insert(
          {fp_domain::kAnchor, fnv1a(BytesView(tx.payload)), 0});
      break;
  }
  return fp;
}

TxFootprint footprint_from_trace(const Transaction& tx, vm::Word contract_id,
                                 const vm::ExecTrace& trace) {
  TxFootprint fp;
  fp.reads.insert(balance_cell(tx.from));
  fp.writes.insert(balance_cell(tx.from));
  for (const vm::Word key : trace.reads)
    fp.reads.insert({fp_domain::kContract, contract_id, key});
  for (const vm::Word key : trace.writes)
    fp.writes.insert({fp_domain::kContract, contract_id, key});
  for (const auto& [foreign, key] : trace.foreign_reads)
    fp.reads.insert({fp_domain::kContract, foreign, key});
  return fp;
}

std::vector<TxFootprint> block_footprints(const Block& block,
                                          const vm::ContractStore* store) {
  std::vector<TxFootprint> footprints;
  footprints.reserve(block.txs.size());
  for (const Transaction& tx : block.txs)
    footprints.push_back(tx_footprint(tx, store));
  return footprints;
}

bool footprints_conflict(const TxFootprint& a, const TxFootprint& b) {
  if (a.unbounded || b.unbounded) return true;
  const auto intersects = [](const std::set<FootprintCell>& x,
                             const std::set<FootprintCell>& y) {
    // Walk the smaller set, probe the larger.
    const auto& probe = x.size() <= y.size() ? x : y;
    const auto& into = x.size() <= y.size() ? y : x;
    return std::any_of(probe.begin(), probe.end(), [&into](const auto& cell) {
      return into.count(cell) > 0;
    });
  };
  return intersects(a.writes, b.writes) || intersects(a.writes, b.reads) ||
         intersects(a.reads, b.writes);
}

namespace {

BlockConflictReport conflicts_over(const Block& block,
                                   std::vector<TxFootprint> footprints) {
  BlockConflictReport report;
  report.txs = block.txs.size();
  for (const TxFootprint& fp : footprints)
    if (fp.unbounded) ++report.unbounded_txs;

  for (std::size_t i = 0; i < footprints.size(); ++i)
    for (std::size_t j = i + 1; j < footprints.size(); ++j) {
      ++report.pairs;
      if (footprints_conflict(footprints[i], footprints[j]))
        ++report.conflicting_pairs;
    }
  return report;
}

}  // namespace

BlockConflictReport analyze_block_conflicts(const Block& block,
                                            const vm::ContractStore* store) {
  return conflicts_over(block, block_footprints(block, store));
}

BlockConflictReport analyze_block_conflicts(
    const Block& block,
    const std::function<TxFootprint(const Transaction&)>& footprint_of) {
  std::vector<TxFootprint> footprints;
  footprints.reserve(block.txs.size());
  for (const Transaction& tx : block.txs) footprints.push_back(footprint_of(tx));
  return conflicts_over(block, std::move(footprints));
}

}  // namespace mc::chain
