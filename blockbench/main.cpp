// Block-lifecycle benchmark: real chain::Nodes from wire bytes (or a
// mempool batch) to a committed state root.
//
//   blockbench --workload <replay_transfer|replay_patient|produce_clinic>
//              --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]
//   blockbench --self-test
//
// --trace 0 prints the end-to-end metrics of untraced node passes;
// --trace 1 prints the per-layer metrics of staged (traced) passes plus a
// sequential workers-1 reference pass. Every pass is checked against the
// reference tip and state root computed in set-up; the last stdout line
// is one JSON object {correct, attempted, failed, metrics}. The line
// before it records the environment and the exact counts.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256_batch.hpp"
#include "passes.hpp"
#include "workloads.hpp"

namespace {

using namespace blockbench;
namespace mcc = mc::chain;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kMinBeyondP90 = 10;
/// Host CPU steal, in CPU-seconds per second, up to which a pass or a
/// set-up counts as undisturbed. On a shared VM the hypervisor steals in
/// bursts; a pass under 0.3 steal ran 25-35% slower than one under none.
constexpr double kStealTolerance = 0.02;
/// Passes reported when fewer than this many stayed within tolerance.
constexpr std::size_t kMinKeptPasses = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string git_sha = "unknown";
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "blockbench: %s\nusage: blockbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] | --self-test\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") o.trace = std::atoi(v);
    else if (a == "--git-sha") o.git_sha = v;
    else usage("unknown argument");
  }
  if (!o.self_test && o.workload.empty()) usage("--workload is required");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `sorted` (ascending), q in (0, 1].
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Indices of the samples to report, in sample order: every one taken
/// with host steal within kStealTolerance, or — when fewer than
/// `min_kept` were — the `min_kept` least-stolen. Steal is work the
/// hypervisor gave other guests; no change to the node can cause it.
std::vector<std::size_t> least_stolen(const std::vector<double>& steal,
                                      std::size_t min_kept) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::size_t keep = 0;
  while (keep < idx.size() && steal[idx[keep]] <= kStealTolerance) ++keep;
  idx.resize(std::max(keep, std::min(min_kept, idx.size())));
  std::sort(idx.begin(), idx.end());
  return idx;
}

template <typename T>
std::vector<T> pick(const std::vector<T>& v, const std::vector<std::size_t>& idx) {
  std::vector<T> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back(v[i]);
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Compute environment shared by every node of the run: a pool of
/// nproc − 1 workers (parallel_for runs one chunk on the caller, so the
/// caller plus the pool fill exactly nproc cores) behind both the
/// validator and the executor.
struct Env {
  std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  std::size_t pool_size = nproc > 1 ? nproc - 1 : 1;
  mc::ThreadPool pool{pool_size};
  mcc::BlockValidator validator{&pool};
  NodeSetup configured;
  NodeSetup sequential;
  mc::crypto::PrivateKey follower = mc::crypto::key_from_seed("blockbench/follower");

  Env() {
    configured.validator = &validator;
    configured.exec.workers = pool_size;
    configured.exec.pool = &pool;
  }
};

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c >= 0x20 ? c : ' ');
  }
  std::putchar('"');
}

void print_counts(const ExactCounts& c) {
  std::printf(
      "{\"txs\": %llu, \"blocks\": %llu, \"waves\": %llu, \"aborts\": %llu, "
      "\"reruns\": %llu, \"parallel_txs\": %llu, \"sequential_txs\": %llu, "
      "\"dag_edges\": %llu, \"critical_ticks\": %llu, \"sha256\": %llu, "
      "\"sigs\": %llu}",
      static_cast<unsigned long long>(c.txs),
      static_cast<unsigned long long>(c.blocks),
      static_cast<unsigned long long>(c.waves),
      static_cast<unsigned long long>(c.aborts),
      static_cast<unsigned long long>(c.reruns),
      static_cast<unsigned long long>(c.parallel_txs),
      static_cast<unsigned long long>(c.sequential_txs),
      static_cast<unsigned long long>(c.dag_edges),
      static_cast<unsigned long long>(c.critical_ticks),
      static_cast<unsigned long long>(c.sha256),
      static_cast<unsigned long long>(c.sigs));
}

/// Everything a run measured, ready to print.
struct Report {
  std::vector<Metric> metrics;
  Failures failures;
  std::size_t passes = 0;
  std::size_t samples = 0;
  std::size_t beyond_p90 = 0;
  std::size_t kept_passes = 0;
  std::size_t setup_reps = 0;
  ExactCounts node_counts;
  ExactCounts staged_counts;
};

void print_report(const Options& o, const Env& env, const Workload& w,
                  const Report& r) {
  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"nproc\": %zu, \"pool\": %zu, "
              "\"exec_workers\": %zu, \"hash_kernel\": \"%s\", \"git_sha\": ",
              kind_name(w.kind), static_cast<unsigned long long>(o.seed),
              o.trace, env.nproc, env.pool_size, env.configured.exec.workers,
              mc::crypto::hash_kernel_name(mc::crypto::active_hash_kernel()));
  print_json_string(o.git_sha);
  std::printf(", \"blocks_per_pass\": %zu, \"txs_per_pass\": %zu, "
              "\"passes\": %zu, \"passes_kept\": %zu, "
              "\"steal_tolerance\": %g, \"setup_reps\": %zu, "
              "\"block_samples\": %zu, "
              "\"blocks_beyond_p90\": %zu, "
              "\"node_counts\": ",
              w.blocks.size(), w.total_txs, r.passes, r.kept_passes,
              kStealTolerance, r.setup_reps, r.samples,
              r.beyond_p90);
  print_counts(r.node_counts);
  std::printf(", \"staged_counts\": ");
  print_counts(r.staged_counts);
  std::printf(", \"errors\": [");
  for (std::size_t i = 0; i < r.failures.messages.size(); ++i) {
    if (i > 0) std::printf(", ");
    print_json_string(r.failures.messages[i]);
  }
  std::printf("]}}\n");

  const bool correct = r.failures.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.failures.attempted),
              static_cast<unsigned long long>(r.failures.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Counts of this pass must equal the first pass's, bit for bit.
void expect_same_counts(const ExactCounts& first, const ExactCounts& now,
                        const char* what, Failures& f) {
  ++f.attempted;
  if (!(first == now))
    f.fail(std::string(what) + " exact counts differ between passes");
}

/// Same executor schedule: every count except the crypto ones, which only
/// node passes collect.
bool same_schedule(ExactCounts a, ExactCounts b) {
  a.sha256 = b.sha256 = a.sigs = b.sigs = 0;
  return a == b;
}

/// Times set-up: key derivation, signing, contract deploy, block
/// production and wire encoding. The first set-up yields the workload;
/// the repeats are spread evenly over the measuring window, so their
/// median samples the host over the same span as the passes do. Every
/// repeat must reproduce the first one's reference tip and state root.
class SetupSampler {
 public:
  SetupSampler(Kind kind, std::uint64_t seed, const NodeSetup& setup,
               std::size_t reps)
      : kind_(kind), seed_(seed), setup_(setup), reps_(reps) {}

  Workload first() {
    Workload w = timed();
    ref_tip_ = w.ref_tip;
    ref_root_ = w.ref_root;
    return w;
  }

  /// Between passes, `fraction` of the measuring window gone.
  void between_passes(double fraction) {
    while (times_.size() < reps_ &&
           fraction * static_cast<double>(reps_) >=
               static_cast<double>(times_.size()))
      repeat();
  }

  void finish() {
    while (times_.size() < reps_) repeat();
  }

  /// Median over the least-stolen repeats (at least 3).
  [[nodiscard]] double median_s() const {
    return median(pick(times_, least_stolen(steal_, 3)));
  }
  [[nodiscard]] std::size_t reps() const { return times_.size(); }
  [[nodiscard]] const Failures& failures() const { return failures_; }

 private:
  Workload timed() {
    const double steal0 = host_steal_seconds();
    const auto t0 = Clock::now();
    Workload w = make_workload(kind_, seed_, Scale::full(kind_), setup_);
    times_.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    steal_.push_back(ratio(host_steal_seconds() - steal0, times_.back()));
    std::fprintf(stderr, "set-up %zu: %.3f s\n", times_.size(), times_.back());
    return w;
  }

  void repeat() {
    const Workload w = timed();
    ++failures_.attempted;
    if (w.ref_tip != ref_tip_ || w.ref_root != ref_root_)
      failures_.fail("set-up did not reproduce its own reference");
  }

  Kind kind_;
  std::uint64_t seed_;
  const NodeSetup& setup_;
  std::size_t reps_;
  std::vector<double> times_;
  std::vector<double> steal_;  ///< CPU-seconds stolen per second, per rep
  mcc::BlockId ref_tip_{};
  mc::Hash256 ref_root_{};
  Failures failures_;
};

/// Run body(i) for at least kMinPasses passes and until `seconds` have
/// gone, giving `setup` its turn between passes.
template <typename F>
void until_deadline(double seconds, SetupSampler& setup, F&& body) {
  const auto start = Clock::now();
  const double window = std::max(seconds, 1e-9);
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (std::size_t i = 0; i < kMinPasses || elapsed() < seconds; ++i) {
    body(i);
    setup.between_passes(elapsed() / window);
  }
  setup.finish();
}

/// --trace 0: untraced node passes → end-to-end metrics.
Report measure_end_to_end(const Options& o, Env& env, const Workload& w,
                          SetupSampler& setup) {
  Report r;
  const bool best_of = w.kind == Kind::ProduceClinic;
  std::vector<double> rss, steal;
  std::vector<std::vector<double>> block_ms;
  until_deadline(o.seconds, setup, [&](std::size_t i) {
    NodePassResult p = run_node_pass(w, env.configured, env.follower);
    r.failures.merge(p.failures);
    if (i == 0) r.node_counts = p.counts;
    expect_same_counts(r.node_counts, p.counts, "node pass", r.failures);
    rss.push_back(p.rss_growth_mb);
    steal.push_back(p.steal_rate);
    std::fprintf(stderr, "pass %zu: %.1f tx/s, rss +%.2f MB, steal %.3f\n", i,
                 ratio(static_cast<double>(p.txs), p.seconds), rss.back(),
                 steal.back());
    block_ms.push_back(std::move(p.block_ms));
    ++r.passes;
  });

  // Each block's latency over the kept passes (see least_stolen): its
  // median on the replays, its best on produce_clinic. The host slows
  // every stage of a produce_clinic pass together, by up to 40% for tens
  // of seconds, with no steal in /proc/stat, so its median lands in
  // whichever host phase held most of the run. replay_patient's host phases are milder and its per-block
  // best is itself noisy. Run-to-run spread of block_p50_ms over 14 seeds
  // on a 4-vCPU VM: produce_clinic 35% (median) vs 13% (best),
  // replay_patient 5% vs 9%. Either way a block that is slow in every
  // pass (more waves, a rehash) keeps its place in the tail. commit_tps
  // and both percentiles come from these latencies.
  const std::vector<std::size_t> kept = least_stolen(steal, kMinKeptPasses);
  r.kept_passes = kept.size();
  std::vector<double> per_block(w.blocks.size());
  double total_ms = 0;
  for (std::size_t b = 0; b < per_block.size(); ++b) {
    std::vector<double> samples;
    for (const std::size_t i : kept) samples.push_back(block_ms[i][b]);
    per_block[b] = best_of ? *std::min_element(samples.begin(), samples.end())
                           : median(samples);
    total_ms += per_block[b];
  }
  std::sort(per_block.begin(), per_block.end());
  const double p90 = percentile(per_block, 0.9);
  r.samples = kept.size() * per_block.size();
  r.beyond_p90 = static_cast<std::size_t>(
      per_block.end() -
      std::upper_bound(per_block.begin(), per_block.end(), p90));
  ++r.failures.attempted;
  if (r.beyond_p90 < kMinBeyondP90)
    r.failures.fail("too few blocks beyond p90");
  r.metrics = {
      {"commit_tps", ratio(static_cast<double>(w.total_txs), total_ms / 1000.0),
       "tx/s"},
      {"block_p50_ms", percentile(per_block, 0.5), "ms"},
      {"block_p90_ms", p90, "ms"},
      {"rss_growth_mb", median(pick(rss, kept)), "MB"},
  };
  return r;
}

/// --trace 1: iterations of an untraced node pass, a staged (traced) pass
/// and a workers-1 staged reference pass → per-layer metrics.
Report measure_layers(const Options& o, Env& env, const Workload& w,
                      SetupSampler& setup) {
  Report r;
  const bool leader = w.kind == Kind::ProduceClinic;

  enum Col {
    kDecodeMs, kLinkMs, kValidateMs, kTxRootMs, kCopyMs, kExecMs, kPlanMs,
    kLedgerMs, kContractMs, kStoreMs, kGasPerS, kWallSpeedup, kSubmitUs,
    kSelectMs, kProposeMs, kReceiveMs, kCoverage, kOverhead, kAccounts,
    kColCount,
  };
  std::vector<std::vector<double>> per_pass(kColCount);
  auto col = [&](Col c, double v) { per_pass[c].push_back(v); };
  std::uint64_t vm_gas = 0;
  std::vector<double> steal;

  until_deadline(o.seconds, setup, [&](std::size_t i) {
    const double steal0 = host_steal_seconds();
    const auto t0 = Clock::now();
    const NodePassResult node = run_node_pass(w, env.configured, env.follower);
    const StagedPassResult st = run_staged_pass(w, env.configured, true);
    const StagedPassResult seq = run_staged_pass(w, env.sequential, false);
    r.failures.merge(node.failures);
    r.failures.merge(st.failures);
    r.failures.merge(seq.failures);
    if (i == 0) {
      r.node_counts = node.counts;
      r.staged_counts = st.counts;
      vm_gas = st.vm_gas;
    }
    expect_same_counts(r.node_counts, node.counts, "node pass", r.failures);
    expect_same_counts(r.staged_counts, st.counts, "staged pass", r.failures);
    if (!leader) {  // a follower node and the staged follower: one schedule
      ++r.failures.attempted;
      if (!same_schedule(node.counts, st.counts))
        r.failures.fail("node and staged follower schedules differ");
    }

    const double blocks = static_cast<double>(st.blocks);
    auto per_block = [&](double ms) { return ratio(ms, blocks); };
    double stage_sum = 0;
    for (const double ms : st.stage_ms) stage_sum += ms;
    col(kDecodeMs, per_block(st.stage_ms[kDecode]));
    col(kLinkMs, per_block(st.stage_ms[kLink]));
    col(kValidateMs, per_block(st.stage_ms[kValidate]));
    col(kTxRootMs, per_block(st.txroot_ms));
    col(kCopyMs, per_block(st.stage_ms[kStateCopy]));
    col(kExecMs, per_block(st.stage_ms[kExecute]));
    col(kPlanMs, per_block(st.plan_ms));
    col(kLedgerMs, per_block(st.stage_ms[kLedgerDigest]));
    col(kContractMs, per_block(st.stage_ms[kContractDigest]));
    col(kStoreMs, per_block(st.stage_ms[kStore]));
    col(kGasPerS, ratio(static_cast<double>(st.vm_gas),
                        st.stage_ms[kExecute] / 1000.0));
    col(kWallSpeedup, ratio(seq.stage_ms[kExecute], st.stage_ms[kExecute]));
    col(kAccounts, static_cast<double>(st.accounts));

    // Coverage: the timed calls' sum over the untraced node's block time,
    // so work Node::receive does outside those calls shows as a shortfall.
    // Overhead: everything the traced path spent, probes included, over
    // the same untraced time.
    double node_block_ms = 0;
    for (const double ms : node.block_ms) node_block_ms += ms;
    node_block_ms = ratio(node_block_ms, static_cast<double>(node.block_ms.size()));
    if (leader) {
      const LeaderPassResult lp = run_leader_pass(w, env.configured);
      r.failures.merge(lp.failures);
      const double lblocks = static_cast<double>(lp.blocks);
      col(kSubmitUs, 1000.0 * ratio(lp.submit_ms, static_cast<double>(lp.submits)));
      col(kSelectMs, ratio(lp.select_ms, lblocks));
      col(kProposeMs, ratio(lp.propose_ms, lblocks));
      col(kReceiveMs, ratio(lp.receive_ms, lblocks));
      col(kCoverage,
          ratio(ratio(lp.submit_ms + lp.propose_ms + lp.receive_ms, lblocks),
                node_block_ms));
      col(kOverhead,
          ratio(ratio(lp.block_ms + lp.select_ms, lblocks), node_block_ms));
    } else {
      col(kCoverage, ratio(per_block(stage_sum), node_block_ms));
      col(kOverhead, ratio(per_block(st.block_ms + st.txroot_ms + st.plan_ms),
                           node_block_ms));
    }
    steal.push_back(
        ratio(host_steal_seconds() - steal0,
              std::chrono::duration<double>(Clock::now() - t0).count()));
    ++r.passes;
  });

  const std::vector<std::size_t> kept = least_stolen(steal, kMinKeptPasses);
  r.kept_passes = kept.size();
  auto med = [&](Col c) { return median(pick(per_pass[c], kept)); };
  const ExactCounts& sc = r.staged_counts;
  const mcc::exec::BlockExecMetrics em = sc.exec();
  const double txs = static_cast<double>(sc.txs);
  const double node_txs = static_cast<double>(r.node_counts.txs);
  r.metrics = {
      {"codec.decode_ms", med(kDecodeMs), "ms"},
      {"receive.link_ms", med(kLinkMs), "ms"},
      {"validate.ms", med(kValidateMs), "ms"},
      {"validate.txroot_ms", med(kTxRootMs), "ms"},
      {"exec.ms", med(kExecMs), "ms"},
      {"exec.plan_ms", med(kPlanMs), "ms"},
      {"exec.waves_per_block", ratio(static_cast<double>(sc.waves),
                                     static_cast<double>(sc.blocks)), "count"},
      {"exec.avg_wave_width", em.avg_wave_width(), "tx"},
      {"exec.abort_rate", ratio(static_cast<double>(sc.aborts), txs), "ratio"},
      {"exec.seq_frac", ratio(static_cast<double>(sc.sequential_txs), txs),
       "ratio"},
      {"exec.dag_edges_per_tx", ratio(static_cast<double>(sc.dag_edges), txs),
       "count"},
      {"exec.ideal_speedup", em.ideal_speedup(), "x"},
      {"exec.wall_speedup", med(kWallSpeedup), "x"},
      {"vm.gas_per_s", med(kGasPerS), "gas/s"},
      {"vm.gas_per_tx", ratio(static_cast<double>(vm_gas), txs), "gas"},
      {"state.copy_ms", med(kCopyMs), "ms"},
      {"state.ledger_digest_ms", med(kLedgerMs), "ms"},
      {"state.contract_digest_ms", med(kContractMs), "ms"},
      {"state.accounts", med(kAccounts), "count"},
      {"receive.store_ms", med(kStoreMs), "ms"},
      {"mempool.submit_us", leader ? med(kSubmitUs) : 0.0, "us"},
      {"mempool.select_ms", leader ? med(kSelectMs) : 0.0, "ms"},
      {"propose.ms", leader ? med(kProposeMs) : 0.0, "ms"},
      {"leader.receive_ms", leader ? med(kReceiveMs) : 0.0, "ms"},
      {"crypto.sha256_per_tx",
       ratio(static_cast<double>(r.node_counts.sha256), node_txs), "hash/tx"},
      {"crypto.sigs_per_tx",
       ratio(static_cast<double>(r.node_counts.sigs), node_txs), "sig/tx"},
      {"trace.coverage", med(kCoverage), "ratio"},
      {"trace.overhead", med(kOverhead), "ratio"},
  };
  return r;
}

int run(const Options& o) {
  Kind kind;
  if (!parse_kind(o.workload, kind)) usage("unknown workload");
  Env env;

  // The traced run reports no set-up time, so it sets up once.
  SetupSampler setup(kind, o.seed, env.configured,
                     o.trace == 0 ? kSetupReps : 1);
  const Workload w = setup.first();
  Report r = o.trace == 0 ? measure_end_to_end(o, env, w, setup)
                          : measure_layers(o, env, w, setup);
  r.failures.merge(setup.failures());
  r.setup_reps = setup.reps();
  if (o.trace == 0) r.metrics.push_back({"setup_s", setup.median_s(), "s"});
  print_report(o, env, w, r);
  if (r.failures.failed != 0) {
    std::fprintf(stderr, "blockbench: %llu check(s) FAILED on %s:\n",
                 static_cast<unsigned long long>(r.failures.failed),
                 kind_name(kind));
    for (const std::string& m : r.failures.messages)
      std::fprintf(stderr, "  - %s\n", m.c_str());
    return 1;
  }
  return 0;
}

/// Self-test on tiny workloads: reproducibility of set-up, zero failures,
/// bit-identical exact counts across passes and independent generations,
/// agreement of the staged follower with a real node, and a corrupted
/// block that must be refused.
int self_test() {
  Env env;
  int bad = 0;
  auto check = [&](bool ok, const char* kind, const char* what) {
    if (!ok) {
      ++bad;
      std::fprintf(stderr, "self-test FAILED [%s]: %s\n", kind, what);
    }
  };
  for (const Kind kind :
       {Kind::ReplayTransfer, Kind::ReplayPatient, Kind::ProduceClinic}) {
    const char* name = kind_name(kind);
    const Scale scale = Scale::tiny(kind);
    const Workload a = make_workload(kind, 7, scale, env.configured);
    const Workload b = make_workload(kind, 7, scale, env.sequential);
    const Workload c = make_workload(kind, 8, scale, env.configured);
    check(a.ref_tip == b.ref_tip && a.ref_root == b.ref_root, name,
          "same seed, different reference");
    check(a.ref_tip != c.ref_tip, name, "different seeds, same reference");

    const NodePassResult n1 = run_node_pass(a, env.configured, env.follower);
    const NodePassResult n2 = run_node_pass(b, env.configured, env.follower);
    const StagedPassResult s1 = run_staged_pass(a, env.configured, true);
    const StagedPassResult s2 = run_staged_pass(b, env.configured, false);
    const StagedPassResult sq = run_staged_pass(a, env.sequential, false);
    for (const Failures* f : {&n1.failures, &n2.failures, &s1.failures,
                              &s2.failures, &sq.failures})
      check(f->failed == 0 && f->attempted > 0, name, "a pass failed");
    check(n1.counts == n2.counts, name, "node exact counts differ");
    check(s1.counts == s2.counts, name, "staged exact counts differ");
    check(n1.counts.sha256 > 0 && n1.counts.sigs > 0, name,
          "counters did not move");
    check(sq.counts.waves == 0 && sq.counts.sequential_txs == sq.txs, name,
          "workers-1 reference ran the wave scheduler");
    if (kind == Kind::ProduceClinic) {
      const LeaderPassResult lp = run_leader_pass(a, env.configured);
      check(lp.failures.failed == 0 && lp.submits == a.total_txs, name,
            "leader pass failed");
    } else {
      check(same_schedule(n1.counts, s1.counts), name,
            "staged follower diverges from the node's schedule");
    }

    // A flipped signature byte in the last tx of block 1 must be refused.
    Workload bad_w = a;
    const Workload::Range first = bad_w.blocks.front();
    bad_w.data[first.offset + first.size - 1] ^= 0x01;
    const StagedPassResult sb = run_staged_pass(bad_w, env.configured, false);
    check(sb.failures.failed > 0, name, "corrupted block was accepted");
    std::fprintf(stderr, "self-test %s: %s\n", name, bad == 0 ? "ok" : "FAILED");
  }
  std::printf("{\"self_test\": %s}\n", bad == 0 ? "\"ok\"" : "\"failed\"");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return o.self_test ? self_test() : run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blockbench: %s\n", e.what());
    return 1;
  }
}
