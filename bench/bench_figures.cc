// The paper's evaluation under the simulation runtime: one driver for every
// figure, table and ablation. `bench_figures <id>` runs exactly one
// experiment per process and prints its results table plus the shape the
// paper reports; the ids are the `kExperiments` table at the bottom.
//
// Run length: FABRICPP_BENCH_SECONDS=<n> virtual seconds per configuration,
// or FABRICPP_BENCH_FULL=1 for the paper's 90 s runs and full sweep grids.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/strings.h"
#include "fabric/config.h"
#include "fabric/metrics.h"
#include "fabric/network.h"
#include "harness.h"
#include "ordering/reorderer.h"
#include "peer/validator.h"
#include "sim/fault_injector.h"
#include "workload/custom.h"
#include "workload/micro_sequences.h"
#include "workload/smallbank.h"
#include "workload/workload.h"
#include "workload/ycsb.h"

namespace fabricpp::bench {
namespace {

// --- Run length and the shared set-ups ---

/// FABRICPP_BENCH_FULL=1 selects paper-length runs and the full grids of
/// Figures 8 and 9; any other value (or none) selects the defaults.
bool FullRuns() {
  const char* env = std::getenv("FABRICPP_BENCH_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// How long each experiment fires transactions, in virtual seconds.
///
/// The paper runs 90 s per configuration; the default here is chosen so the
/// full figure sweeps finish in minutes on a laptop while the reported
/// shapes are stable.
double MeasureSeconds() {
  if (const char* env = std::getenv("FABRICPP_BENCH_SECONDS")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return FullRuns() ? 90.0 : 12.0;
}

/// Virtual warm-up excluded from measurement (20% of the run, at most 5 s).
double WarmupSeconds() {
  const double w = MeasureSeconds() * 0.2;
  return w > 5.0 ? 5.0 : w;
}

/// Builds a network for `config` + `workload`, runs it, returns the report.
fabric::RunReport RunExperiment(const fabric::FabricConfig& config,
                                const workload::Workload& workload) {
  fabric::FabricNetwork network(config, &workload);
  const auto duration = static_cast<sim::SimTime>(MeasureSeconds() * 1e6);
  const auto warmup = static_cast<sim::SimTime>(WarmupSeconds() * 1e6);
  return network.RunFor(duration, warmup);
}

/// The header of an experiment whose every run lasts MeasureSeconds().
void PrintMeasuredHeader(const std::string& title,
                         const std::string& paper_ref) {
  PrintHeader(title, paper_ref,
              StrFormat("Virtual run: %.0fs measured (+%.0fs warmup). "
                        "FABRICPP_BENCH_FULL=1 for paper-length 90s runs.",
                        MeasureSeconds(), WarmupSeconds()));
}

/// The paper's custom workload at the configuration its Figures 1, 10 and
/// 11 use: N=10k accounts, RW=8, HR=40%, HW=10%, HSS=1%. Figure 9 and
/// Table 8 vary it.
workload::CustomConfig PaperCustom() {
  workload::CustomConfig wl;
  wl.num_accounts = 10000;
  wl.rw_ops = 8;
  wl.hot_read_prob = 0.4;
  wl.hot_write_prob = 0.1;
  wl.hot_set_fraction = 0.01;
  return wl;
}

/// The Smallbank set-up both Smallbank ablations run: 10k users, Pw=95%,
/// s=0.5.
workload::SmallbankWorkload AblationSmallbank() {
  workload::SmallbankConfig wl;
  wl.num_users = 10000;
  wl.prob_write = 0.95;
  wl.zipf_s = 0.5;
  return workload::SmallbankWorkload(wl);
}

struct Comparison {
  fabric::RunReport vanilla;
  fabric::RunReport plusplus;

  /// Fabric++'s successful throughput over vanilla's (0 if vanilla is 0).
  double factor() const {
    return vanilla.successful_tps > 0
               ? plusplus.successful_tps / vanilla.successful_tps
               : 0.0;
  }
};

/// Runs `workload` under vanilla Fabric, then under Fabric++, each preset
/// first adjusted by `adjust`.
Comparison RunVanillaAndPlusPlus(
    const workload::Workload& workload,
    const std::function<void(fabric::FabricConfig&)>& adjust = nullptr) {
  fabric::FabricConfig vanilla = fabric::FabricConfig::Vanilla();
  fabric::FabricConfig plusplus = fabric::FabricConfig::FabricPlusPlus();
  if (adjust) {
    adjust(vanilla);
    adjust(plusplus);
  }
  Comparison c;
  c.vanilla = RunExperiment(vanilla, workload);
  c.plusplus = RunExperiment(plusplus, workload);
  return c;
}

/// The Appendix B micro table: for each `param`, the valid transactions of
/// `make(param)` under the arrival order vs the reordered schedule, plus the
/// wall-clock time the reorder took.
void PrintMicroTable(
    const char* column, int width, const std::vector<uint32_t>& params,
    const std::function<std::vector<proto::ReadWriteSet>(uint32_t)>& make) {
  std::printf("\n%-*s %16s %16s %16s\n", width, column, "arrival valid",
              "reordered valid", "reorder time");
  for (const uint32_t param : params) {
    const auto sets = make(param);
    const auto rwsets = workload::AsPointers(sets);
    std::vector<uint32_t> arrival(sets.size());
    for (uint32_t i = 0; i < sets.size(); ++i) arrival[i] = i;
    const uint32_t arrival_valid =
        peer::CountValidUnderCommonSnapshot(rwsets, arrival);
    const ordering::ReorderResult result =
        ordering::ReorderTransactions(rwsets);
    const uint32_t reordered_valid =
        peer::CountValidUnderCommonSnapshot(rwsets, result.order);
    std::printf("%-*u %16u %16u %13llu us\n", width, param, arrival_valid,
                reordered_valid,
                static_cast<unsigned long long>(result.elapsed_wall_us));
  }
}

// --- Figure 1: vanilla Fabric firing *meaningful* transactions shows a
// large aborted fraction; firing *blank* transactions yields roughly the
// same total throughput, so the ceiling is crypto + networking, not
// transaction logic. ---

void RunFig01() {
  PrintMeasuredHeader("Figure 1 — Motivation: aborted vs successful, blank vs "
                      "meaningful (vanilla Fabric)",
                      "Figure 1, Section 1.1");

  fabric::FabricConfig config = fabric::FabricConfig::Vanilla();
  config.block.max_transactions = 1024;
  // Figure 1 decomposes the raw pipeline capacity; client resubmission
  // would asymmetrically inflate the meaningful run (blank never aborts).
  config.client_resubmit = false;

  const workload::CustomWorkload meaningful(PaperCustom());
  const workload::BlankWorkload blank;

  const fabric::RunReport m = RunExperiment(config, meaningful);
  const fabric::RunReport b = RunExperiment(config, blank);

  std::printf("\n%-24s %12s %12s %12s\n", "workload", "success tps",
              "aborted tps", "total tps");
  std::printf("%-24s %12.1f %12.1f %12.1f\n", "meaningful (custom)",
              m.successful_tps, m.failed_tps, m.successful_tps + m.failed_tps);
  std::printf("%-24s %12.1f %12.1f %12.1f\n", "blank", b.successful_tps,
              b.failed_tps, b.successful_tps + b.failed_tps);
  std::printf("\nmeaningful abort breakdown: %s\n", m.ToString().c_str());
  const double ratio = (b.successful_tps + b.failed_tps) /
                       (m.successful_tps + m.failed_tps);
  std::printf("\nblank/meaningful total throughput ratio: %.2f "
              "(paper: ~1.0 — \"the total throughput of blank and "
              "meaningful transactions essentially equals\")\n",
              ratio);
}

// --- Figure 7: successful tps vs block size (16..2048), Smallbank with
// Pw=95%, uniform account selection (s=0), 100k users. ---

void RunFig07() {
  PrintMeasuredHeader("Figure 7 — Impact of the blocksize",
                      "Figure 7, Section 6.3");

  workload::SmallbankConfig wl;
  wl.num_users = 100000;
  wl.prob_write = 0.95;
  wl.zipf_s = 0.0;
  const workload::SmallbankWorkload workload(wl);

  std::printf("\n%-10s %18s %18s\n", "blocksize", "fabric [tps]",
              "fabric++ [tps]");
  for (uint32_t bs = 16; bs <= 2048; bs *= 2) {
    const Comparison c =
        RunVanillaAndPlusPlus(workload, [bs](fabric::FabricConfig& config) {
          config.block.max_transactions = bs;
        });
    std::printf("%-10u %18.1f %18.1f\n", bs, c.vanilla.successful_tps,
                c.plusplus.successful_tps);
  }
  std::printf("\nPaper shape: throughput grows with blocksize for both "
              "systems; Fabric++ gains more at larger blocks (more "
              "reordering opportunity per block).\n");
}

// --- Figure 8 (a-c): Smallbank throughput while sweeping the Zipf skew
// (s-value 0.0 .. 2.0) for the read-heavy (Pw=5%), balanced (Pw=50%) and
// write-heavy (Pw=95%) mixes. ---

void RunFig08() {
  PrintMeasuredHeader("Figure 8 — Smallbank throughput vs Zipf skew",
                      "Figure 8 (a-c), Section 6.4.1, Table 6");

  // A coarser grid by default; FABRICPP_BENCH_FULL=1 uses the paper's 0.2
  // steps.
  const bool full = FullRuns();
  std::vector<double> s_values;
  for (double s = 0.0; s <= 2.001; s += full ? 0.2 : 0.5) {
    s_values.push_back(s);
  }

  for (const double pw : {0.05, 0.50, 0.95}) {
    std::printf("\n--- Pw = %.0f%% (%s) ---\n", pw * 100,
                pw < 0.1   ? "read-heavy"
                : pw < 0.9 ? "balanced"
                           : "write-heavy");
    std::printf("%-8s %18s %18s %10s\n", "s-value", "fabric [tps]",
                "fabric++ [tps]", "factor");
    for (const double s : s_values) {
      workload::SmallbankConfig wl;
      wl.num_users = 100000;
      wl.prob_write = pw;
      wl.zipf_s = s;
      const workload::SmallbankWorkload workload(wl);
      const Comparison c = RunVanillaAndPlusPlus(workload);
      std::printf("%-8.1f %18.1f %18.1f %9.2fx\n", s,
                  c.vanilla.successful_tps, c.plusplus.successful_tps,
                  c.factor());
    }
  }
  std::printf(
      "\nPaper shape: both systems are high and close for s <= 0.6; for "
      "s >= 1.0 Fabric collapses under contention while Fabric++ retains "
      "throughput (paper: 1.15-1.37x at s=1.0, 2.68-12.61x at s=2.0, "
      "largest for write-heavy).\n");
}

// --- Figure 9: the 36-configuration sweep of the custom workload — RW in
// {4, 8} x HR in {10%, 20%, 40%} x HW in {5%, 10%} x HSS in {1%, 2%, 4%}. ---

void RunFig09() {
  PrintMeasuredHeader("Figure 9 — Custom workload, 36 configurations",
                      "Figure 9, Section 6.4.2, Table 7");

  // The full 36-configuration sweep takes a while; the default trims HSS to
  // the paper's 1% rows. FABRICPP_BENCH_FULL=1 runs all 36.
  const std::vector<double> hss_values =
      FullRuns() ? std::vector<double>{0.01, 0.02, 0.04}
                 : std::vector<double>{0.01, 0.04};

  double max_factor = 0;
  std::string max_label;
  std::printf("\n");
  for (const uint32_t rw : {4u, 8u}) {
    for (const double hr : {0.1, 0.2, 0.4}) {
      for (const double hw : {0.05, 0.10}) {
        for (const double hss : hss_values) {
          workload::CustomConfig wl = PaperCustom();
          wl.rw_ops = rw;
          wl.hot_read_prob = hr;
          wl.hot_write_prob = hw;
          wl.hot_set_fraction = hss;
          const workload::CustomWorkload workload(wl);
          const Comparison c = RunVanillaAndPlusPlus(workload);
          const std::string label =
              StrFormat("RW=%u HR=%.0f%% HW=%.0f%% HSS=%.0f%%", rw, hr * 100,
                        hw * 100, hss * 100);
          std::printf(
              "%-34s | fabric %8.1f tps (fail %7.1f) | fabric++ %8.1f tps "
              "(fail %7.1f) | x%.2f\n",
              label.c_str(), c.vanilla.successful_tps, c.vanilla.failed_tps,
              c.plusplus.successful_tps, c.plusplus.failed_tps, c.factor());
          if (c.factor() > max_factor) {
            max_factor = c.factor();
            max_label = label;
          }
        }
      }
    }
  }
  std::printf(
      "\nLargest improvement: x%.2f at %s (paper: ~3x at BS=1024, RW=8, "
      "HR=40%%, HW=10%%, HSS=1%%).\n",
      max_factor, max_label.c_str());
}

// --- Figure 10: the individual impact of the two Fabric++ optimizations
// (reordering, early abort) on successful throughput, BS=1024, RW=8,
// HR=40%, HW=10%, HSS=1%. ---

fabric::RunReport RunVariant(bool reordering, bool early_abort,
                             const workload::Workload& workload) {
  fabric::FabricConfig config = fabric::FabricConfig::Vanilla();
  config.block.max_transactions = 1024;
  if (reordering) {
    config.enable_reordering = true;
    config.block.max_unique_keys = 16384;
  }
  if (early_abort) {
    // Early abort needs the fine-grained concurrency control (§5.2.1).
    config.enable_early_abort_sim = true;
    config.enable_early_abort_ordering = true;
    config.concurrency = fabric::ConcurrencyMode::kFineGrained;
  }
  return RunExperiment(config, workload);
}

void RunFig10() {
  PrintMeasuredHeader(
      "Figure 10 — Optimization breakdown (BS=1024, RW=8, HR=40%, "
      "HW=10%, HSS=1%)",
      "Figure 10, Section 6.5");

  const workload::CustomWorkload workload(PaperCustom());

  struct Variant {
    const char* label;
    bool reordering;
    bool early_abort;
  };
  const Variant variants[] = {
      {"Fabric (vanilla)", false, false},
      {"Fabric++ (only reordering)", true, false},
      {"Fabric++ (only early abort)", false, true},
      {"Fabric++ (reordering & early abort)", true, true},
  };

  std::printf("\n%-40s %16s %16s\n", "variant", "success [tps]",
              "failed [tps]");
  double base = 0;
  for (const Variant& v : variants) {
    const fabric::RunReport report =
        RunVariant(v.reordering, v.early_abort, workload);
    if (base == 0) base = report.successful_tps;
    std::printf("%-40s %16.1f %16.1f   (x%.2f vs vanilla)\n", v.label,
                report.successful_tps, report.failed_tps,
                base > 0 ? report.successful_tps / base : 0.0);
  }
  std::printf(
      "\nPaper shape: each optimization alone improves over vanilla "
      "(~1.5x each) and the combination is the best configuration "
      "(~2.2x). Reordering removes within-block conflicts; early abort "
      "keeps doomed transactions out of blocks and lets clients resubmit "
      "without delay.\n");
}

// --- Figure 11: throughput scaling with (a) the number of channels
// (2 clients each) and (b) the number of clients on a single channel,
// BS=1024, RW=8, HR=40%, HW=10%, HSS=1%. ---

void PrintScalingRow(uint32_t n, const Comparison& c) {
  std::printf("%-10u | %13.1f / %12.1f | %13.1f / %12.1f\n", n,
              c.vanilla.successful_tps, c.vanilla.failed_tps,
              c.plusplus.successful_tps, c.plusplus.failed_tps);
}

void RunFig11() {
  PrintMeasuredHeader("Figure 11 — Scaling channels and clients",
                      "Figure 11 (a, b), Section 6.6");

  const workload::CustomWorkload workload(PaperCustom());

  std::printf("\n(a) Varying channels, 2 clients per channel:\n");
  std::printf("%-10s | %28s | %28s\n", "channels", "fabric succ/fail [tps]",
              "fabric++ succ/fail [tps]");
  for (const uint32_t channels : {1u, 2u, 4u, 8u}) {
    const Comparison c = RunVanillaAndPlusPlus(
        workload, [channels](fabric::FabricConfig& config) {
          config.num_channels = channels;
          config.clients_per_channel = 2;
        });
    PrintScalingRow(channels, c);
  }
  std::printf("Paper shape: throughput rises up to 4 channels, then drops "
              "at 8 as channels compete for peer resources; failed tps "
              "rises with channel count.\n");

  std::printf("\n(b) Varying clients on a single channel:\n");
  std::printf("%-10s | %28s | %28s\n", "clients", "fabric succ/fail [tps]",
              "fabric++ succ/fail [tps]");
  for (const uint32_t clients : {1u, 2u, 4u, 8u}) {
    const Comparison c = RunVanillaAndPlusPlus(
        workload, [clients](fabric::FabricConfig& config) {
          config.clients_per_channel = clients;
        });
    PrintScalingRow(clients, c);
  }
  std::printf("Paper shape: Fabric grows gently with clients; Fabric++ "
              "peaks early (2-4 clients) and degrades toward Fabric at 8 "
              "clients as the firing clients compete for resources; failed "
              "tps rises steeply with client count.\n");
}

// --- Table 8: the Hyperledger Caliper run — latency (min/avg/max) and
// successful throughput at a reduced firing rate of 150 proposals/s per
// client (600 tps total), block size 512, custom workload with RW=4. ---

void RunTab08() {
  PrintMeasuredHeader("Table 8 — Caliper-style latency & throughput",
                      "Table 8, Section 6.7");

  workload::CustomConfig wl = PaperCustom();
  wl.rw_ops = 4;
  const workload::CustomWorkload workload(wl);

  const Comparison c =
      RunVanillaAndPlusPlus(workload, [](fabric::FabricConfig& config) {
        config.client_fire_rate_tps = 150;  // 4 clients -> 600 tps total.
        config.block.max_transactions = 512;
      });
  const fabric::RunReport& v = c.vanilla;
  const fabric::RunReport& p = c.plusplus;

  std::printf("\n%-40s %12s %12s\n", "Metric", "Fabric", "Fabric++");
  std::printf("%-40s %12.2f %12.2f\n", "Max. Latency [seconds]",
              v.latency_max_ms / 1000, p.latency_max_ms / 1000);
  std::printf("%-40s %12.2f %12.2f\n", "Min. Latency [seconds]",
              v.latency_min_ms / 1000, p.latency_min_ms / 1000);
  std::printf("%-40s %12.2f %12.2f\n", "Avg. Latency [seconds]",
              v.latency_avg_ms / 1000, p.latency_avg_ms / 1000);
  std::printf("%-40s %12.1f %12.1f\n",
              "Avg. Successful Transactions per second", v.successful_tps,
              p.successful_tps);
  std::printf(
      "\nPaper: Fabric 1.44/0.26/0.47 s and 188 tps; Fabric++ "
      "1.14/0.12/0.28 s and 299 tps — Fabric++ roughly halves average "
      "latency and raises successful throughput.\n");
}

// --- Figure 15 (Appendix B.1): the stand-alone reordering micro-benchmark
// on the shifted read/write sequence, shift = 0..512 over 1024 txns. ---

void RunFig15() {
  PrintHeader("Figure 15 — Micro: shifted reads/writes (1024 transactions)",
              "Figure 15, Appendix B.1");

  PrintMicroTable("shift", 8,
                  {0u, 64u, 128u, 192u, 256u, 320u, 384u, 448u, 512u},
                  [](uint32_t shift) {
                    return workload::MakeShiftedReadWriteSequence(1024, shift);
                  });
  std::printf(
      "\nPaper shape: the reordered schedule keeps all 1024 transactions "
      "valid for every shift (paper: reordering takes ~1-2 ms); the arrival "
      "order loses every reader that follows its writer.\n");
}

// --- Figure 16 (Appendix B.2): the reordering micro-benchmark on
// conflict-cycle chains as the cycle length grows (1024 transactions). A
// second scenario measures what taking the reorder stage off the orderer's
// critical path buys: block inter-arrival gap and cut-queue stalls, inline
// (pipeline depth 1) vs pipelined (depth 4). ---

/// One saturated Fabric++ run at the given pipeline depth. Small blocks at a
/// high fire rate keep a batch waiting in the cut queue whenever the
/// reorder/ordering stage is busy, so the inline configuration (depth 1)
/// accumulates stall time that the pipelined one overlaps away.
fabric::RunReport RunPipelineDepth(uint32_t depth) {
  workload::SmallbankConfig wl_config;
  wl_config.num_users = 1000;
  workload::SmallbankWorkload workload(wl_config);

  fabric::FabricConfig config = fabric::FabricConfig::FabricPlusPlus();
  config.block.max_transactions = 32;
  config.client_fire_rate_tps = 400;
  config.seed = 7;
  config.ordering_pipeline_depth = depth;
  // Price the reorder pass like the cycle-heavy Figure 16 worst cases
  // (~80 ms per 32-transaction block), making it the stage the pipeline
  // must take off the critical path.
  config.cost.reorder_per_tx = 2500;

  fabric::FabricNetwork network(config, &workload);
  return network.RunFor(10 * sim::kSecond, 2 * sim::kSecond);
}

void RunFig16() {
  PrintHeader("Figure 16 — Micro: conflict cycles (1024 transactions)",
              "Figure 16, Appendix B.2");

  PrintMicroTable("cycle_len", 12,
                  {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u},
                  [](uint32_t cycle_len) {
                    return workload::MakeCycleSequence(1024, cycle_len);
                  });
  std::printf(
      "\nPaper shape: the arrival order commits exactly half of the "
      "transactions regardless of cycle length (aborting every second "
      "transaction breaks the cycles); the reorderer aborts ~one "
      "transaction per cycle, so its valid count approaches 1024 as cycles "
      "get longer, at increasing reordering cost.\n");

  PrintHeader(
      "Ordering pipeline — reordering off the critical path "
      "(32-tx blocks, saturated orderer)",
      "DESIGN.md §10",
      "Virtual run: 10s measured (+2s warmup) per depth; fixed, "
      "FABRICPP_BENCH_SECONDS does not apply.");

  std::printf("\n%-10s %8s %8s %12s %14s %14s %10s\n", "pipeline", "blocks",
              "stalls", "stall total", "block gap avg", "block gap p95",
              "tps");
  for (const uint32_t depth : {1u, 4u}) {
    const fabric::RunReport report = RunPipelineDepth(depth);
    std::printf("depth %-4u %8llu %8llu %9.1f ms %11.2f ms %11.2f ms %10.1f\n",
                depth,
                static_cast<unsigned long long>(report.blocks_committed),
                static_cast<unsigned long long>(report.ordering_stalls),
                report.ordering_stall_ms, report.block_gap_avg_ms,
                report.block_gap_p95_ms, report.successful_tps);
  }
  std::printf(
      "\nWith depth 1 every batch waits out the previous block's full "
      "ordering cost (reorder included) before it may even be admitted; "
      "deeper pipelines admit the next batch while earlier blocks are "
      "still in the reorder stage, shrinking the cut-queue stall total "
      "and the commit-to-commit gap. Blocks still reach consensus in "
      "chain order through the in-order drain.\n");
}

// --- Ablation: solo ordering service (the paper's deployment) vs a
// crash-fault-tolerant Raft ordering cluster (Fabric >= 1.4's etcdraft):
// what consensus replication costs in throughput and latency. ---

void RunAblationOrdering() {
  PrintMeasuredHeader(
      "Ablation — ordering backend: solo vs Raft cluster",
      "extension (paper §2.1 treats the orderer as a black box)");

  const workload::SmallbankWorkload workload = AblationSmallbank();

  std::printf("\n%-26s %14s %14s %12s\n", "configuration", "success [tps]",
              "failed [tps]", "avg lat");
  for (const bool plusplus : {false, true}) {
    for (const uint32_t raft_nodes : {0u, 3u, 5u}) {
      fabric::FabricConfig config =
          plusplus ? fabric::FabricConfig::FabricPlusPlus()
                   : fabric::FabricConfig::Vanilla();
      if (raft_nodes > 0) {
        config.ordering_backend = fabric::OrderingBackend::kRaft;
        config.raft_cluster_size = raft_nodes;
      }
      const fabric::RunReport report = RunExperiment(config, workload);
      char label[64];
      std::snprintf(label, sizeof(label), "%s / %s",
                    plusplus ? "fabric++" : "fabric",
                    raft_nodes == 0
                        ? "solo"
                        : (raft_nodes == 3 ? "raft-3" : "raft-5"));
      std::printf("%-26s %14.1f %14.1f %9.1f ms\n", label,
                  report.successful_tps, report.failed_tps,
                  report.latency_avg_ms);
    }
  }
  std::printf("\nExpected: Raft adds per-block replication latency (one "
              "round trip to a majority) with little throughput cost at "
              "these block sizes.\n");
}

// --- Ablation: YCSB core mixes (A/B/C/F), the standard KV-store benchmark
// the paper's §6.2 names alongside Smallbank. Mix F (read-modify-write) is
// where MVCC conflicts appear and the Fabric++ optimizations matter. ---

void RunAblationYcsb() {
  PrintMeasuredHeader("Ablation — YCSB core mixes", "extension (paper §6.2)");

  std::printf("\n%-16s %18s %18s %10s\n", "mix", "fabric [tps]",
              "fabric++ [tps]", "factor");
  for (const auto mix : {workload::YcsbMix::kA, workload::YcsbMix::kB,
                         workload::YcsbMix::kC, workload::YcsbMix::kF}) {
    workload::YcsbConfig wl;
    wl.mix = mix;
    wl.num_records = 10000;
    wl.zipf_s = 0.99;
    const workload::YcsbWorkload workload(wl);
    const Comparison c = RunVanillaAndPlusPlus(workload);
    std::printf("%-16s %18.1f %18.1f %9.2fx\n",
                std::string(workload::YcsbMixToString(mix)).c_str(),
                c.vanilla.successful_tps, c.plusplus.successful_tps,
                c.factor());
  }
  std::printf("\nExpected: A/B/C are conflict-free in Fabric semantics "
              "(updates are blind writes) so the systems tie; F's "
              "read-modify-writes conflict under the zipfian hot keys and "
              "Fabric++ pulls ahead.\n");
}

// --- Ablation: throughput under injected network faults, from a clean
// network (which must reproduce the no-injector baseline — the injector's
// RNG is untouched when no faults are armed) to heavy loss + duplication +
// jitter + a mid-run peer crash, and what the client's timeout + backoff
// resubmission loop recovers. ---

struct FaultLevel {
  const char* label;
  double loss_prob;
  double duplicate_prob;
  sim::SimTime max_extra_delay;
  bool crash_peer;  ///< Crash peer 1 for the middle 20% of the run.
};

constexpr FaultLevel kLevels[] = {
    {"none (baseline)", 0.0, 0.0, 0, false},
    {"2% loss", 0.02, 0.01, 200, false},
    {"5% loss", 0.05, 0.02, 500, false},
    {"10% loss + peer crash", 0.10, 0.02, 1000, true},
};

fabric::RunReport RunWithFaults(fabric::FabricConfig config,
                                const workload::Workload& workload,
                                const FaultLevel& level) {
  // Offered load below the clean pipeline's capacity: fault response is
  // about what survives the network, not queueing at saturation — at
  // saturation the commit latency alone exceeds any sane timeout and the
  // timeout aborts would dominate every row, faults armed or not.
  config.client_fire_rate_tps = 100;
  // Retry timeouts sized to the virtual run so lost work is actually
  // retried within the measurement window.
  config.client_endorsement_timeout = 500 * sim::kMillisecond;
  config.client_commit_timeout = 2 * sim::kSecond;
  config.client_max_retries = 5;

  fabric::FabricNetwork network(config, &workload);
  const auto duration = static_cast<sim::SimTime>(MeasureSeconds() * 1e6);
  const auto warmup = static_cast<sim::SimTime>(WarmupSeconds() * 1e6);

  sim::LinkFaults faults;
  faults.loss_prob = level.loss_prob;
  faults.duplicate_prob = level.duplicate_prob;
  faults.max_extra_delay = level.max_extra_delay;
  network.fault_injector().SetDefaultLinkFaults(faults);
  if (level.crash_peer) {
    network.SchedulePeerCrash(1, duration * 2 / 5, duration * 3 / 5);
  }
  return network.RunFor(duration, warmup);
}

void RunAblationFaults() {
  PrintMeasuredHeader(
      "Ablation — fault tolerance: throughput under network faults",
      "extension (robustness; the paper assumes a clean network)");

  const workload::SmallbankWorkload workload = AblationSmallbank();

  std::printf("\n%-24s %-10s %14s %14s %10s %10s %9s\n", "fault level",
              "pipeline", "success [tps]", "failed [tps]", "timeouts",
              "dropped", "dups");
  for (const FaultLevel& level : kLevels) {
    for (const bool plusplus : {false, true}) {
      const fabric::FabricConfig config =
          plusplus ? fabric::FabricConfig::FabricPlusPlus()
                   : fabric::FabricConfig::Vanilla();
      const fabric::RunReport r = RunWithFaults(config, workload, level);
      const uint64_t timeouts =
          r.aborts[static_cast<size_t>(
              fabric::TxOutcome::kAbortEndorsementTimeout)] +
          r.aborts[static_cast<size_t>(fabric::TxOutcome::kAbortCommitTimeout)];
      std::printf("%-24s %-10s %14.1f %14.1f %10lu %10lu %9lu\n", level.label,
                  plusplus ? "fabric++" : "fabric", r.successful_tps,
                  r.failed_tps, static_cast<unsigned long>(timeouts),
                  static_cast<unsigned long>(r.net_messages_dropped),
                  static_cast<unsigned long>(r.net_messages_duplicated));
      if (r.peer_recoveries > 0) {
        std::printf("%-24s %-10s   peer recoveries: %lu, avg %.1f ms\n", "",
                    "", static_cast<unsigned long>(r.peer_recoveries),
                    r.recovery_avg_ms);
      }
    }
  }
  std::printf(
      "\nExpected: the zero-fault rows sustain essentially the whole "
      "offered load with zero timeout aborts — and since the idle injector "
      "consumes no randomness, they are bit-identical to runs without the "
      "fault layer. Under faults, successful throughput degrades gracefully "
      "with intensity; timeout aborts plus backoff resubmission absorb the "
      "losses, and crashed peers catch back up from the orderer.\n");
}

struct Experiment {
  const char* id;
  void (*run)();
};

constexpr Experiment kExperiments[] = {
    {"fig01", RunFig01},
    {"fig07", RunFig07},
    {"fig08", RunFig08},
    {"fig09", RunFig09},
    {"fig10", RunFig10},
    {"fig11", RunFig11},
    {"fig15", RunFig15},
    {"fig16", RunFig16},
    {"tab08", RunTab08},
    {"ablation_ordering", RunAblationOrdering},
    {"ablation_ycsb", RunAblationYcsb},
    {"ablation_faults", RunAblationFaults},
};

}  // namespace
}  // namespace fabricpp::bench

int main(int argc, char** argv) {
  using fabricpp::bench::kExperiments;
  if (argc == 2) {
    for (const auto& experiment : kExperiments) {
      if (std::string(argv[1]) == experiment.id) {
        experiment.run();
        return 0;
      }
    }
  }
  std::fprintf(stderr, "usage: bench_figures <id>\nids:");
  for (const auto& experiment : kExperiments) {
    std::fprintf(stderr, " %s", experiment.id);
  }
  std::fprintf(stderr, "\n");
  return 2;
}
