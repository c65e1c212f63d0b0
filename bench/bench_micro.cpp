// Microbenchmarks (google-benchmark) for the substrates: persistent treap
// operation costs at various sizes, EBR guard/retire overhead, and the
// single-operation costs of each concurrent structure.  These are the
// numbers behind the throughput figures: e.g. the O(log n) path-copy cost
// of a persistent insert bounds the update throughput of every
// immutable-container design.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "imtr/imtr_set.hpp"
#include "lfca/lfca_tree.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "reclaim/ebr.hpp"
#include "skiplist/skiplist.hpp"
#include "treap/treap.hpp"

namespace {

using namespace cats;

treap::Ref build_treap(std::int64_t n, std::uint64_t seed = 7) {
  Xoshiro256 rng(seed);
  treap::Ref t;
  std::int64_t inserted = 0;
  while (inserted < n) {
    bool replaced = false;
    t = treap::insert(t.get(), rng.next_in(0, n * 2), 1, &replaced);
    if (!replaced) ++inserted;
  }
  return t;
}

void BM_TreapInsert(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  Xoshiro256 rng(13);
  for (auto _ : state) {
    treap::Ref next = treap::insert(base.get(), rng.next_in(0, n * 2), 2);
    benchmark::DoNotOptimize(next.get());
  }
  state.SetLabel("persistent path copy");
}
BENCHMARK(BM_TreapInsert)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_TreapRemove(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  Xoshiro256 rng(17);
  for (auto _ : state) {
    treap::Ref next = treap::remove(base.get(), rng.next_in(0, n * 2));
    benchmark::DoNotOptimize(next.get());
  }
}
BENCHMARK(BM_TreapRemove)->Arg(1000)->Arg(100000);

void BM_TreapLookup(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  Xoshiro256 rng(19);
  for (auto _ : state) {
    Value v = 0;
    benchmark::DoNotOptimize(
        treap::lookup(base.get(), rng.next_in(0, n * 2), &v));
  }
}
BENCHMARK(BM_TreapLookup)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_TreapSplitJoin(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  treap::Ref base = build_treap(n);
  for (auto _ : state) {
    treap::Ref l, r;
    Key pivot = 0;
    treap::split_evenly(base.get(), &l, &r, &pivot);
    treap::Ref joined = treap::join(l, r);
    benchmark::DoNotOptimize(joined.get());
  }
  state.SetLabel("split_evenly + join");
}
BENCHMARK(BM_TreapSplitJoin)->Arg(1000)->Arg(100000);

void BM_TreapRangeScan(benchmark::State& state) {
  treap::Ref base = build_treap(100000);
  const std::int64_t span = state.range(0);
  Xoshiro256 rng(23);
  for (auto _ : state) {
    const Key lo = rng.next_in(0, 200000 - span);
    std::uint64_t sum = 0;
    treap::for_range(base.get(), lo, lo + span,
                     [&](Key k, Value) { sum += k; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * span / 2);
}
BENCHMARK(BM_TreapRangeScan)->Arg(100)->Arg(10000);

void BM_EbrGuard(benchmark::State& state) {
  reclaim::Domain domain;
  for (auto _ : state) {
    reclaim::Domain::Guard guard(domain);
    benchmark::ClobberMemory();
  }
  state.SetLabel("enter+exit");
}
BENCHMARK(BM_EbrGuard);

void BM_EbrRetire(benchmark::State& state) {
  reclaim::Domain domain;
  for (auto _ : state) {
    domain.retire(new int(1));
  }
  domain.drain();
}
BENCHMARK(BM_EbrRetire);

template <class S>
void BM_StructureLookup(benchmark::State& state) {
  S s;
  Xoshiro256 rng(29);
  for (Key k = 1; k <= 100000; ++k) s.insert(k, 1);
  for (auto _ : state) {
    Value v = 0;
    benchmark::DoNotOptimize(s.lookup(rng.next_in(1, 100000), &v));
  }
}
BENCHMARK(BM_StructureLookup<lfca::LfcaTree>)->Name("BM_Lookup/lfca");
BENCHMARK(BM_StructureLookup<imtr::ImTreeSet>)->Name("BM_Lookup/imtr");
BENCHMARK(BM_StructureLookup<skiplist::SkipList>)->Name("BM_Lookup/skiplist");

template <class S>
void BM_StructureInsertRemove(benchmark::State& state) {
  S s;
  Xoshiro256 rng(31);
  for (Key k = 1; k <= 100000; ++k) s.insert(k, 1);
  for (auto _ : state) {
    const Key k = rng.next_in(1, 100000);
    s.insert(k, 2);
    s.remove(k);
  }
  state.SetLabel("insert+remove pair");
}
BENCHMARK(BM_StructureInsertRemove<lfca::LfcaTree>)->Name("BM_Update/lfca");
BENCHMARK(BM_StructureInsertRemove<imtr::ImTreeSet>)->Name("BM_Update/imtr");
BENCHMARK(BM_StructureInsertRemove<skiplist::SkipList>)
    ->Name("BM_Update/skiplist");

// ---------------------------------------------------------------------------
// Metrics demo.  After the microbenchmarks, run a short contended mix
// against an LFCA tree with sensitive adaptation thresholds and export
// everything the observability layer collected — counters, latency
// histograms, topology and the adaptation-event trace — through the
// harness's monitored-run mode (harness::MonitoredRun): the final snapshot
// lands in bench_micro_metrics.json, the sampler's rate time-series in
// bench_micro_series.csv, and with --monitor-port=P the same data is
// served live at /metrics, /stats.json, /topology.json and /healthz while
// the mix is running.
// ---------------------------------------------------------------------------
void run_metrics_demo(const harness::Options& opt) {
  // Quiescent here — the worker threads haven't started yet.
  obs::Registry::instance().reset();

  lfca::Config config;
  config.high_cont = 0;  // adapt on every contention event (1-CPU hosts
  config.low_cont = -100;  // rarely see clustered CAS failures)
  reclaim::Domain domain;
  {
    lfca::LfcaTree tree(domain, config);
    harness::prefill(tree, 1 << 14);
    // Declared after the tree: the monitor samples through the tree and
    // must stop before it is destroyed.
    harness::MonitoredRun monitored(opt, harness::tree_stats_source(tree),
                                    harness::tree_topology_source(tree));
    const harness::Mix mix = harness::Mix::of_percent(80, 10, 10, 256);
    harness::run_mix(tree, 4, mix, 1 << 14, opt.duration);
    // The mix above splits under real contention; add a deterministic round
    // of forced adaptations so the exported data always shows both
    // directions, even on a single-core host where the contended phase
    // barely splits.  Hold each phase for a few sampler intervals so the
    // time-series records the plateau: the base-node column rises to ~9
    // and falls back regardless of hardware.
    const auto hold = std::chrono::milliseconds(
        opt.monitor_interval_ms > 0 ? 3 * opt.monitor_interval_ms : 0);
    for (Key k = 0; k < 8; ++k) tree.force_split(k * 2048);
    std::this_thread::sleep_for(hold);
    for (Key k = 0; k < 8; ++k) tree.force_join(k * 2048);
    std::this_thread::sleep_for(hold);

    obs::Snapshot snap = obs::global_snapshot();
    tree.stats().append_to(snap, "lfca_");
    std::printf("\n--- observability snapshot ---\n");
    obs::write_table(std::cout, snap);
    monitored.finish();  // stops endpoint + sampler, writes the files
  }
  domain.drain();
}

}  // namespace

int main(int argc, char** argv) {
  // Arguments starting with --benchmark_ go to google-benchmark; every
  // other one is a harness flag for the metrics demo (harness/cli.hpp),
  // whose --duration sets the demo's length.
  std::vector<char*> bench_args{argv[0]};
  std::vector<char*> demo_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const bool ours = !std::string_view(argv[i]).starts_with("--benchmark_");
    (ours ? demo_args : bench_args).push_back(argv[i]);
  }
  cats::harness::Options defaults;
  defaults.duration = 0.3;
  defaults.monitor_interval_ms = 50;
  defaults.metrics_out = "bench_micro_metrics.json";
  defaults.series_out = "bench_micro_series.csv";
  const cats::harness::Options opt = cats::harness::Options::parse(
      static_cast<int>(demo_args.size()), demo_args.data(), defaults);

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_metrics_demo(opt);
  return 0;
}
