// Figure 11: time series of a workload whose range-query size changes
// abruptly (§7).
//
// Threads continuously run w:20% r:55% q:25%-R where R cycles through
// 1000 -> 10 -> 1000 -> 10 -> 100000 (one phase each).  The driver samples
// the route-node count and the throughput at fixed intervals; after each
// phase change the route-node count must drift toward the new workload's
// equilibrium (down for large ranges, up for small ones) while throughput
// recovers — the paper's demonstration of smooth, local adaptation.
//
// Simplification vs. the paper's protocol: the paper isolates each sample
// point in a fresh JVM with warm-up and trigger runs to control JIT noise;
// native code needs none of that, so this driver samples one continuous
// run.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cats;
  auto opt = harness::Options::parse(argc, argv);

  const int threads = opt.threads.back();
  const double phase_seconds = std::max(0.6, opt.duration);
  const int samples_per_phase = 6;
  const std::int64_t phases[] = {1000, 10, 1000, 10,
                                 std::min<std::int64_t>(100000, opt.size)};

  lfca::Config config;
  config.high_cont = opt.high_cont;
  config.low_cont = opt.low_cont;
  config.cont_contrib = opt.cont_contrib;
  lfca::LfcaTree tree(reclaim::Domain::global(), config);
  harness::prefill(tree, opt.size);
  // Live monitoring of the adaptation run (--monitor-interval-ms,
  // --monitor-port, --metrics-out, --series-out); declared after the tree
  // so its sampler stops before the tree dies.
  harness::MonitoredRun monitored(opt, harness::tree_stats_source(tree),
                                  harness::tree_topology_source(tree));

  std::atomic<std::int64_t> range_max{phases[0]};
  std::atomic<bool> stop{false};
  std::vector<Padded<std::atomic<std::uint64_t>>> ops(threads);
  SpinBarrier barrier(threads + 1);

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(t + 17);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t dice = rng.next_below(1000);
        const Key k = rng.next_in(1, opt.size - 1);
        // Flight-recorder span, mirroring harness::run_mix (no-op unless
        // --trace-out/--monitor-port enabled the recorder).
        obs::flight::SpanStart span = obs::flight::begin_span();
        obs::flight::SpanKind span_kind = obs::flight::SpanKind::kLookup;
        if (dice < 200) {
          if ((dice & 1) == 0) {
            span_kind = obs::flight::SpanKind::kInsert;
            tree.insert(k, 1);
          } else {
            span_kind = obs::flight::SpanKind::kRemove;
            tree.remove(k);
          }
        } else if (dice < 750) {
          tree.lookup(k);
        } else {
          span_kind = obs::flight::SpanKind::kRange;
          const std::int64_t r = range_max.load(std::memory_order_relaxed);
          const std::int64_t span =
              static_cast<std::int64_t>(
                  rng.next_below(static_cast<std::uint64_t>(r))) +
              1;
          std::uint64_t sum = 0;
          tree.range_query(k, k + span - 1,
                           [&](Key key, Value) { sum += key; });
          if (sum == 0xdeadbeefdeadbeefull) std::abort();
        }
        obs::flight::end_span(span, span_kind, k);
        ops[t]->fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::GCounter::kHarnessOps);
      }
    });
  }

  if (opt.csv) {
    std::printf("fig11,time_s,range_max,route_nodes,mops\n");
  } else {
    std::printf("\n=== Fig 11: time series, %d threads, w:20%% r:55%% "
                "q:25%%-R, S=%lld ===\n",
                threads, static_cast<long long>(opt.size));
    std::printf("%8s %10s %12s %10s\n", "time[s]", "R", "routenodes",
                "op/us");
  }

  barrier.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t last_ops = 0;
  double last_time = 0;
  for (std::size_t phase = 0; phase < std::size(phases); ++phase) {
    range_max.store(phases[phase], std::memory_order_relaxed);
    for (int s = 0; s < samples_per_phase; ++s) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          phase_seconds / samples_per_phase));
      std::uint64_t now_ops = 0;
      for (auto& o : ops) now_ops += o->load(std::memory_order_relaxed);
      const double now_time = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
      const double mops = static_cast<double>(now_ops - last_ops) /
                          (now_time - last_time) / 1e6;
      const std::size_t routes = tree.route_node_count();
      if (opt.csv) {
        std::printf("fig11,%.2f,%lld,%zu,%.4f\n", now_time,
                    static_cast<long long>(phases[phase]), routes, mops);
      } else {
        std::printf("%8.2f %10lld %12zu %10.3f\n", now_time,
                    static_cast<long long>(phases[phase]), routes, mops);
      }
      std::fflush(stdout);
      last_ops = now_ops;
      last_time = now_time;
    }
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  monitored.finish();
  return 0;
}
