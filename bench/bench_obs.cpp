// Observability overhead check.
//
// Runs the same LFCA mix under the three flight-recorder modes, so one
// binary answers every overhead question:
//
//   flight-off       recorder disabled (the shipped default): every
//                    begin_span is one relaxed load and a branch
//   flight-unsampled recorder enabled at shift 20 (1 op in ~10^6): measures
//                    the enabled-but-not-sampling hot path
//   flight-sampled   recorder enabled at shift 6 (1 op in 64): the cost of
//                    actually recording spans at a tracing-grade rate
//
//   ./build/bench/bench_obs --csv
//
// The flight-unsampled rows must stay within host noise of flight-off: the
// unsampled flight path adds one thread-local countdown.  The always-on
// hooks (a relaxed fetch_add on a thread-private cache line, or nothing at
// all on the wait-free lookup path) are in every row.
#include <cstdio>

#include "bench_common.hpp"
#include "obs/flight/flight.hpp"

int main(int argc, char** argv) {
  using namespace cats;
  harness::Options opt = harness::Options::parse(argc, argv);

  const harness::Mix mix = harness::Mix::of_percent(20, 55, 25, 1000);
  if (!opt.csv) {
    std::printf("mix %s  S=%lld\n", mix.describe().c_str(),
                static_cast<long long>(opt.size));
  }
  struct Mode {
    const char* name;
    int shift;  // -1 = recorder disabled
  };
  const Mode modes[] = {
      {"flight-off", -1},
      {"flight-unsampled", 20},
      {"flight-sampled", 6},
  };
  for (const Mode& mode : modes) {
    if (mode.shift < 0) {
      obs::flight::Recorder::instance().disable();
    } else {
      obs::flight::Recorder::instance().enable(
          static_cast<unsigned>(mode.shift));
    }
    for (int threads : opt.threads) {
      const harness::RunResult r =
          bench::measure<lfca::LfcaTree>(opt, {{threads, mix}});
      if (opt.csv) {
        std::printf("obs-overhead,%s,%d,%.4f\n", mode.name, threads,
                    r.throughput_mops());
      } else {
        std::printf("%-17s threads=%-3d %9.3f ops/us  (per-thread min=%llu "
                    "max=%llu stddev=%.0f)\n",
                    mode.name, threads, r.throughput_mops(),
                    static_cast<unsigned long long>(r.ops_min()),
                    static_cast<unsigned long long>(r.ops_max()),
                    r.ops_stddev());
      }
      std::fflush(stdout);
    }
  }
  obs::flight::Recorder::instance().disable();
  return 0;
}
