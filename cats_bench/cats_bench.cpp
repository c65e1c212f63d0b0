// cats_bench: one run of one LFCA benchmark workload, in one process.
//
// Load model: a closed loop of kThreads worker threads over one shared tree.
// Each thread issues its next operation when the previous one returns, with
// no think time.  Keys are uniform in [1, S), drawn from Xoshiro256 seeded
// from --seed; every value stored is key + 1.  String keys come from a key
// table encoded before anything is timed, so the tree only ever receives
// generated inputs.
//
// A run: encode the key table; prefill a fresh tree single-threaded to S/2
// keys, at least --setups times and for at least kMinSetupSeconds in total
// (setup_s is the median); warm up for --warmup seconds
// with the workload's mix so the route tree reaches equilibrium and the pool
// caches fill; measure for --seconds; check the tree.  Every operation is
// checked against the map contract (issue() below), and the run ends with a
// size and an integrity check.
//
// With --trace=1 the run also records spans of sampled tree calls (written
// as Chrome trace-event JSON to --trace-out), times the public functions of
// the layers under the tree single-threaded (treap, alloc, reclaim), and runs
// a fixed-budget one-thread pass whose per-operation work counts repeat
// exactly from run to run.
//
// Output: one JSON document on stdout, {"workload", "seed", "trace",
// "attempted", "failed", "checks", "info", "metrics"}; progress goes to
// stderr.  cats_bench/run.py builds and drives this binary.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc/pool.hpp"
#include "common/padded.hpp"
#include "common/rng.hpp"
#include "harness/cli.hpp"
#include "harness/workload.hpp"
#include "lfca/lfca_tree.hpp"
#include "obs/registry.hpp"
#include "reclaim/ebr.hpp"

namespace {

using namespace cats;
using Clock = std::chrono::steady_clock;

constexpr int kThreads = 4;
/// One operation in 16 per thread is timed; timing every call would double
/// the cost of a lookup.
constexpr std::uint64_t kSampleMask = 15;
/// Sample buffers are sized for this many timed operations per thread and
/// second (4 M ops/s per thread); later samples are dropped and counted.
constexpr double kSamplesPerThreadSecond = 250'000;
/// Of the timed calls in a traced slice, one in 32 becomes a span, so the
/// trace file stays a few MB.
constexpr std::uint64_t kSpanEvery = 32;
constexpr std::size_t kMaxSpansPerThread = 32768;
/// The window is cut into slices this long; throughput is their median.
constexpr double kSliceSeconds = 0.5;
/// Set-up repeats at least --setups times and until this much set-up time
/// has been measured, so small trees still give a steady median.
constexpr double kMinSetupSeconds = 1.0;
constexpr std::size_t kMaxSetups = 1000;
/// Range sizes of the probes and of the one-thread pass.
constexpr Key kProbeRangeMax = 1000;
/// One-thread pass: fixed inputs, a tree sharded to 2^9 base nodes (near the
/// ~430-550 the 4-thread workloads settle at), then fixed operation budgets.
constexpr std::uint64_t kCountSeed = 0x5eed;
constexpr int kCountShardRounds = 9;
constexpr std::uint64_t kCountUpdates = 1 << 17;
constexpr std::uint64_t kCountRanges = 1 << 12;

struct Workload {
  const char* name;
  Key size;  // S: keys are uniform in [1, S), the prefill holds S/2
  harness::Mix mix;
  bool str_keys;
};

// Why each workload exists is in README.md.
const Workload kWorkloads[] = {
    {"update_heavy", 1'000'000, harness::Mix::of_percent(50, 50, 0), false},
    {"read_mostly", 1'000'000, harness::Mix::of_percent(1, 99, 0), false},
    {"range_mix", 1'000'000, harness::Mix::of_percent(20, 55, 25, 1000),
     false},
    {"hot_contended", 10'000, harness::Mix::of_percent(100, 0, 0), false},
    {"str_update", 1'000'000, harness::Mix::of_percent(50, 50, 0), true},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  double warmup = 2;
  int setups = 3;
  bool trace = false;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Keys: the integer keys themselves, or a pre-encoded StrKey table.
// ---------------------------------------------------------------------------

struct IntKeys {
  using Tree = lfca::LfcaTree;
  explicit IntKeys(Key) {}
  Key operator[](Key k) const { return k; }
  static Key decode(Key k) { return k; }
};

struct StrKeys {
  using Tree = lfca::LfcaStrTree;
  explicit StrKeys(Key n) : table(static_cast<std::size_t>(n)) {
    for (Key k = 0; k < n; ++k) {
      table[static_cast<std::size_t>(k)] = harness::StrKeyCodec::encode(k);
    }
  }
  StrKey operator[](Key k) const { return table[static_cast<std::size_t>(k)]; }
  static Key decode(const StrKey& key) {
    Key k = 0;
    for (char c : key.view()) k = k * 10 + (c - '0');
    return k;
  }
  std::vector<StrKey> table;
};

// ---------------------------------------------------------------------------
// Operations and the output oracle.
// ---------------------------------------------------------------------------

enum class Op : std::uint8_t { kInsert, kRemove, kLookup, kRange };
constexpr const char* kOpSpan[] = {"lfca.insert", "lfca.remove", "lfca.lookup",
                                   "lfca.range_query"};

struct Draw {
  Op op;
  Key lo;
  Key hi;  // range queries only
};

Draw draw(Xoshiro256& rng, const harness::Mix& mix, Key size) {
  const std::uint64_t dice = rng.next_below(1000);
  const Key k = rng.next_in(1, size - 1);
  if (dice < mix.update_permille) {
    return {(dice & 1) != 0 ? Op::kRemove : Op::kInsert, k, k};
  }
  if (dice < mix.update_permille + mix.lookup_permille) {
    return {Op::kLookup, k, k};
  }
  return {Op::kRange, k, k + rng.next_in(1, mix.range_max) - 1};
}

/// Per-thread oracle tallies.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  /// Successful inserts minus successful removes: the end-of-run size check
  /// verifies every update's return value in aggregate.
  std::int64_t net_items = 0;
};

/// Issues one operation and checks its output: a lookup hit must return
/// key + 1; a range query must visit strictly ascending keys inside
/// [lo, hi], each with value key + 1.  Returns the items a range visited.
template <class Keys>
std::uint64_t issue(typename Keys::Tree& tree, const Keys& keys, const Draw& d,
                    Tally& t) {
  ++t.ops;
  switch (d.op) {
    case Op::kInsert:
      if (tree.insert(keys[d.lo], static_cast<Value>(d.lo) + 1)) {
        ++t.net_items;
      }
      return 0;
    case Op::kRemove:
      if (tree.remove(keys[d.lo])) --t.net_items;
      return 0;
    case Op::kLookup: {
      Value v = 0;
      if (tree.lookup(keys[d.lo], &v) && v != static_cast<Value>(d.lo) + 1) {
        ++t.failed;
      }
      return 0;
    }
    case Op::kRange: {
      const auto lo = keys[d.lo];
      const auto hi = keys[d.hi];
      auto prev = lo;
      std::uint64_t items = 0;
      bool ok = true;
      tree.range_query(lo, hi, [&](decltype(lo) key, Value v) {
        if ((items > 0 && !(prev < key)) || key < lo || hi < key ||
            v != static_cast<Value>(Keys::decode(key)) + 1) {
          ok = false;
        }
        prev = key;
        ++items;
      });
      if (!ok) ++t.failed;
      return items;
    }
  }
  return 0;
}

/// Inserts random keys until the tree holds exactly S/2 (the paper's
/// prefill).
template <class Keys>
void prefill(typename Keys::Tree& tree, const Keys& keys, Key size,
             std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (Key inserted = 0; inserted < size / 2;) {
    const Key k = rng.next_in(1, size - 1);
    if (tree.insert(keys[k], static_cast<Value>(k) + 1)) ++inserted;
  }
}

// ---------------------------------------------------------------------------
// Measurement plumbing: spans, samples, snapshots, statistics.
// ---------------------------------------------------------------------------

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Span {
  const char* name;
  int tid;
  Clock::time_point begin;
  Clock::time_point end;
  std::uint64_t id;     // operation id (workers) or calls in the batch
  bool batch = false;   // probe batch rather than one tree call
};

/// One worker thread's state.  Only the owner writes it, except
/// `published`, which the slice sampler reads.
struct alignas(kCacheLine) Worker {
  std::atomic<std::uint64_t> published{0};
  Tally tally;
  std::uint64_t window_ops[4] = {};
  std::uint64_t range_items = 0;
  /// Timed calls of the window: (op << 30) | min(ns, 2^30 - 1).
  std::vector<std::uint32_t> samples;
  std::size_t n_samples = 0;
  std::uint64_t dropped_samples = 0;
  std::vector<Span> spans;  // pre-sized when tracing; n_spans are used
  std::size_t n_spans = 0;
};

enum Phase : int { kWarmup, kMeasure, kStop };

struct Control {
  std::atomic<int> phase{kWarmup};
  std::atomic<bool> tracing{false};
};

template <class Keys>
void work(typename Keys::Tree& tree, const Keys& keys, const Workload& w,
          std::uint64_t seed, int tid, Control& control, Worker& me) {
  Xoshiro256 rng(mix64(seed) + static_cast<std::uint64_t>(tid));
  std::uint64_t n = 0;
  std::uint64_t timed = 0;
  for (;;) {
    const int phase = control.phase.load(std::memory_order_relaxed);
    if (phase == kStop) break;
    const Draw d = draw(rng, w.mix, w.size);
    std::uint64_t items;
    if (phase == kMeasure && (n & kSampleMask) == 0) {
      const Clock::time_point t0 = Clock::now();
      items = issue(tree, keys, d, me.tally);
      const Clock::time_point t1 = Clock::now();
      const auto ns = static_cast<std::uint64_t>(ns_between(t0, t1));
      if (me.n_samples < me.samples.size()) {
        me.samples[me.n_samples++] =
            (static_cast<std::uint32_t>(d.op) << 30) |
            static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, (1u << 30) - 1));
      } else {
        ++me.dropped_samples;
      }
      if (control.tracing.load(std::memory_order_relaxed) &&
          timed++ % kSpanEvery == 0 && me.n_spans < me.spans.size()) {
        me.spans[me.n_spans++] = {kOpSpan[static_cast<int>(d.op)], tid, t0,
                                  t1, (static_cast<std::uint64_t>(tid) << 48) | n};
      }
    } else {
      items = issue(tree, keys, d, me.tally);
    }
    if (phase == kMeasure) {
      ++me.window_ops[static_cast<int>(d.op)];
      me.range_items += items;
    }
    me.published.store(++n, std::memory_order_relaxed);
  }
}

/// Process-wide counters the per-layer metrics are deltas of.
struct Snapshot {
  lfca::Stats tree;
  alloc::PoolStats pool;
  obs::RegistryValues reg;

  template <class Tree>
  static Snapshot of(const Tree& t) {
    return {t.stats(), alloc::pool_stats(), obs::Registry::instance().snapshot()};
  }
  std::uint64_t allocs() const {
    return pool.alloc_fast + pool.alloc_transfer + pool.alloc_slab +
           pool.alloc_fallback;
  }
  std::uint64_t counter(obs::GCounter c) const { return reg.counter(c); }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(),
                            v.begin() + static_cast<std::ptrdiff_t>(mid)) +
          hi) / 2;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<std::uint32_t>& v, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// VmRSS / VmHWM of this process in bytes (Linux /proc).
double status_bytes(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) * 1024;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::uint64_t samples;  // 0 = not a percentile
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<Span> spans;
  std::deque<std::string> span_names;  // stable storage for Span::name

  void add(std::string name, double value, const char* unit,
           std::uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, unit, samples});
  }
  double get(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
};

// ---------------------------------------------------------------------------
// Single-threaded probes of the layers' public functions.
// ---------------------------------------------------------------------------

constexpr int kProbeBatches = 48;

/// Runs kProbeBatches batches of `batch` calls of fn(i), each returning its
/// units of work (1 per call, or items scanned), after one untimed warm-up
/// batch.  Returns the median over batches of ns per unit; each batch is
/// also a span.
template <class F>
double probe(Report& r, std::string span_name, int batch, F&& fn) {
  const char* name = r.span_names.emplace_back(std::move(span_name)).c_str();
  std::vector<double> per_unit;
  std::uint64_t call = 0;
  for (int b = -1; b < kProbeBatches; ++b) {
    std::uint64_t units = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < batch; ++i) units += fn(call++);
    const Clock::time_point t1 = Clock::now();
    if (b < 0 || units == 0) continue;
    per_unit.push_back(ns_between(t0, t1) / static_cast<double>(units));
    r.spans.push_back({name, kThreads, t0, t1,
                       static_cast<std::uint64_t>(batch), true});
  }
  return median(per_unit);
}

/// Times the persistent container C on a detached instance shaped like one
/// base node of the run: n >= 2 items at the workload's density, every
/// other key of an interval of 2n keys, inserted and then probed in random
/// order.  Inserts and removes include dropping the new version, which
/// frees as many nodes as the tree later frees of the old one.
template <class C, class Encode>
void probe_container(Report& r, const std::string& prefix, std::size_t n,
                     Encode encode, Xoshiro256& rng, Tally& t) {
  using Ref = typename C::Ref;
  using K = typename C::Key;
  // Key i of the interval is encode(i); its value is i + 1.  Everything is
  // encoded here, outside the timed calls.
  std::vector<K> keyset;
  std::vector<std::size_t> present;
  std::vector<std::size_t> absent;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    keyset.push_back(encode(static_cast<Key>(i)));
    (i % 2 == 0 ? present : absent).push_back(i);
  }
  for (std::vector<std::size_t>* v : {&present, &absent}) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.next_below(i)]);
    }
  }
  Ref root;
  for (std::size_t k : present) {
    root = C::insert(root.get(), keyset[k], k + 1, nullptr);
  }
  const auto pick = [](const std::vector<std::size_t>& v, std::uint64_t i) {
    return v[i % v.size()];
  };
  const auto* node = root.get();
  r.add(prefix + ".insert_ns",
        probe(r, prefix + ".insert", 64, [&](std::uint64_t i) {
          const std::size_t k = pick(absent, i);
          Ref version = C::insert(node, keyset[k], k + 1, nullptr);
          return std::uint64_t{1};
        }),
        "ns");
  r.add(prefix + ".remove_ns",
        probe(r, prefix + ".remove", 64, [&](std::uint64_t i) {
          Ref version = C::remove(node, keyset[pick(present, i)], nullptr);
          return std::uint64_t{1};
        }),
        "ns");
  r.add(prefix + ".lookup_ns",
        probe(r, prefix + ".lookup", 256, [&](std::uint64_t i) {
          const bool hit = (i & 1) != 0;
          const std::size_t k = hit ? pick(present, i) : pick(absent, i);
          Value v = 0;
          if (C::lookup(node, keyset[k], &v) != hit || (hit && v != k + 1)) {
            ++t.failed;
          }
          ++t.ops;
          return std::uint64_t{1};
        }),
        "ns");
  r.add(prefix + ".scan_ns_per_item",
        probe(r, prefix + ".scan", 16, [&](std::uint64_t i) {
          // From a present key, a range of 1..kProbeRangeMax keys.
          const std::size_t lo = pick(present, i);
          const std::size_t hi = std::min(keyset.size() - 1,
                                          lo + pick(absent, i) % kProbeRangeMax);
          std::uint64_t items = 0;
          C::for_range(node, keyset[lo], keyset[hi], [&](K, Value) { ++items; });
          return items;
        }),
        "ns");
  r.add(prefix + ".split_join_ns",
        probe(r, prefix + ".split_join", 16, [&](std::uint64_t) {
          Ref left;
          Ref right;
          K pivot{};
          C::split_evenly(node, &left, &right, &pivot);
          Ref joined = C::join(left.get(), right.get());
          return std::uint64_t{1};
        }),
        "ns");
}

/// alloc and reclaim probes: a pooled alloc/free pair of a treap node's
/// size, an EBR guard, and one retirement with a no-op deleter (EBR's own
/// bookkeeping; the deleters' frees are in the alloc and treap probes).
void probe_alloc_reclaim(Report& r) {
  constexpr std::size_t kBlock = sizeof(lfca::TreapContainer::Node);
  r.add("alloc.alloc_free_ns",
        probe(r, "alloc.alloc_free", 16, [](std::uint64_t) {
          void* blocks[16];
          for (void*& b : blocks) b = alloc::pool_alloc(kBlock);
          for (void* b : blocks) alloc::pool_free(b, kBlock);
          return std::uint64_t{16};
        }),
        "ns");
  reclaim::Domain& domain = reclaim::Domain::global();
  r.add("ebr.guard_ns", probe(r, "ebr.guard", 256, [&](std::uint64_t) {
          reclaim::Domain::Guard guard(domain);
          return std::uint64_t{1};
        }),
        "ns");
  static char dummies[4096];
  r.add("ebr.retire_ns", probe(r, "ebr.retire", 64, [&](std::uint64_t i) {
          domain.retire(&dummies[i % sizeof dummies], [](void*) {});
          return std::uint64_t{1};
        }),
        "ns");
}

/// Per-call spans of the tree's own operations, single-threaded on the live
/// tree after the window: the uncontended cost the residual is taken of.
template <class Keys>
void probe_live_tree(Report& r, typename Keys::Tree& tree, const Keys& keys,
                     Key size, Xoshiro256& rng, Tally& t) {
  Key last = 1;
  r.add("lfca.update_span_ns",
        probe(r, "lfca.update_probe", 32, [&](std::uint64_t i) {
          // Insert a key, then remove the same key.
          if ((i & 1) == 0) last = rng.next_in(1, size - 1);
          issue(tree, keys, {(i & 1) == 0 ? Op::kInsert : Op::kRemove, last, last},
                t);
          return std::uint64_t{1};
        }),
        "ns");
  r.add("lfca.lookup_span_ns",
        probe(r, "lfca.lookup_probe", 64, [&](std::uint64_t) {
          const Key k = rng.next_in(1, size - 1);
          issue(tree, keys, {Op::kLookup, k, k}, t);
          return std::uint64_t{1};
        }),
        "ns");
  r.add("lfca.range_span_ns",
        probe(r, "lfca.range_probe", 8, [&](std::uint64_t) {
          const Key k = rng.next_in(1, size - 1);
          issue(tree, keys, {Op::kRange, k, k + rng.next_in(1, kProbeRangeMax) - 1},
                t);
          return std::uint64_t{1};
        }),
        "ns");
}

/// The one-thread pass: fixed inputs and budgets, no timer, so the work
/// counts repeat exactly.  Returns false if its own size check failed.
template <class Keys>
bool count_pass(Report& r, const Keys& keys, const Workload& w, Tally& t) {
  // A range query feeds the join heuristic through a base it picks with a
  // generator seeded from an address (lfca_tree_impl.hpp), which would make
  // the shape, and so the counts, differ from run to run.  Without that
  // contribution the tree keeps its 2^9 forced bases throughout.
  lfca::Config config;
  config.range_contrib = 0;
  typename Keys::Tree tree(reclaim::Domain::global(), config);
  prefill(tree, keys, w.size, kCountSeed);
  for (int round = 0; round < kCountShardRounds; ++round) {
    const Key parts = Key{2} << round;
    for (Key j = 1; j < parts; j += 2) {
      tree.force_split(keys[1 + j * (w.size - 2) / parts]);
    }
  }
  Xoshiro256 rng(kCountSeed);
  const std::int64_t net_before = t.net_items;
  const Snapshot s0 = Snapshot::of(tree);
  for (std::uint64_t i = 0; i < kCountUpdates; ++i) {
    const Key k = rng.next_in(1, w.size - 1);
    issue(tree, keys, {(i & 1) != 0 ? Op::kRemove : Op::kInsert, k, k}, t);
  }
  const Snapshot s1 = Snapshot::of(tree);
  for (std::uint64_t i = 0; i < kCountRanges; ++i) {
    const Key k = rng.next_in(1, w.size - 1);
    issue(tree, keys, {Op::kRange, k, k + rng.next_in(1, kProbeRangeMax) - 1},
          t);
  }
  const Snapshot s2 = Snapshot::of(tree);
  const double updates = static_cast<double>(kCountUpdates);
  r.add("alloc.allocs_per_update",
        static_cast<double>(s1.allocs() - s0.allocs()) / updates, "count");
  r.add("treap.nodes_per_update",
        static_cast<double>(s1.counter(obs::GCounter::kTreapNodeAllocs) -
                            s0.counter(obs::GCounter::kTreapNodeAllocs)) /
            updates,
        "count");
  r.add("ebr.retires_per_update",
        static_cast<double>(s1.counter(obs::GCounter::kEbrRetired) -
                            s0.counter(obs::GCounter::kEbrRetired)) /
            updates,
        "count");
  r.add("lfca.bases_per_range",
        ratio(static_cast<double>(s2.tree.range_bases_traversed -
                                  s1.tree.range_bases_traversed),
              static_cast<double>(s2.tree.range_queries -
                                  s1.tree.range_queries)),
        "count");
  ++t.ops;
  const auto expected = static_cast<std::int64_t>(w.size / 2) +
                        (t.net_items - net_before);
  return static_cast<std::int64_t>(tree.size()) == expected;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

/// Stops and joins the worker threads on every path out of its scope.
struct Crew {
  explicit Crew(Control& c) : control(c) {}
  ~Crew() {
    control.phase.store(kStop, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  Control& control;
  std::vector<std::thread> threads;
};

/// What the measured window leaves behind.
struct Window {
  double seconds = 0;
  std::vector<double> slice_mops;   // every slice, in order
  std::vector<double> plain_mops;   // slices that recorded no spans
  std::vector<double> traced_mops;  // slices that recorded spans
  std::uint64_t ops[4] = {};        // by Op
  std::uint64_t range_items = 0;
  std::uint64_t dropped_samples = 0;
  std::vector<double> per_thread_ops;
  /// Timed calls in ns by Op; removes are filed with inserts as updates.
  std::vector<std::uint32_t> latency_ns[4];
  Snapshot s0;
  Snapshot s1;
  obs::TopologySnapshot topo;
  double rss_peak = 0;
  std::size_t backlog = 0;
  std::size_t live_items = 0;

  double count(Op op) const {
    return static_cast<double>(ops[static_cast<int>(op)]);
  }
  double updates() const { return count(Op::kInsert) + count(Op::kRemove); }
};

/// Runs the workers: the warm-up, then the window in slices; with
/// --trace=1 every other slice records spans.  The workers' spans go to `r`.
template <class Keys>
Window measure(typename Keys::Tree& tree, const Keys& keys, const Args& a,
               std::vector<Worker>& workers, Report& r) {
  const auto published = [&] {
    std::uint64_t sum = 0;
    for (const Worker& me : workers) {
      sum += me.published.load(std::memory_order_relaxed);
    }
    return sum;
  };
  Window win;
  Control control;
  Clock::time_point start;
  Clock::time_point end;
  {
    Crew crew(control);
    for (int tid = 0; tid < kThreads; ++tid) {
      crew.threads.emplace_back(work<Keys>, std::ref(tree), std::cref(keys),
                                std::cref(*a.workload), a.seed, tid,
                                std::ref(control),
                                std::ref(workers[static_cast<std::size_t>(tid)]));
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(a.warmup));
    control.phase.store(kMeasure, std::memory_order_relaxed);
    win.s0 = Snapshot::of(tree);
    start = Clock::now();
    const int slices =
        std::max(1, static_cast<int>(std::lround(a.seconds / kSliceSeconds)));
    const double slice_ns = a.seconds * 1e9 / slices;
    end = start;
    std::uint64_t ops_begin = published();
    for (int i = 0; i < slices; ++i) {
      const bool traced = a.trace && i % 2 == 1;
      control.tracing.store(traced, std::memory_order_relaxed);
      std::this_thread::sleep_until(
          start + std::chrono::nanoseconds(
                      static_cast<std::int64_t>(slice_ns * (i + 1))));
      const Clock::time_point now = Clock::now();
      const std::uint64_t ops = published();
      win.slice_mops.push_back(static_cast<double>(ops - ops_begin) /
                               (ns_between(end, now) / 1e3));
      (traced ? win.traced_mops : win.plain_mops)
          .push_back(win.slice_mops.back());
      end = now;
      ops_begin = ops;
    }
  }  // stops and joins the workers
  win.seconds = ns_between(start, end) / 1e9;
  win.s1 = Snapshot::of(tree);
  win.topo = tree.collect_topology();
  win.rss_peak = status_bytes("VmHWM");
  win.backlog = reclaim::Domain::global().pending();
  win.live_items = tree.size();
  for (int tid = 0; tid < kThreads; ++tid) {
    Worker& me = workers[static_cast<std::size_t>(tid)];
    double ops = 0;
    for (int k = 0; k < 4; ++k) {
      win.ops[k] += me.window_ops[k];
      ops += static_cast<double>(me.window_ops[k]);
    }
    win.per_thread_ops.push_back(ops);
    win.range_items += me.range_items;
    win.dropped_samples += me.dropped_samples;
    for (std::size_t i = 0; i < me.n_samples; ++i) {
      const auto op = static_cast<Op>(me.samples[i] >> 30);
      win.latency_ns[static_cast<int>(op == Op::kRemove ? Op::kInsert : op)]
          .push_back(me.samples[i] & ((1u << 30) - 1));
    }
    me.samples = {};
    r.spans.push_back({"worker", tid, start, end, 0});
    r.spans.insert(r.spans.end(), me.spans.begin(),
                   me.spans.begin() + static_cast<std::ptrdiff_t>(me.n_spans));
  }
  return win;
}

/// The end-to-end metrics (every run) and mem_bytes_per_item.
void add_end_to_end(Report& r, Window& win,
                    const std::vector<double>& setup_seconds,
                    double rss_before) {
  r.add("throughput_mops", median(win.slice_mops), "ops/us");
  const struct {
    Op op;
    const char* name;
  } kinds[] = {{Op::kInsert, "update"}, {Op::kLookup, "lookup"},
               {Op::kRange, "range"}};
  for (const auto& kind : kinds) {
    std::vector<std::uint32_t>& v = win.latency_ns[static_cast<int>(kind.op)];
    if (v.empty()) continue;
    const std::string name = kind.name;
    r.add(name + "_p50_ns", percentile(v, 0.50), "ns", v.size());
    r.add(name + "_p99_ns", percentile(v, 0.99), "ns", v.size());
  }
  if (win.count(Op::kRange) > 0) {
    r.add("range_items_per_us",
          static_cast<double>(win.range_items) / (win.seconds * 1e6),
          "items/us");
  }
  r.add("setup_s", median(setup_seconds), "s");
  r.add("mem_bytes_per_item",
        (win.rss_peak - rss_before) / static_cast<double>(win.live_items),
        "B");
}

/// Per-layer metrics that are deltas or readings over the window.
void add_window_layers(Report& r, const Window& win) {
  const lfca::Stats& t0 = win.s0.tree;
  const lfca::Stats& t1 = win.s1.tree;
  const auto delta = [&](obs::GCounter c) {
    return static_cast<double>(win.s1.counter(c) - win.s0.counter(c));
  };
  const auto per_k = [](std::uint64_t events, double ops) {
    return ratio(static_cast<double>(events), ops / 1e3);
  };
  r.add("lfca.update_cas_fails_per_kupdate",
        per_k(t1.update_cas_fails - t0.update_cas_fails, win.updates()),
        "count/kop");
  r.add("lfca.blocked_retries_per_kupdate",
        per_k(t1.update_blocked_retries - t0.update_blocked_retries,
              win.updates()),
        "count/kop");
  r.add("lfca.splits_per_s",
        static_cast<double>(t1.splits - t0.splits) / win.seconds, "1/s");
  r.add("lfca.joins_per_s",
        static_cast<double>(t1.joins - t0.joins) / win.seconds, "1/s");
  r.add("lfca.route_nodes", static_cast<double>(win.topo.route_nodes),
        "count");
  r.add("lfca.max_depth", static_cast<double>(win.topo.max_depth), "count");
  r.add("lfca.items_per_base", win.topo.mean_occupancy(), "count");
  r.add("lfca.optimistic_range_share",
        ratio(static_cast<double>(t1.optimistic_ranges - t0.optimistic_ranges),
              static_cast<double>(t1.range_queries - t0.range_queries)),
        "ratio");
  r.add("lfca.range_cas_fails_per_krange",
        per_k(t1.range_cas_fails - t0.range_cas_fails, win.count(Op::kRange)),
        "count/kop");
  double total_ops = 0;
  for (double ops : win.per_thread_ops) total_ops += ops;
  r.add("lfca.helps_per_kop", per_k(t1.helps - t0.helps, total_ops),
        "count/kop");
  const double allocs = static_cast<double>(win.s1.allocs() - win.s0.allocs());
  r.add("alloc.fast_share",
        ratio(static_cast<double>(win.s1.pool.alloc_fast -
                                  win.s0.pool.alloc_fast),
              allocs),
        "ratio");
  r.add("alloc.transfer_share",
        ratio(static_cast<double>(win.s1.pool.alloc_transfer -
                                  win.s0.pool.alloc_transfer),
              allocs),
        "ratio");
  r.add("alloc.slab_bytes_per_item",
        static_cast<double>(win.s1.pool.slab_bytes) /
            static_cast<double>(win.live_items),
        "B");
  r.add("ebr.frees_per_advance",
        ratio(delta(obs::GCounter::kEbrFreed),
              delta(obs::GCounter::kEbrAdvances)),
        "count");
  r.add("ebr.advance_success_share",
        ratio(delta(obs::GCounter::kEbrAdvances),
              delta(obs::GCounter::kEbrAdvanceAttempts)),
        "ratio");
  r.add("ebr.backlog_end", static_cast<double>(win.backlog), "count");
  const double mean = total_ops / kThreads;
  double var = 0;
  for (double ops : win.per_thread_ops) var += (ops - mean) * (ops - mean);
  r.add("driver.thread_imbalance", ratio(std::sqrt(var / kThreads), mean),
        "ratio");
  r.add("driver.trace_overhead_share",
        win.traced_mops.empty()
            ? 0
            : 1 - median(win.traced_mops) / median(win.plain_mops),
        "ratio");
}

bool write_trace(const std::string& path, const Report& r,
                 Clock::time_point origin) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
  bool first = true;
  for (const Span& s : r.spans) {
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                 first ? "" : ",", s.name, s.tid,
                 ns_between(origin, s.begin) / 1e3,
                 ns_between(s.begin, s.end) / 1e3);
    if (s.batch) {
      std::fprintf(out, "\"calls\":%llu}}",
                   static_cast<unsigned long long>(s.id));
    } else if (std::strcmp(s.name, "worker") == 0) {
      std::fprintf(out, "\"span\":\"worker.%d\"}}", s.tid);
    } else {
      std::fprintf(out, "\"op\":%llu,\"parent\":\"worker.%d\"}}",
                   static_cast<unsigned long long>(s.id), s.tid);
    }
    first = false;
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

template <class Keys>
int run(const Args& a) {
  const Workload& w = *a.workload;
  const Clock::time_point origin = Clock::now();
  std::fprintf(stderr, "cats_bench: %s seed=%llu seconds=%g trace=%d\n",
               w.name, static_cast<unsigned long long>(a.seed), a.seconds,
               a.trace ? 1 : 0);
  // Range queries reach up to S + range size - 2.
  const Keys keys(w.size + std::max(kProbeRangeMax, w.mix.range_max));
  std::vector<Worker> workers(kThreads);
  const auto capacity = static_cast<std::size_t>(
      a.seconds * kSamplesPerThreadSecond) + 1024;
  for (Worker& me : workers) {
    // Pre-touched, so they are inside the RSS baseline.
    me.samples.assign(capacity, 0);
    if (a.trace) me.spans.resize(kMaxSpansPerThread);
  }
  const double rss_before = status_bytes("VmRSS");

  std::vector<double> setup_seconds;
  double setup_total = 0;
  std::unique_ptr<typename Keys::Tree> tree;
  while (static_cast<int>(setup_seconds.size()) < a.setups ||
         (setup_total < kMinSetupSeconds &&
          setup_seconds.size() < kMaxSetups)) {
    tree.reset();
    const Clock::time_point t0 = Clock::now();
    tree = std::make_unique<typename Keys::Tree>();
    prefill(*tree, keys, w.size, a.seed);
    setup_seconds.push_back(ns_between(t0, Clock::now()) / 1e9);
    setup_total += setup_seconds.back();
  }

  Report r;
  Window win = measure(*tree, keys, a, workers, r);
  add_end_to_end(r, win, setup_seconds, rss_before);
  Tally main_tally;
  if (a.trace) {
    add_window_layers(r, win);
    Xoshiro256 rng(mix64(a.seed) ^ kCountSeed);
    probe_live_tree(r, *tree, keys, w.size, rng, main_tally);
    const auto n = static_cast<std::size_t>(
        std::max(2.0, std::round(win.topo.mean_occupancy())));
    probe_container<lfca::TreapContainer>(
        r, "treap", n, [](Key k) { return k; }, rng, main_tally);
    probe_container<lfca::StrTreapContainer>(
        r, "treap_str", n, harness::StrKeyCodec::encode, rng, main_tally);
    probe_alloc_reclaim(r);
  }

  // End-of-run checks, each one operation of its own.
  std::int64_t net = main_tally.net_items;
  for (const Worker& me : workers) net += me.tally.net_items;
  const bool size_ok =
      static_cast<std::int64_t>(tree->size()) == w.size / 2 + net;
  const bool integrity_ok = tree->check_integrity();
  main_tally.ops += 2;
  main_tally.failed += (size_ok ? 0 : 1) + (integrity_ok ? 0 : 1);
  tree.reset();

  bool count_size_ok = true;
  if (a.trace) {
    count_size_ok = count_pass(r, keys, w, main_tally);
    if (!count_size_ok) ++main_tally.failed;
    // The update span less what its children cost by their own probes: the
    // treap update of the run's key type (including freeing one path), the
    // guard, the retirements, and the allocations the treap probe does not
    // contain.
    const std::string treap = w.str_keys ? "treap_str" : "treap";
    r.add("lfca.update_residual_ns",
          r.get("lfca.update_span_ns") -
              (r.get(treap + ".insert_ns") + r.get(treap + ".remove_ns")) / 2 -
              r.get("ebr.guard_ns") -
              r.get("ebr.retire_ns") * r.get("ebr.retires_per_update") -
              r.get("alloc.alloc_free_ns") *
                  (r.get("alloc.allocs_per_update") -
                   r.get("treap.nodes_per_update")),
          "ns");
    if (!a.trace_out.empty() && !write_trace(a.trace_out, r, origin)) {
      std::fprintf(stderr, "cats_bench: cannot write %s\n",
                   a.trace_out.c_str());
      return 1;
    }
  }

  std::uint64_t attempted = main_tally.ops;
  std::uint64_t failed = main_tally.failed;
  for (const Worker& me : workers) {
    attempted += me.tally.ops;
    failed += me.tally.failed;
  }
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"attempted\":%llu,"
      "\"failed\":%llu,\"checks\":{\"size\":%s,\"integrity\":%s,"
      "\"count_pass_size\":%s},\"info\":{\"window_s\":%.17g,\"setups\":%zu,"
      "\"live_items\":%zu,\"dropped_samples\":%llu,\"slice_mops\":[",
      w.name, static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), size_ok ? "true" : "false",
      integrity_ok ? "true" : "false", count_size_ok ? "true" : "false",
      win.seconds, setup_seconds.size(), win.live_items,
      static_cast<unsigned long long>(win.dropped_samples));
  for (std::size_t i = 0; i < win.slice_mops.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", win.slice_mops[i]);
  }
  std::printf("]},\"metrics\":{");
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"", i == 0 ? "" : ",",
                m.name.c_str(), m.value, m.unit);
    if (m.samples != 0) {
      std::printf(",\"samples\":%llu",
                  static_cast<unsigned long long>(m.samples));
    }
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}

bool parse_args(int argc, char** argv, Args& a, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const char* v = eq == std::string::npos ? "" : argv[i] + eq + 1;
    auto bad = [&](const char* expected) {
      error = name + ": expected " + expected + ", got '" + v + "'";
      return false;
    };
    if (name == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string(v)) a.workload = &w;
      }
      if (a.workload == nullptr) return bad("a workload name");
    } else if (name == "--seed") {
      if (!harness::detail::parse_u64(v, &a.seed)) {
        return bad("a non-negative integer");
      }
    } else if (name == "--seconds") {
      if (!harness::detail::parse_double(v, &a.seconds) || !(a.seconds > 0) ||
          a.seconds > 60) {
        return bad("a number of seconds in (0, 60]");
      }
    } else if (name == "--warmup") {
      if (!harness::detail::parse_double(v, &a.warmup) || !(a.warmup >= 0) ||
          a.warmup > 60) {
        return bad("a number of seconds in [0, 60]");
      }
    } else if (name == "--setups") {
      if (!harness::detail::parse_int(v, &a.setups) || a.setups < 1 ||
          a.setups > 100) {
        return bad("an integer in 1..100");
      }
    } else if (name == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return bad("0 or 1");
      }
      a.trace = *v == '1';
    } else if (name == "--trace-out") {
      a.trace_out = v;
    } else {
      error = "unknown option: " + arg;
      return false;
    }
  }
  if (a.workload == nullptr) {
    error = "--workload=NAME is required";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) {
    std::fprintf(stderr,
                 "cats_bench: %s\nusage: cats_bench --workload=NAME "
                 "[--seed=N] [--seconds=S] [--warmup=S] [--setups=N] "
                 "[--trace=0|1] [--trace-out=FILE]\n",
                 error.c_str());
    return 2;
  }
  return args.workload->str_keys ? run<StrKeys>(args) : run<IntKeys>(args);
}
