// Process-wide observability registry.
//
// One singleton owning the counters, histograms and the adaptation trace
// that are not naturally per-tree: the reclamation substrate and the leaf
// containers are shared by every structure in the process, and the trace is
// a process-level timeline.  Per-tree counters (the paper's statistics)
// live in the tree itself — see lfca/stats.hpp.
//
// Everything here is safe to touch from any thread at any time; increments
// are relaxed per-thread-shard operations (counters.hpp).  Reads aggregate.
#pragma once

#include <cstdint>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace cats::obs {

/// Global (process-level) counters.  Order defines export order.
enum class GCounter : std::size_t {
  // --- epoch-based reclamation (src/reclaim/ebr.cpp) ----------------------
  kEbrRetired,          // nodes handed to Domain::retire
  kEbrFreed,            // retired nodes actually deleted
  kEbrAdvanceAttempts,  // try_advance calls
  kEbrAdvances,         // epoch increments that succeeded
  kEbrOrphaned,         // retirements handed over at thread exit
  // --- treap leaf containers (src/treap/treap.cpp) ------------------------
  kTreapNodeAllocs,     // persistent treap nodes allocated (path copies)
  kTreapNodeFrees,      // persistent treap nodes destroyed
  // --- sorted-array leaf containers (src/chunk/chunk.cpp) -----------------
  kChunkNodeAllocs,     // chunk nodes allocated (one per update)
  kChunkNodeFrees,      // chunk nodes freed (last reference dropped)
  // --- benchmark harness (src/harness/runner.hpp) --------------------------
  kHarnessOps,          // operations completed by harness worker threads;
                        // the monitor derives ops/sec from its deltas
  kCount
};

inline const char* gcounter_name(GCounter c) {
  switch (c) {
    case GCounter::kEbrRetired: return "ebr_retired";
    case GCounter::kEbrFreed: return "ebr_freed";
    case GCounter::kEbrAdvanceAttempts: return "ebr_advance_attempts";
    case GCounter::kEbrAdvances: return "ebr_advances";
    case GCounter::kEbrOrphaned: return "ebr_orphaned";
    case GCounter::kTreapNodeAllocs: return "treap_node_allocs";
    case GCounter::kTreapNodeFrees: return "treap_node_frees";
    case GCounter::kChunkNodeAllocs: return "chunk_node_allocs";
    case GCounter::kChunkNodeFrees: return "chunk_node_frees";
    case GCounter::kHarnessOps: return "harness_ops";
    case GCounter::kCount: break;
  }
  return "?";
}

/// Global histograms.  Latencies are nanoseconds (sampled by the harness);
/// the others are dimensionless sizes.
enum class GHistogram : std::size_t {
  kUpdateLatencyNs,      // insert/remove latency (sampled)
  kLookupLatencyNs,      // lookup latency (sampled)
  kRangeLatencyNs,       // range-query latency (sampled)
  kRangeBasesTraversed,  // base nodes per completed range query
  kSplitLeafItems,       // leaf container occupancy at split time
  kCount
};

inline const char* ghistogram_name(GHistogram h) {
  switch (h) {
    case GHistogram::kUpdateLatencyNs: return "update_latency_ns";
    case GHistogram::kLookupLatencyNs: return "lookup_latency_ns";
    case GHistogram::kRangeLatencyNs: return "range_latency_ns";
    case GHistogram::kRangeBasesTraversed: return "range_bases_traversed";
    case GHistogram::kSplitLeafItems: return "split_leaf_items";
    case GHistogram::kCount: break;
  }
  return "?";
}

/// Value-type copy of every registry counter and histogram, taken without
/// disturbing the live sharded storage.  This is how periodic consumers
/// (the background monitor) compute interval deltas: subtract two
/// snapshots.  Never use Registry::reset() for that — see its comment.
struct RegistryValues {
  std::uint64_t counters[static_cast<std::size_t>(GCounter::kCount)] = {};
  HistogramSnapshot histograms[static_cast<std::size_t>(GHistogram::kCount)];
  /// Total adaptation events ever recorded (including overwritten ones).
  std::uint64_t trace_recorded = 0;

  std::uint64_t counter(GCounter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistogramSnapshot& histogram(GHistogram h) const {
    return histograms[static_cast<std::size_t>(h)];
  }
};

class Registry {
 public:
  static Registry& instance() {
    static Registry* const reg = new Registry();  // leaked on purpose: may
    return *reg;  // be used from thread-exit paths after static destruction
  }

  void count(GCounter c, std::uint64_t n = 1) { counters_.add(c, n); }
  std::uint64_t read(GCounter c) const { return counters_.read(c); }

  LogHistogram& histogram(GHistogram h) {
    return histograms_[static_cast<std::size_t>(h)];
  }
  void record(GHistogram h, std::uint64_t v) { histogram(h).record(v); }

  AdaptTrace& trace() { return trace_; }

  /// Non-destructive value copy of every counter and histogram.  Safe to
  /// call from any thread at any time; concurrent recorders make the result
  /// slightly approximate (same contract as read()).
  RegistryValues snapshot() const {
    RegistryValues out;
    for (std::size_t i = 0; i < static_cast<std::size_t>(GCounter::kCount);
         ++i) {
      out.counters[i] = counters_.read(i);
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(GHistogram::kCount);
         ++i) {
      out.histograms[i] = histograms_[i].snapshot();
    }
    out.trace_recorded = trace_.recorded();
    return out;
  }

  /// Zeroes counters and histograms and clears the trace (for benchmarks
  /// that want per-run deltas).
  ///
  /// ONLY safe in quiescence: zeroing proceeds shard by shard while a
  /// concurrent recorder keeps adding, so a racing reset can both lose
  /// increments and produce aggregate reads that briefly go backwards.
  /// Periodic consumers must compute deltas between two snapshot() calls
  /// instead of resetting.
  void reset() {
    counters_.reset();
    for (auto& h : histograms_) h.reset();
    trace_.reset();
  }

 private:
  Registry() = default;

  ShardedCounters<static_cast<std::size_t>(GCounter::kCount)> counters_;
  LogHistogram histograms_[static_cast<std::size_t>(GHistogram::kCount)];
  AdaptTrace trace_;
};

/// Hot-path helpers.
inline void count(GCounter c, std::uint64_t n = 1) {
  Registry::instance().count(c, n);
}
inline void record(GHistogram h, std::uint64_t v) {
  Registry::instance().record(h, v);
}
inline void trace_adapt(AdaptKind kind, std::uint32_t depth,
                        std::int32_t stat) {
  Registry::instance().trace().record(kind, depth, stat);
}

}  // namespace cats::obs
