// Runtime statistics of an LFCA tree.
//
// The first eight counters reproduce the measurements of the paper's
// Tables 1 and 2 (split and join rates, base nodes traversed per range
// query); the rest instrument the contention-detection and help machinery
// itself: CAS failures per operation type, blocked-retry loops, split/join
// attempts vs. successes vs. aborts, and the §6 optimistic-range fast path.
// Every counter is kept in every build, in a per-tree sharded block
// (obs/counters.hpp): per-thread cache-line-padded cells with relaxed
// increments on the hot paths, aggregated on read — exact in quiescence,
// slightly approximate under concurrency, which is all the paper's tables
// (and these diagnostics) require.
#pragma once

#include <cstdint>
#include <string>

#include "obs/export.hpp"

namespace cats::lfca {

/// The tree's counters, one X(name) each, in TreeCounter order.  Each name
/// is the TreeCounter enumerator, the Stats field and, after a prefix, the
/// exported metric name.
#define CATS_LFCA_TREE_COUNTERS(X)                                           \
  X(splits)                                                                  \
  X(joins)                                                                   \
  X(aborted_joins)                                                           \
  X(range_queries)          /* completed, counted by the initiator */        \
  X(range_bases_traversed)  /* base nodes traversed by completed ranges */   \
  X(optimistic_ranges)      /* answered by the §6 read-only fast path */     \
  X(fallback_ranges)        /* fell back to the node-replacing algorithm */  \
  X(helps)                  /* calls that helped another thread's op */      \
  X(split_attempts)         /* high_contention_adaptation entered */         \
  X(split_failed_cas)       /* split built but lost its installing CAS */    \
  X(split_refused_small)    /* split refused: leaf had < 2 items */          \
  X(join_attempts)          /* low_contention_adaptation entered */          \
  X(update_cas_fails)       /* insert/remove lost the base-replacing CAS */  \
  X(update_blocked_retries) /* insert/remove found an irreplaceable base */  \
  X(contention_events)      /* contention fed into a base's statistics */    \
  X(range_cas_fails)        /* range lost a range_base-installing CAS */     \
  X(help_joins)             /* help_if_needed completed a join */            \
  X(help_ranges)            /* help_if_needed joined a range query */

/// Per-tree counter indices (the storage lives in BasicLfcaTree).
enum class TreeCounter : std::size_t {
#define CATS_LFCA_ENUMERATOR(name) name,
  CATS_LFCA_TREE_COUNTERS(CATS_LFCA_ENUMERATOR)
#undef CATS_LFCA_ENUMERATOR
  kCount
};

/// Snapshot of the tree's counters (see CATS_LFCA_TREE_COUNTERS).
struct Stats {
#define CATS_LFCA_FIELD(name) std::uint64_t name = 0;
  CATS_LFCA_TREE_COUNTERS(CATS_LFCA_FIELD)
#undef CATS_LFCA_FIELD

  double traversed_per_query() const {
    return range_queries == 0
               ? 0.0
               : static_cast<double>(range_bases_traversed) /
                     static_cast<double>(range_queries);
  }

  /// Appends every counter to an obs snapshot under a `prefix` (e.g.
  /// "lfca_"), so tree statistics travel in the same exported document as
  /// the process-wide metrics.
  void append_to(obs::Snapshot& snap, const std::string& prefix) const {
#define CATS_LFCA_APPEND(name) snap.add_counter(prefix + #name, name);
    CATS_LFCA_TREE_COUNTERS(CATS_LFCA_APPEND)
#undef CATS_LFCA_APPEND
  }
};

}  // namespace cats::lfca
