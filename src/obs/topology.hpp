// Route-tree topology snapshots.
//
// The paper's central claim is structural: under contention the route tree
// splits until the synchronization granularity matches the workload, and
// joins back when contention subsides (§4-§5).  Aggregate split/join
// counters show that adaptations *happened*; this module captures what the
// tree currently *is* — how many base and route nodes exist, how deep they
// sit, how many items each leaf container holds, where the contention
// statistics have drifted, and how many nodes are mid-adaptation (joining,
// range-marked, invalidated routes).
//
// `TopologySnapshot` is a plain value struct, deliberately free of any
// dependency on the tree: the walker lives with the tree
// (BasicLfcaTree::collect_topology, lfca/lfca_tree_impl.hpp) and fills one
// of these in; the exporters here turn it into gauges/histograms on an obs
// Snapshot or into a self-contained JSON document (the /topology.json
// endpoint).
//
// Consistency contract: the walk runs inside one EBR guard, so every node
// it touches stays allocated, but the tree keeps adapting underneath it.
// The result is a "consistent-enough" snapshot — each visited node was
// reachable at the moment it was visited, counts can be off by the handful
// of adaptations that raced the walk.  That is exactly the fidelity the
// paper's own Tables 1-2 use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace cats::obs {

struct Snapshot;  // export.hpp

/// Contention-heatmap record for one base node: where it sits (route depth
/// and the lower bound of its key interval) and how much contention it has
/// absorbed (CAS-failure and help tallies carried across replacement by
/// the lfca heat hooks).
struct BaseHeat {
  std::uint32_t depth = 0;
  long long key_lo = 0;           // lower bound of the base's key interval
                                  // (KeyTraits<K>::heat_coord — a sortable
                                  // numeric projection of the key)
  std::string key_label;          // KeyTraits<K>::format of the same bound;
                                  // empty when the producer has no label
  std::uint64_t cas_fails = 0;
  std::uint64_t helps = 0;
  std::uint64_t items = 0;        // container occupancy at walk time
  std::int64_t stat = 0;          // contention statistic at walk time

  std::uint64_t heat() const { return cas_fails + helps; }
};

struct TopologySnapshot {
  // --- node census ---------------------------------------------------------
  std::uint64_t route_nodes = 0;
  std::uint64_t base_nodes = 0;     // all leaf kinds together
  std::uint64_t normal_bases = 0;   // replaceable: plain or join finished
  std::uint64_t joining_bases = 0;  // join_main/join_neighbor, join in flight
  std::uint64_t range_bases = 0;    // range_base markers of in-flight queries
  std::uint64_t invalid_routes = 0; // routes with valid == false (mid-join)
  std::uint64_t marked_routes = 0;  // routes carrying a join_id mark
  std::uint64_t items = 0;          // total container items seen

  // --- shape ---------------------------------------------------------------
  std::uint32_t max_depth = 0;      // deepest base node (root base = 0)
  HistogramSnapshot depth;          // route depth per base node
  HistogramSnapshot occupancy;      // container item count per base node

  // --- contention statistics -----------------------------------------------
  std::int64_t stat_min = 0;        // most join-leaning statistic seen
  std::int64_t stat_max = 0;        // most split-leaning statistic seen
  HistogramSnapshot stat_abs;       // |stat| per base node (drift magnitude)

  // --- contention heatmap --------------------------------------------------
  /// Hottest bases retained per snapshot.
  static constexpr std::size_t kMaxHotBases = 8;
  std::uint64_t heat_cas_fails = 0; // CAS-failure tallies over all bases
  std::uint64_t heat_helps = 0;     // help tallies over all bases
  /// Top-kMaxHotBases bases by heat(), hottest first; bases with zero heat
  /// never enter.
  std::vector<BaseHeat> hot_bases;

  /// Folds one walked base into the totals and the top-K list.
  void add_base_heat(const BaseHeat& base);

  double mean_occupancy() const {
    return base_nodes == 0 ? 0.0
                           : static_cast<double>(items) /
                                 static_cast<double>(base_nodes);
  }

  /// Appends everything as `prefix`-named gauges and histograms, so a
  /// topology travels through the existing table/JSON/Prometheus exporters
  /// alongside the counters.
  void append_to(Snapshot& snap, const std::string& prefix) const;
};

/// Self-contained JSON document ({"route_nodes":...,"depth":{...},...}) —
/// the payload of the /topology.json endpoint.  Parse it back with
/// obs/json.hpp.
void write_topology_json(std::ostream& os, const TopologySnapshot& topo);

}  // namespace cats::obs
