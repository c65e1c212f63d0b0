// Node types of the LFCA tree (paper Fig. 3, lines 14-52), parameterized on
// the leaf-container policy C (see container_policy.hpp).
//
// The paper defines five node types sharing fields via `with_fields_from`;
// we mirror that with a single struct carrying the union of all fields plus
// a `type` tag.  Wasting a few words per node keeps every pointer transition
// of the pseudo-code a plain CAS on a `Node*`, exactly as published.
//
// All fields are written before a node is published (via CAS into a parent
// pointer) and are immutable afterwards, EXCEPT the fields declared atomic:
//   route:      left, right, valid, join_id
//   join_main:  neigh2 (PREPARING -> joined node -> DONE, or -> ABORTED)
//               and main_refs (lifetime bookkeeping, see below)
//   any base:   stat (heuristic only; in-place updates cannot affect
//               correctness — see BasicLfcaTree::range_query)
// plus the fields of ResultStorage.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "alloc/pool.hpp"
#include "common/catomic.hpp"
#include "check/check.hpp"
#include "common/types.hpp"

namespace cats::lfca::detail {

enum class NodeType : std::uint8_t {
  kRoute,
  kNormal,
  kJoinMain,
  kJoinNeighbor,
  kRange,
};

template <class C>
struct Node;

/// Sentinel container pointer: "result not yet computed".  Compared against
/// real heap pointers, which are never 1.
template <class C>
const typename C::Node* not_set() {
  return reinterpret_cast<const typename C::Node*>(1);
}

template <class C>
bool is_real_result(const typename C::Node* p) {
  return reinterpret_cast<std::uintptr_t>(p) > 1;
}

/// Result storage of a range query (paper's `struct rs`).  Shared by every
/// range_base node of one query; reference counted because those nodes are
/// reclaimed independently through EBR.
template <class C>
struct ResultStorage {
  /// not_set<C>() until the query linearizes; afterwards the joined
  /// container (an owned reference, possibly null for an empty result).
  cats::atomic<const typename C::Node*> result;
  cats::atomic<bool> more_than_one_base{false};
  cats::atomic<std::uint32_t> rc{1};

  ResultStorage() : result(not_set<C>()) {}
  ~ResultStorage() {
    const typename C::Node* r = result.load(std::memory_order_relaxed);
    if (is_real_result<C>(r)) C::decref(r);
  }

  // Pool-backed storage: range queries allocate one of these per query, on
  // the hot path of every scan.  Under CATS_SIM the simulator tracks the
  // block and quarantines the free until the end of the execution.
  static void* operator new(std::size_t size) {
    void* p = alloc::pool_alloc(size);
    cats::sim_note_alloc(p, size);
    return p;
  }
  static void operator delete(void* p, std::size_t size) {
    if (cats::sim_quarantine_free(p, size, &alloc::pool_free)) return;
    alloc::pool_free(p, size);
  }

  void add_ref() { rc.fetch_add(1, std::memory_order_relaxed); }
  void release() {
    // catslint: direct-delete(refcounted; last release owns the storage)
    if (rc.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

template <class C>
void release_join_main(Node<C>* m);

template <class C>
struct Node {
  using Key = typename C::Key;

  NodeType type;

  // --- route_node fields -------------------------------------------------
  Key key{};
  cats::atomic<Node*> left{nullptr};
  cats::atomic<Node*> right{nullptr};
  cats::atomic<bool> valid{true};
  cats::atomic<Node*> join_id{nullptr};

  // --- fields shared by every base-node type ------------------------------
  /// Owned reference to the immutable leaf container (may be null = empty).
  const typename C::Node* data = nullptr;
  /// Contention statistics (paper's `stat`).
  cats::atomic<int> stat{0};
  /// Parent route node, or null if this base node is the root.
  Node* parent = nullptr;

  // --- join_main fields ----------------------------------------------------
  Node* neigh1 = nullptr;
  /// preparing() -> (joined replacement node | aborted()) -> done().
  cats::atomic<Node*> neigh2{nullptr};
  Node* gparent = nullptr;
  Node* otherb = nullptr;
  /// Lifetime references to this join_main node: one for the tree slot plus
  /// one per join_neighbor whose `main_node` points here.  The Java
  /// original leans on the GC for exactly this edge: a join_neighbor stays
  /// reachable long after the join completes, and is_replaceable() follows
  /// its main_node pointer — so the main node must outlive every neighbor
  /// that references it, not just its own reclamation grace period.
  cats::atomic<std::uint32_t> main_refs{1};

  /// Contention-heatmap tallies: CAS failures charged to this base's key
  /// interval and help events observed on it.  Heuristic only, like
  /// `stat`: the thread that builds a replacement copies the tallies into
  /// it before publishing (single-writer), concurrent bumps are relaxed,
  /// and a bump racing the node's unlink lands on the retired node and is
  /// dropped — the same best-effort contract as the in-place stat feed in
  /// do_update.  The topology walk reads them into the route-node
  /// contention heatmap (obs/topology.hpp).
  cats::atomic<std::uint64_t> heat_cas_fails{0};
  cats::atomic<std::uint64_t> heat_helps{0};

  // --- join_neighbor fields -------------------------------------------------
  Node* main_node = nullptr;

  // --- range_base fields -----------------------------------------------------
  Key lo{};
  Key hi{};
  ResultStorage<C>* storage = nullptr;

#if CATS_CHECKED_ENABLED
  /// Canary header (check/check.hpp): Alive while the node may be
  /// reachable, Retired once handed to the reclamation domain, poison after
  /// the storage is freed.  Written by at most one thread per transition;
  /// validators read it relaxed.
  check::Canary check_canary{check::kCanaryAlive};
#endif

  /// Pool-backed storage: every update allocates a base node and every
  /// adaptation a route/join node, so these go through the slab pool.  EBR
  /// deleters land here too (they run `delete node`), which is how
  /// grace-period expiry returns nodes to the owning pool.
  static void* operator new(std::size_t size) {
    void* p = alloc::pool_alloc(size);
    cats::sim_note_alloc(p, size);
    return p;
  }

  /// Poison-on-free (CATS_CHECKED): runs after the destructor, while the
  /// storage is still owned, so a dangling reader races against poison
  /// instead of against allocator reuse.  Safe under EBR quiescence — the
  /// node is only freed two epochs after its unlink, when no guard that
  /// could have observed it remains (direct deletes of never-published
  /// nodes are trivially safe).  The pool's free-list link overwrites only
  /// the first word, past which the poison and the dead canary survive
  /// while the block sits in a cache.  Under CATS_SIM the storage release
  /// is quarantined so the simulator can flag any later touch as a race.
  static void operator delete(void* p, std::size_t size) {
    CATS_CHECKED_ONLY(check::poison(p, size));
    if (cats::sim_quarantine_free(p, size, &alloc::pool_free)) return;
    alloc::pool_free(p, size);
  }

  explicit Node(NodeType t) : type(t) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node() {
    CATS_CHECKED_ONLY(
        check::canary_expect_not_dead(check_canary, "lfca node"));
    if (data != nullptr) C::decref(data);
    if (type == NodeType::kRange && storage != nullptr) storage->release();
    if (type == NodeType::kJoinNeighbor && main_node != nullptr) {
      release_join_main<C>(main_node);
    }
  }

  // Sentinel pointer values (paper Fig. 3, lines 7-11).  Compared against
  // real heap pointers, which are always > 2.
  static Node* not_found() { return reinterpret_cast<Node*>(1); }
  static Node* preparing() { return nullptr; }
  static Node* done_mark() { return reinterpret_cast<Node*>(1); }
  static Node* aborted() { return reinterpret_cast<Node*>(2); }
};

/// True if `p` is a real node pointer rather than a sentinel.
template <class C>
bool is_real(const Node<C>* p) {
  return reinterpret_cast<std::uintptr_t>(p) > 2;
}

/// Copies the heatmap tallies into a replacement node.  Single-writer: the
/// thread building the replacement calls this before publishing it, so the
/// relaxed stores cannot race another writer of `to`.
template <class C>
void heat_inherit(Node<C>* to, const Node<C>* from) {
  to->heat_cas_fails.store(from->heat_cas_fails.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  to->heat_helps.store(from->heat_helps.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

/// EBR deleter for LFCA nodes: the destructor releases the container
/// reference, the result-storage reference, and (for a join_neighbor) its
/// main-node reference.
template <class C>
void node_deleter(void* ptr) {
  // catslint: direct-delete(EBR deleter; runs after the grace period)
  delete static_cast<Node<C>*>(ptr);
}

/// Drops one `main_refs` reference of a join_main node; the last reference
/// deletes it.  Safe to call without a grace period ONLY from contexts that
/// no concurrent reader can race with: a neighbor's destructor (any reader
/// that obtained the pointer through that neighbor finished before the
/// neighbor could be freed) or quiescent teardown.  The tree-slot reference
/// is instead dropped by `join_main_unlink_deleter` through EBR retire, so
/// direct in-guard holders of the unlinked node get their grace period.
template <class C>
void release_join_main(Node<C>* m) {
  const std::uint32_t prev =
      m->main_refs.fetch_sub(1, std::memory_order_acq_rel);
  CATS_CHECK(prev != 0, "join_main %p: main_refs underflow",
             static_cast<void*>(m));
  if (prev == 1) {
    // catslint: direct-delete(refcounted; last main_refs holder frees)
    delete m;
  }
}

/// EBR deleter used when a join_main node is unlinked from its tree slot.
template <class C>
void join_main_unlink_deleter(void* ptr) {
  release_join_main<C>(static_cast<Node<C>*>(ptr));
}

}  // namespace cats::lfca::detail
