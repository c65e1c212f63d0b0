// Immutable sorted-array container ("chunk").
//
// The alternative leaf container discussed in the paper's §3: the k-ary
// search tree and the Leaplist keep their items in immutable ARRAYS, which
// makes scans as cache friendly as possible but costs O(n) per update (the
// whole array is copied).  The paper points out that this is exactly why
// those structures degrade when their granularity parameter is set high —
// and the LFCA tree's "Flexible" property says any container with this
// interface can be plugged in.  This module provides the array variant so
// the flexibility claim is exercised end to end (see BasicLfcaTree and
// bench_ablation).
//
// The implementation is the BasicChunk<K, V, Compare> template
// (chunk_impl.hpp); this header keeps the historical free-function API as
// inline wrappers over the default <int64_t, uint64_t, std::less>
// instantiation, explicitly instantiated in chunk.cpp.
//
// Complexity (n items): lookup O(log n); insert/remove/join/split O(n);
// for_range O(log n + k).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "check/check.hpp"
#include "chunk/chunk_impl.hpp"
#include "common/function_ref.hpp"
#include "common/types.hpp"

namespace cats::chunk {

/// The default (integer-key) instantiation; codegen lives in chunk.cpp.
using Impl = BasicChunk<Key, Value, std::less<Key>>;
extern template struct BasicChunk<Key, Value, std::less<Key>>;

using Node = Impl::Node;
using Ref = Impl::Ref;

namespace detail {
inline void incref(const Node* node) noexcept { Impl::incref(node); }
inline void decref(const Node* node) noexcept { Impl::decref(node); }
}  // namespace detail

inline bool lookup(const Node* chunk, Key key, Value* value_out) {
  return Impl::lookup(chunk, key, value_out);
}
inline std::size_t size(const Node* chunk) { return Impl::size(chunk); }
inline bool empty(const Node* chunk) { return Impl::empty(chunk); }
inline bool less_than_two_items(const Node* chunk) {
  return Impl::less_than_two_items(chunk);
}
inline Key min_key(const Node* chunk) { return Impl::min_key(chunk); }
inline Key max_key(const Node* chunk) { return Impl::max_key(chunk); }
inline void for_range(const Node* chunk, Key lo, Key hi, ItemVisitor visit) {
  Impl::for_range(chunk, lo, hi, visit);
}
inline void for_all(const Node* chunk, ItemVisitor visit) {
  Impl::for_all(chunk, visit);
}

inline Ref insert(const Node* chunk, Key key, Value value,
                  bool* replaced_out = nullptr) {
  return Impl::insert(chunk, key, value, replaced_out);
}
inline Ref remove(const Node* chunk, Key key, bool* removed_out = nullptr) {
  return Impl::remove(chunk, key, removed_out);
}
inline Ref join(const Node* left, const Node* right) {
  return Impl::join(left, right);
}
inline void split_evenly(const Node* chunk, Ref* left_out, Ref* right_out,
                         Key* split_key_out) {
  Impl::split_evenly(chunk, left_out, right_out, split_key_out);
}

/// Structural checks for tests (sorted, unique, cached bounds).
inline bool check_invariants(const Node* chunk) {
  return Impl::check_invariants(chunk);
}
/// Same checks with one diagnostic line per violated invariant appended to
/// `report` (CATS_CHECKED builds additionally verify the node canary).
/// Returns true if everything holds.
inline bool validate(const Node* chunk, check::Report* report) {
  return Impl::validate(chunk, report);
}

}  // namespace cats::chunk
