// Unit and property tests for the immutable sorted-array container
// (src/chunk) and for the LFCA tree instantiated with it — the paper's
// "Flexible" property exercised end to end.
#include "chunk/chunk.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "lfca/lfca_tree.hpp"
#include "obs/registry.hpp"

namespace cats::chunk {
namespace {

// Live chunk nodes in the process, from the sharded obs counters (exact in
// quiescence).
std::int64_t live_nodes() {
  const auto& reg = obs::Registry::instance();
  return static_cast<std::int64_t>(reg.read(obs::GCounter::kChunkNodeAllocs)) -
         static_cast<std::int64_t>(reg.read(obs::GCounter::kChunkNodeFrees));
}

TEST(ChunkBasic, EmptyContainer) {
  Ref c;
  EXPECT_TRUE(empty(c.get()));
  EXPECT_EQ(size(c.get()), 0u);
  EXPECT_FALSE(lookup(c.get(), 5, nullptr));
  EXPECT_TRUE(check_invariants(c.get()));
}

TEST(ChunkBasic, InsertLookupRemove) {
  bool replaced = true;
  Ref c = insert(nullptr, 5, 50, &replaced);
  EXPECT_FALSE(replaced);
  Value v = 0;
  ASSERT_TRUE(lookup(c.get(), 5, &v));
  EXPECT_EQ(v, 50u);
  Ref c2 = insert(c.get(), 5, 51, &replaced);
  EXPECT_TRUE(replaced);
  ASSERT_TRUE(lookup(c2.get(), 5, &v));
  EXPECT_EQ(v, 51u);
  // Persistence.
  ASSERT_TRUE(lookup(c.get(), 5, &v));
  EXPECT_EQ(v, 50u);
  bool removed = false;
  Ref c3 = remove(c2.get(), 5, &removed);
  EXPECT_TRUE(removed);
  EXPECT_TRUE(empty(c3.get()));
}

TEST(ChunkBasic, RemoveAbsentSharesNode) {
  Ref c = insert(nullptr, 1, 1);
  bool removed = true;
  Ref c2 = remove(c.get(), 9, &removed);
  EXPECT_FALSE(removed);
  EXPECT_EQ(c2.get(), c.get());  // unchanged version is shared
}

TEST(ChunkBasic, JoinAndSplit) {
  Ref a;
  Ref b;
  for (Key k = 0; k < 10; ++k) a = insert(a.get(), k, 1);
  for (Key k = 100; k < 110; ++k) b = insert(b.get(), k, 2);
  Ref j = join(a.get(), b.get());
  EXPECT_EQ(size(j.get()), 20u);
  EXPECT_TRUE(check_invariants(j.get()));
  Ref l, r;
  Key pivot = 0;
  split_evenly(j.get(), &l, &r, &pivot);
  EXPECT_EQ(size(l.get()), 10u);
  EXPECT_EQ(size(r.get()), 10u);
  EXPECT_EQ(min_key(r.get()), pivot);
  EXPECT_LT(max_key(l.get()), pivot);
}

TEST(ChunkBasic, ForRangeBounds) {
  Ref c;
  for (Key k = 0; k < 100; k += 10) c = insert(c.get(), k, 1);
  std::vector<Key> seen;
  for_range(c.get(), 15, 55, [&](Key k, Value) { seen.push_back(k); });
  EXPECT_EQ(seen, (std::vector<Key>{20, 30, 40, 50}));
}

TEST(ChunkBasic, NoLeak) {
  const std::int64_t before = live_nodes();
  {
    Ref c;
    std::vector<Ref> versions;
    for (Key k = 0; k < 300; ++k) {
      c = insert(c.get(), k * 3 % 301, static_cast<Value>(k));
      if (k % 50 == 0) versions.push_back(c);
    }
    for (Key k = 0; k < 300; k += 2) c = remove(c.get(), k);
  }
  EXPECT_EQ(live_nodes(), before);
}

class ChunkRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChunkRandomOps, MatchesReferenceModel) {
  Xoshiro256 rng(GetParam());
  Ref c;
  std::map<Key, Value> model;
  for (int i = 0; i < 3000; ++i) {
    const Key k = rng.next_in(0, 500);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const Value v = rng.next();
        bool replaced = false;
        c = insert(c.get(), k, v, &replaced);
        EXPECT_EQ(replaced, model.count(k) == 1);
        model[k] = v;
        break;
      }
      case 2: {
        bool removed = false;
        c = remove(c.get(), k, &removed);
        EXPECT_EQ(removed, model.erase(k) == 1);
        break;
      }
      default: {
        Value v = 0;
        EXPECT_EQ(lookup(c.get(), k, &v), model.count(k) == 1);
        break;
      }
    }
  }
  EXPECT_EQ(size(c.get()), model.size());
  EXPECT_TRUE(check_invariants(c.get()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkRandomOps,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- The LFCA tree on chunk containers (Flexible property). ----------------

TEST(LfcaChunk, BasicSemantics) {
  lfca::LfcaTreeChunk tree;
  EXPECT_TRUE(tree.insert(10, 1));
  EXPECT_FALSE(tree.insert(10, 2));
  EXPECT_TRUE(tree.lookup(10));
  EXPECT_TRUE(tree.remove(10));
  EXPECT_FALSE(tree.lookup(10));
  EXPECT_TRUE(tree.check_integrity());
}

TEST(LfcaChunk, ModelComparison) {
  lfca::LfcaTreeChunk tree;
  std::map<Key, Value> model;
  Xoshiro256 rng(77);
  for (int i = 0; i < 5000; ++i) {
    const Key k = rng.next_in(0, 2000);
    if (rng.next_below(2) == 0) {
      const Value v = rng.next();
      EXPECT_EQ(tree.insert(k, v), model.count(k) == 0);
      model[k] = v;
    } else {
      EXPECT_EQ(tree.remove(k), model.erase(k) == 1);
    }
  }
  EXPECT_EQ(tree.size(), model.size());
  std::vector<Item> items;
  tree.range_query(kKeyMin, kKeyMax,
                   [&](Key k, Value v) { items.push_back({k, v}); });
  ASSERT_EQ(items.size(), model.size());
  std::size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(items[i].key, k);
    EXPECT_EQ(items[i].value, v);
    ++i;
  }
  EXPECT_TRUE(tree.check_integrity());
}

TEST(LfcaChunk, SplitsKeepChunksSmall) {
  // With an aggressive split threshold, contention splits keep the flat
  // arrays short, which is the point of pairing chunks with adaptation.
  lfca::Config config;
  config.high_cont = 0;
  lfca::LfcaTreeChunk tree(reclaim::Domain::global(), config);
  for (Key k = 0; k < 10'000; ++k) tree.insert(k, 1);
  EXPECT_EQ(tree.size(), 10'000u);
  EXPECT_TRUE(tree.check_integrity());
}

TEST(LfcaTreap, CheckIntegrityAfterChurn) {
  lfca::LfcaTree tree;
  Xoshiro256 rng(3);
  for (int i = 0; i < 30'000; ++i) {
    const Key k = rng.next_in(-5000, 5000);
    if (rng.next_below(3) == 0) {
      tree.remove(k);
    } else {
      tree.insert(k, 1);
    }
  }
  EXPECT_TRUE(tree.check_integrity());
}

}  // namespace
}  // namespace cats::chunk
