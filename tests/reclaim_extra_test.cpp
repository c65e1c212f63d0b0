// Additional reclamation tests: multi-domain usage, epoch monotonicity,
// orphan adoption on thread exit and paced freeing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "reclaim/ebr.hpp"

namespace cats::reclaim {
namespace {

struct Counted {
  static std::atomic<int> live;
  Counted() { live.fetch_add(1); }
  ~Counted() { live.fetch_sub(1); }
};
std::atomic<int> Counted::live{0};

TEST(EbrExtra, TwoDomainsAreIndependent) {
  Domain a;
  Domain b;
  const int before = Counted::live.load();
  {
    Domain::Guard guard_a(a);  // blocks A's reclamation only
    b.retire(new Counted());
    for (int i = 0; i < 5; ++i) b.drain();
    EXPECT_EQ(Counted::live.load(), before);  // B drained despite A's guard
    a.retire(new Counted());
    for (int i = 0; i < 5; ++i) {
      // Draining A under our own guard is futile by design: our guard
      // pins the epoch (drain() documents the no-guard precondition, so we
      // only check nothing is freed prematurely).
      EXPECT_EQ(Counted::live.load(), before + 1);
      Domain::Guard inner(a);
    }
  }
  a.drain();
  EXPECT_EQ(Counted::live.load(), before);
}

TEST(EbrExtra, EpochIsMonotonic) {
  Domain domain;
  std::uint64_t last = domain.epoch();
  for (int i = 0; i < 1000; ++i) {
    domain.retire(new Counted());
    const std::uint64_t now = domain.epoch();
    EXPECT_GE(now, last);
    last = now;
  }
  domain.drain();
}

TEST(EbrExtra, OrphansAdoptedAfterThreadExit) {
  Domain domain;
  const int before = Counted::live.load();
  std::thread worker([&] {
    for (int i = 0; i < 500; ++i) domain.retire(new Counted());
    // Exit without draining: retirements become orphans.
  });
  worker.join();
  EXPECT_GT(Counted::live.load(), before);  // not yet freed
  domain.drain();
  EXPECT_EQ(Counted::live.load(), before);
  EXPECT_EQ(domain.pending(), 0u);
}

TEST(EbrExtra, ManyShortLivedThreads) {
  // Slot recycling: more thread lifetimes than kMaxThreads must work as
  // long as concurrent registration stays below the limit.
  Domain domain;
  const int before = Counted::live.load();
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 16; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          Domain::Guard guard(domain);
          domain.retire(new Counted());
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  domain.drain();
  EXPECT_EQ(Counted::live.load(), before);
}

TEST(EbrExtra, PendingCountTracksRetirements) {
  Domain domain;
  const std::size_t base = domain.pending();
  for (int i = 0; i < 10; ++i) domain.retire(new Counted());
  EXPECT_EQ(domain.pending(), base + 10);
  domain.drain();
  EXPECT_EQ(domain.pending(), 0u);
}

TEST(EbrExtra, OrphansFreedByLiveThreadWithoutDrain) {
  // Exited threads' retirements must not wait for a drain() that a
  // long-running process never calls: a live thread that keeps retiring
  // frees them a bounded slice at a time.
  Domain domain;
  static std::atomic<int> orphans_live{0};
  const auto orphan_deleter = [](void* p) {
    delete static_cast<Counted*>(p);
    orphans_live.fetch_sub(1);
  };
  std::thread worker([&] {
    for (int i = 0; i < 500; ++i) {
      orphans_live.fetch_add(1);
      domain.retire(new Counted(), orphan_deleter);
    }
  });
  worker.join();
  ASSERT_GT(orphans_live.load(), 0);  // the worker left some behind
  for (int i = 0; i < 20'000 && orphans_live.load() > 0; ++i) {
    domain.retire(new Counted());
  }
  EXPECT_EQ(orphans_live.load(), 0);
  domain.drain();
}

// --- paced freeing ----------------------------------------------------------

std::atomic<int> g_deleted{0};
void counting_deleter(void* p) {
  delete static_cast<Counted*>(p);
  g_deleted.fetch_add(1);
}

TEST(EbrPacing, NoRetireRunsMoreThanTheFreeBudget) {
  Domain domain;
  const int deleted_before = g_deleted.load();
  // An exited thread's orphans share the budget with the caller's own FIFO.
  std::thread worker([&] {
    for (int i = 0; i < 500; ++i) {
      domain.retire(new Counted(), &counting_deleter);
    }
  });
  worker.join();
  const std::size_t orphaned = domain.pending();
  ASSERT_GT(orphaned, 0u);
  int most_in_one_call = 0;
  for (int i = 0; i < 10'000; ++i) {
    const int before = g_deleted.load();
    domain.retire(new Counted(), &counting_deleter);
    most_in_one_call = std::max(most_in_one_call, g_deleted.load() - before);
    // No reader pins the epoch, so the backlog stays within a few drain
    // periods instead of growing with i.
    ASSERT_LE(domain.pending(), orphaned + 4 * Domain::kDrainThreshold);
  }
  EXPECT_LE(most_in_one_call, static_cast<int>(Domain::kFreeBudget));
  EXPECT_LE(domain.pending(), 4 * Domain::kDrainThreshold);  // orphans too
  EXPECT_GT(g_deleted.load() - deleted_before, 9'500);
  domain.drain();
  EXPECT_EQ(domain.pending(), 0u);
}

struct Reentrant {
  static Domain* domain;
  static int depth;
  static int max_depth;
  static int children_live;

  static void child_deleter(void* p) {
    max_depth = std::max(max_depth, ++depth);
    delete static_cast<Counted*>(p);
    --children_live;
    --depth;
  }
  static void parent_deleter(void* p) {
    max_depth = std::max(max_depth, ++depth);
    delete static_cast<Counted*>(p);
    ++children_live;
    domain->retire(new Counted(), &child_deleter);
    --depth;
  }
};
Domain* Reentrant::domain = nullptr;
int Reentrant::depth = 0;
int Reentrant::max_depth = 0;
int Reentrant::children_live = 0;

TEST(EbrPacing, DeleterThatRetiresIsFreedLaterWithoutRecursion) {
  Domain domain;
  Reentrant::domain = &domain;
  const int before = Counted::live.load();
  for (int i = 0; i < 2'000; ++i) {
    domain.retire(new Counted(), &Reentrant::parent_deleter);
  }
  EXPECT_EQ(Reentrant::max_depth, 1);  // no deleter ran inside another
  EXPECT_GT(Reentrant::children_live, 0);  // enqueued, not freed on the spot
  // drain() frees what is eligible when it starts; the children its own
  // deleters retire wait for the next one.
  domain.drain();
  EXPECT_EQ(domain.pending(),
            static_cast<std::size_t>(Reentrant::children_live));
  domain.drain();
  EXPECT_EQ(Reentrant::children_live, 0);
  EXPECT_EQ(Reentrant::max_depth, 1);
  EXPECT_EQ(domain.pending(), 0u);
  EXPECT_EQ(Counted::live.load(), before);
}

TEST(EbrPacing, GuardOnAnotherThreadBlocksEveryFreeUntilReleased) {
  Domain domain;
  std::atomic<bool> in_guard{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    Domain::Guard guard(domain);
    in_guard.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!in_guard.load()) std::this_thread::yield();
  const int deleted_before = g_deleted.load();
  constexpr int kPinned = 1'000;
  for (int i = 0; i < kPinned; ++i) {
    domain.retire(new Counted(), &counting_deleter);
  }
  EXPECT_EQ(g_deleted.load(), deleted_before);  // the guard blocks every free
  EXPECT_EQ(domain.pending(), static_cast<std::size_t>(kPinned));
  release.store(true);
  reader.join();
  // No drain(): ordinary retires work the backlog off, a slice at a time,
  // down to the steady state of an unpinned thread.
  const auto drained = [&] {
    return g_deleted.load() - deleted_before >= kPinned &&
           domain.pending() <= 4 * Domain::kDrainThreshold;
  };
  for (int i = 0; i < 20'000 && !drained(); ++i) {
    domain.retire(new Counted(), &counting_deleter);
  }
  EXPECT_TRUE(drained()) << domain.pending() << " still pending";
  domain.drain();
  EXPECT_EQ(domain.pending(), 0u);
}

}  // namespace
}  // namespace cats::reclaim
