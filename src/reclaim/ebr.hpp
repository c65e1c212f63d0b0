// Epoch-based memory reclamation (EBR).
//
// The paper's LFCA tree implementation is in Java and leans on the JVM
// garbage collector: unlinked route/base nodes and superseded immutable leaf
// containers simply become unreachable.  In C++ we must not free a node while
// a concurrent wait-free lookup may still dereference it, so this module
// provides the classic three-epoch scheme (Fraser 2004):
//
//  * Every operation on a shared structure runs inside a `Guard`, which
//    announces the current global epoch in a per-thread slot.
//  * A thread that unlinks a node calls `retire(ptr, deleter)`.  The node is
//    tagged with the global epoch observed at retirement.
//  * A node tagged with epoch e may be freed once the global epoch reaches
//    e + 2: advancing from e to e+1 requires every in-guard thread to have
//    announced e, and advancing again requires every guard begun at epoch
//    <= e to have ended — at which point no thread can still hold a
//    reference obtained before the unlink.
//
// Guard enter/exit are a store and a load each (wait-free), preserving the
// paper's wait-free lookup guarantee.  `retire` is lock-free and does O(1)
// amortised work with no read-modify-write on a cache line shared across
// threads: it appends to a thread-private FIFO and bumps the owner-written
// retiree count in the thread's own slot.  Reclamation is paced, not
// bursty.  Every kDrainThreshold-th retire attempts a (failable) epoch
// advance, and every kFreePeriod-th retire runs the deleters of at most
// kFreeBudget eligible entries from the front of the FIFO.  A thread's
// retire epochs never decrease, so the eligible entries are always a prefix.
// A thread that wins an advance spends that budget first on the eligible
// orphans that exited threads left behind.  No single retire runs more than
// kFreeBudget deleters, and a retire issued from inside a deleter only
// enqueues.
//
// `pending()` is a sum over the per-slot retiree counts plus the orphan
// count, so it is approximate while threads retire concurrently and exact in
// quiescence.
//
// Lifetime contract: a Domain must outlive every guard and retirement that
// uses it.  Threads unregister automatically at thread exit.  The process-
// wide `Domain::global()` instance is intentionally leaked so that static
// destruction order can never invalidate it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "common/catomic.hpp"
#include "common/padded.hpp"

#if CATS_CHECKED_ENABLED
#include <source_location>
#endif

namespace cats::reclaim {

class Domain {
 public:
  /// Maximum number of threads that may be simultaneously registered.
  static constexpr std::size_t kMaxThreads = 512;

  Domain();
  ~Domain();

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// RAII epoch critical section.  Nestable; only the outermost guard
  /// announces and clears the epoch.
  class Guard {
   public:
    explicit Guard(Domain& domain) : domain_(domain) { domain_.enter(); }
    ~Guard() { domain_.exit(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Domain& domain_;
  };

  /// Defers `deleter(ptr)` until no guard that could observe `ptr` remains.
  /// Must be called after `ptr` has been unlinked from the shared structure.
  /// In CATS_CHECKED builds the call site is recorded so double retires and
  /// the at-exit leak census can name the offending line.
#if CATS_CHECKED_ENABLED
  void retire(void* ptr, void (*deleter)(void*),
              std::source_location site = std::source_location::current());
#else
  void retire(void* ptr, void (*deleter)(void*));
#endif

  /// Like `retire`, but for one *reference* to a refcounted object (the
  /// deleter is a decref).  Several owners may hold references to the same
  /// address — e.g. container roots shared across base nodes after a
  /// split/join — so in checked builds the reclamation checker counts
  /// pending retirements of the address instead of flagging a double
  /// retire.  Use plain `retire` for exclusively-owned nodes.
#if CATS_CHECKED_ENABLED
  void retire_shared(
      void* ptr, void (*deleter)(void*),
      std::source_location site = std::source_location::current());
#else
  void retire_shared(void* ptr, void (*deleter)(void*)) {
    retire(ptr, deleter);
  }
#endif

  /// Typed convenience overload: defers `delete ptr`.
#if CATS_CHECKED_ENABLED
  template <class T>
  void retire(T* ptr,
              std::source_location site = std::source_location::current()) {
    retire(static_cast<void*>(ptr),
           [](void* p) { delete static_cast<T*>(p); }, site);
  }
#else
  template <class T>
  void retire(T* ptr) {
    retire(static_cast<void*>(ptr),
           [](void* p) { delete static_cast<T*>(p); });
  }
#endif

  /// Test/shutdown helper: repeatedly advances the epoch and frees
  /// everything pending.  Precondition: no thread holds a guard.
  void drain();

  /// Eagerly unregister the calling thread from this domain (idempotent;
  /// pending retirements become orphans).  Thread exit does this lazily via
  /// TLS destructors; CATS_SIM scenarios call it at the end of each worker
  /// so the bookkeeping happens inside the managed schedule instead of
  /// during unmanaged thread teardown.
  void detach_current_thread();

  /// Number of retirements not yet freed: the per-thread counts plus the
  /// orphans (approximate under concurrent retires; for tests/stats).
  std::size_t pending() const;

  /// Current global epoch (for tests).
  std::uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Process-wide default domain (leaked singleton).
  static Domain& global();

  /// Every kDrainThreshold-th retire of a thread attempts an epoch advance.
  static constexpr std::size_t kDrainThreshold = 64;
  /// Every kFreePeriod-th retire of a thread frees up to kFreeBudget
  /// eligible entries; the other retires only enqueue, which keeps the
  /// freeing cost off most updates' latency.
  static constexpr std::size_t kFreePeriod = 4;
  static constexpr std::size_t kFreeBudget = 2 * kFreePeriod;

#if CATS_SIM_ENABLED
  /// Planted-bug hook for cats-sim twins: the number of epochs a retiree
  /// must age before it may be freed.  2 is the correct value.
  void set_grace_epochs_for_testing(std::uint64_t epochs) { grace_ = epochs; }
#endif

 private:
  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    std::uint64_t epoch;
  };

  /// Retirements in retire order; entries before `head` are already freed.
  struct RetiredFifo {
    std::vector<Retired> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    std::size_t size() const { return items.size() - head; }
    const Retired& front() const { return items[head]; }
    /// Drops the front entry.  Compacts once the freed prefix is at least
    /// half the vector, so popping stays O(1) amortised.
    void pop_front() {
      if (++head == items.size()) {
        items.clear();
        head = 0;
      } else if (head >= kDrainThreshold && 2 * head >= items.size()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
    /// Moves the not-yet-freed entries out, leaving the FIFO empty.
    std::vector<Retired> take() {
      items.erase(items.begin(),
                  items.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
      return std::exchange(items, {});
    }
  };

  struct Slot {
    /// 0 = slot free; otherwise points at the owning ThreadCtx.
    cats::atomic<void*> owner{nullptr};
    /// kIdle when the thread is outside any guard, else the announced epoch.
    cats::atomic<std::uint64_t> announced{kIdle};
    /// The owner's retirements not yet freed.  Only the owner writes it
    /// (relaxed load + store, no RMW); pending() sums it over the slots.
    cats::atomic<std::size_t> retirees{0};
  };

  struct ThreadCtx {
    Domain* domain = nullptr;
    std::size_t slot_index = 0;
    std::uint32_t guard_depth = 0;
    /// Set while this thread runs deleters: a retire() from inside one
    /// only enqueues.
    bool freeing = false;
    std::uint64_t retire_count = 0;
    RetiredFifo retired;
  };

  static constexpr std::uint64_t kIdle = 0;

  void enter();
  void exit();
#if CATS_CHECKED_ENABLED
  /// Shared tail of retire/retire_shared once the registry is updated.
  void enqueue_retirement(void* ptr, void (*deleter)(void*));
#endif
  ThreadCtx& context();
  ThreadCtx* register_thread();
  void unregister(ThreadCtx* ctx);
  /// Attempts one epoch advance; returns true if the epoch moved.
  bool try_advance();
  /// True once `r` is grace_ epochs old: no guard can still reach it.
  bool eligible(const Retired& r, std::uint64_t global) const {
    return r.epoch + grace_ <= global;
  }
  /// Adds `delta` (possibly negative) to the calling thread's retiree count.
  void add_retirees(ThreadCtx& ctx, std::ptrdiff_t delta);
  /// Runs the deleter of `r` (counted by the caller).
  static void reclaim(const Retired& r);
  /// Pops and frees up to `budget` eligible entries from the front of the
  /// calling thread's FIFO.
  void free_prefix(ThreadCtx& ctx, std::uint64_t global, std::size_t budget);
  /// Frees up to kFreeBudget eligible orphans from the front of the orphan
  /// FIFO, unless another thread holds orphan_mutex_; returns how many.
  std::size_t free_orphans(ThreadCtx& ctx, std::uint64_t global);
  /// Frees every eligible entry of `list`; compacts in place.
  void free_eligible(std::vector<Retired>& list, std::uint64_t global);

  alignas(kCacheLine) cats::atomic<std::uint64_t> global_epoch_{1};
  Padded<Slot> slots_[kMaxThreads];
#if CATS_SIM_ENABLED
  std::uint64_t grace_ = 2;
#else
  static constexpr std::uint64_t grace_ = 2;
#endif

  mutable std::mutex orphan_mutex_;
  /// Retirements of exited threads, in unregistration order.
  RetiredFifo orphans_;

  friend struct DomainTls;
};

}  // namespace cats::reclaim
