#include "reclaim/ebr.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/flight/annot.hpp"
#include "obs/registry.hpp"

namespace cats::reclaim {

// ---------------------------------------------------------------------------
// Thread-local registry.
//
// A thread may use several domains (the global one plus per-test domains), so
// its TLS holds a small vector of (domain, context) pairs, plus a one-entry
// cache for the domain it touched last.  The DomainTls destructor runs at
// thread exit and hands any still-pending retirements back to the domain as
// orphans.
// ---------------------------------------------------------------------------

struct DomainTls {
  struct Entry {
    Domain* domain;
    Domain::ThreadCtx* ctx;
  };
  std::vector<Entry> entries;

  ~DomainTls() {
    for (auto& entry : entries) {
      if (entry.domain != nullptr) entry.domain->unregister(entry.ctx);
    }
  }

  static DomainTls& instance() {
    thread_local DomainTls tls;
    return tls;
  }
};

namespace {
thread_local Domain* tl_cached_domain = nullptr;
thread_local void* tl_cached_ctx = nullptr;
}  // namespace

// ---------------------------------------------------------------------------
// Domain
// ---------------------------------------------------------------------------

Domain::Domain() = default;

Domain::~Domain() {
  // Unregister the destroying thread itself, if it ever used this domain.
  // All other threads must have exited or been joined by now (lifetime
  // contract), which means their TLS destructors already ran.
  auto& tls = DomainTls::instance();
  std::erase_if(tls.entries, [this](DomainTls::Entry& entry) {
    if (entry.domain != this) return false;
    unregister(entry.ctx);
    return true;
  });
  // A successor domain can be constructed at this address (per-execution
  // domains in the sim tests live on the driver's stack): drop the
  // one-entry cache so it cannot resolve to the dead context.
  if (tl_cached_domain == this) {
    tl_cached_domain = nullptr;
    tl_cached_ctx = nullptr;
  }
  for (auto& slot : slots_) {
    if (slot->owner.load(std::memory_order_acquire) != nullptr) {
      std::fprintf(stderr,
                   "cats::reclaim::Domain destroyed while a thread is still "
                   "registered; leaking its pending retirements\n");
    }
  }
  // No concurrent users remain: everything pending is safe to free.
  std::lock_guard<std::mutex> lock(orphan_mutex_);
  for (const Retired& r : orphans_.take()) reclaim(r);
}

Domain& Domain::global() {
  static Domain* const instance = new Domain();  // leaked on purpose
  return *instance;
}

Domain::ThreadCtx& Domain::context() {
  if (tl_cached_domain == this) {
    return *static_cast<ThreadCtx*>(tl_cached_ctx);
  }
  auto& tls = DomainTls::instance();
  for (auto& entry : tls.entries) {
    if (entry.domain == this) {
      tl_cached_domain = this;
      tl_cached_ctx = entry.ctx;
      return *entry.ctx;
    }
  }
  ThreadCtx* ctx = register_thread();
  tls.entries.push_back({this, ctx});
  tl_cached_domain = this;
  tl_cached_ctx = ctx;
  return *ctx;
}

Domain::ThreadCtx* Domain::register_thread() {
  auto* ctx = new ThreadCtx();
  ctx->domain = this;
  // A free slot's `announced` is already kIdle: unregister() resets it
  // before releasing ownership.  Never write to a slot before owning it.
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    void* expected = nullptr;
    if (slots_[i]->owner.compare_exchange_strong(expected, ctx,
                                                 std::memory_order_acq_rel)) {
      ctx->slot_index = i;
      return ctx;
    }
  }
  std::fprintf(stderr, "cats::reclaim::Domain: more than %zu threads\n",
               kMaxThreads);
  std::abort();
}

void Domain::unregister(ThreadCtx* ctx) {
  if (!ctx->retired.empty()) {
    const std::vector<Retired> own = ctx->retired.take();
    obs::count(obs::GCounter::kEbrOrphaned, own.size());
    std::lock_guard<std::mutex> lock(orphan_mutex_);
    orphans_.items.insert(orphans_.items.end(), own.begin(), own.end());
  }
  auto& slot = *slots_[ctx->slot_index];
  slot.retirees.store(0, std::memory_order_relaxed);
  slot.announced.store(kIdle, std::memory_order_release);
  slot.owner.store(nullptr, std::memory_order_release);
  if (tl_cached_domain == this) {
    tl_cached_domain = nullptr;
    tl_cached_ctx = nullptr;
  }
  delete ctx;
}

void Domain::enter() {
  ThreadCtx& ctx = context();
  if (ctx.guard_depth++ == 0) {
    cats::sim_point_event("ebr_guard_enter", this);
    const std::uint64_t e = global_epoch_.load(std::memory_order_relaxed);
    // seq_cst: the announcement must become visible before any subsequent
    // load of shared pointers, or try_advance could miss this reader.
    // catslint: seq_cst(store-load fence pairs with try_advance scan)
    slots_[ctx.slot_index]->announced.store(e, std::memory_order_seq_cst);
  }
}

void Domain::exit() {
  ThreadCtx& ctx = context();
  if (--ctx.guard_depth == 0) {
    cats::sim_point_event("ebr_guard_exit", this);
    slots_[ctx.slot_index]->announced.store(kIdle, std::memory_order_release);
  }
}

#if CATS_CHECKED_ENABLED
void Domain::retire(void* ptr, void (*deleter)(void*),
                    std::source_location site) {
  char site_buf[512];
  std::snprintf(site_buf, sizeof site_buf, "%s:%u", site.file_name(),
                static_cast<unsigned>(site.line()));
  check::on_retire(ptr, site_buf);
  enqueue_retirement(ptr, deleter);
}

void Domain::retire_shared(void* ptr, void (*deleter)(void*),
                           std::source_location site) {
  char site_buf[512];
  std::snprintf(site_buf, sizeof site_buf, "%s:%u", site.file_name(),
                static_cast<unsigned>(site.line()));
  check::on_retire_shared(ptr, site_buf);
  enqueue_retirement(ptr, deleter);
}

void Domain::enqueue_retirement(void* ptr, void (*deleter)(void*)) {
#else
void Domain::retire(void* ptr, void (*deleter)(void*)) {
#endif
  ThreadCtx& ctx = context();
  cats::sim_point_event("ebr_retire", this);
  const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
  ctx.retired.items.push_back({ptr, deleter, e});
  add_retirees(ctx, 1);
  obs::count(obs::GCounter::kEbrRetired);
  if (ctx.freeing) return;  // called from a deleter: free it later
  const std::uint64_t n = ++ctx.retire_count;
  // Orphans and the own FIFO share one budget per call.
  std::size_t budget = kFreeBudget;
  if (n % kDrainThreshold == 0) {
    if (try_advance()) {
      budget -=
          free_orphans(ctx, global_epoch_.load(std::memory_order_acquire));
    } else {
      // Some reader still pins the epoch and this thread's garbage backlog
      // keeps growing — annotated on the current flight-recorder span as
      // an epoch wait.
      obs::flight::note_epoch_wait();
    }
  }
  if (n % kFreePeriod == 0) {
    free_prefix(ctx, global_epoch_.load(std::memory_order_acquire), budget);
  }
}

void Domain::add_retirees(ThreadCtx& ctx, std::ptrdiff_t delta) {
  // Owner-only writer: a load + store is enough and keeps the line in this
  // thread's cache (pending() readers only ever load it).
  auto& count = slots_[ctx.slot_index]->retirees;
  count.store(count.load(std::memory_order_relaxed) +
                  static_cast<std::size_t>(delta),
              std::memory_order_relaxed);
}

void Domain::reclaim(const Retired& r) {
  CATS_CHECKED_ONLY(check::on_reclaim(r.ptr));
  r.deleter(r.ptr);
}

void Domain::free_prefix(ThreadCtx& ctx, std::uint64_t global,
                         std::size_t budget) {
  // Each entry is copied out and popped before its deleter runs: a deleter
  // may retire(), which appends to this very vector and may reallocate it.
  // The freeing flag makes such a retire only enqueue, so deleters never
  // recurse into this loop.
  RetiredFifo& fifo = ctx.retired;
  ctx.freeing = true;
  std::size_t freed = 0;
  while (freed < budget && !fifo.empty() && eligible(fifo.front(), global)) {
    const Retired r = fifo.front();
    fifo.pop_front();
    reclaim(r);
    ++freed;
  }
  ctx.freeing = false;
  if (freed != 0) {
    add_retirees(ctx, -static_cast<std::ptrdiff_t>(freed));
    obs::count(obs::GCounter::kEbrFreed, freed);
  }
}

std::size_t Domain::free_orphans(ThreadCtx& ctx, std::uint64_t global) {
  // Orphans are a concatenation of several threads' FIFOs, so the eligible
  // ones need not be a prefix; popping only the eligible prefix is
  // conservative, and the front becomes eligible within two advances.
  Retired batch[kFreeBudget];
  std::size_t n = 0;
  {
    std::unique_lock<std::mutex> lock(orphan_mutex_, std::try_to_lock);
    if (!lock.owns_lock()) return 0;  // another thread is at it
    while (n < kFreeBudget && !orphans_.empty() &&
           eligible(orphans_.front(), global)) {
      batch[n++] = orphans_.front();
      orphans_.pop_front();
    }
  }
  // Deleters run outside the lock (see drain()).
  ctx.freeing = true;
  for (std::size_t i = 0; i < n; ++i) reclaim(batch[i]);
  ctx.freeing = false;
  if (n != 0) obs::count(obs::GCounter::kEbrFreed, n);
  return n;
}

bool Domain::try_advance() {
  obs::count(obs::GCounter::kEbrAdvanceAttempts);
  // Both seq_cst loads below close the Dekker race with enter(): a reader
  // announces (seq_cst store) and then reads shared pointers; the scan must
  // sit after that store in the single total order, or an advance could
  // free memory the reader is still traversing.  try_advance runs once per
  // kDrainThreshold retires, so this is off the operation hot path.
  // catslint: seq_cst(epoch read ordered against announce stores)
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (const auto& slot : slots_) {
    if (slot->owner.load(std::memory_order_acquire) == nullptr) continue;
    const std::uint64_t announced =
        // catslint: seq_cst(scan must observe every pre-scan announcement)
        slot->announced.load(std::memory_order_seq_cst);
    if (announced != kIdle && announced != e) return false;
  }
  const bool advanced = global_epoch_.compare_exchange_strong(
      e, e + 1, std::memory_order_acq_rel);
  if (advanced) {
    obs::count(obs::GCounter::kEbrAdvances);
    // Instant event on the merged timeline (depth unused; stat carries the
    // new epoch, truncated — fine for a visual marker).
    obs::trace_adapt(obs::AdaptKind::kEpochAdvance, 0,
                     static_cast<std::int32_t>(e + 1));
  }
  return advanced;
}

void Domain::free_eligible(std::vector<Retired>& list, std::uint64_t global) {
  // `list` is private to the caller, so a deleter that retires cannot touch
  // it; remove_if applies the predicate exactly once per entry.
  const std::size_t before = list.size();
  std::erase_if(list, [&](const Retired& r) {
    if (!eligible(r, global)) return false;
    reclaim(r);
    return true;
  });
  if (list.size() != before) {
    obs::count(obs::GCounter::kEbrFreed, before - list.size());
  }
}

void Domain::drain() {
  ThreadCtx& ctx = context();
  // Three advances move the epoch past everything retired so far; they can
  // only fail if a guard is active, which the caller promises is not the
  // case.
  for (int i = 0; i < 3; ++i) try_advance();
  const std::uint64_t global = global_epoch_.load(std::memory_order_acquire);
  free_prefix(ctx, global, SIZE_MAX);
  // Run orphan deleters outside the lock: deleters touch shared state
  // (refcounts, pools) and must not serialise — or, under CATS_SIM, hit a
  // scheduling point — while orphan_mutex_ is held.  Survivors (and
  // anything unregistered concurrently) are appended back afterwards.
  std::vector<Retired> grabbed;
  {
    std::lock_guard<std::mutex> lock(orphan_mutex_);
    grabbed = orphans_.take();
  }
  free_eligible(grabbed, global);
  if (!grabbed.empty()) {
    std::lock_guard<std::mutex> lock(orphan_mutex_);
    orphans_.items.insert(orphans_.items.end(), grabbed.begin(),
                          grabbed.end());
  }
}

void Domain::detach_current_thread() {
  // Erase the entry rather than nulling it: a sim run creates thousands
  // of short-lived per-execution domains on one driver thread, and dead
  // entries would make every context() lookup a linear scan over them.
  auto& tls = DomainTls::instance();
  std::erase_if(tls.entries, [this](DomainTls::Entry& entry) {
    if (entry.domain != this) return false;
    unregister(entry.ctx);
    return true;
  });
  if (tl_cached_domain == this) {
    tl_cached_domain = nullptr;
    tl_cached_ctx = nullptr;
  }
}

std::size_t Domain::pending() const {
  std::size_t total = 0;
  for (const auto& slot : slots_) {
    total += slot->retirees.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(orphan_mutex_);
  return total + orphans_.size();
}

}  // namespace cats::reclaim
