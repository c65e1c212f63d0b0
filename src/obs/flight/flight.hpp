// Sampled per-operation flight recorder.
//
// The adaptation trace (obs/trace.hpp) records the tree's *decisions*;
// this module records what individual operations *experienced*: start
// timestamp, latency, op kind, key hash, and how many CAS failures, EBR
// epoch waits and pool refills the operation absorbed (annot.hpp).  Spans
// land in the same per-thread seqlock rings as AdaptTrace
// (obs/seqlock_ring.hpp), and dump() merges all rings into one timeline
// that shares AdaptTrace::now_ns()'s origin, so op spans and split/join
// instants line up in one Perfetto view (flight/perfetto.hpp).
//
// Timing every operation would dominate the cost of a lookup, so spans are
// sampled 1 in 2^shift per thread via a thread-local countdown:
//
//   disabled path:   one relaxed load + branch (g_control == 0)
//   unsampled path:  load + compare + decrement + branch
//   sampled path:    two TSC reads + a handful of ring stores
//
// Timestamps are raw TSC ticks (x86 rdtsc / aarch64 cntvct_el0, falling
// back to steady_clock); enable() calibrates ticks-per-ns against
// AdaptTrace::now_ns() and anchors the origins so dump() can convert.  The
// rings (~6 MB) are allocated lazily on the first enable(): a process that
// never traces never pays for them.
//
// Control plane (enable/disable/reset) is NOT thread-safe against itself —
// callers serialize it (the harness enables once before the run).  The
// data plane (begin/end/dump) is safe from any thread at any time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/flight/annot.hpp"
#include "obs/seqlock_ring.hpp"
#include "obs/trace.hpp"

namespace cats::obs::flight {

enum class SpanKind : std::uint8_t {
  kInsert,
  kRemove,
  kLookup,
  kRange,
};

inline const char* span_kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kInsert: return "insert";
    case SpanKind::kRemove: return "remove";
    case SpanKind::kLookup: return "lookup";
    case SpanKind::kRange: return "range";
  }
  return "?";
}

/// One completed sampled operation, converted to the AdaptTrace timeline.
struct SpanEvent {
  std::uint64_t t_ns = 0;    // start, AdaptTrace::now_ns() timeline
  std::uint64_t dur_ns = 0;  // latency
  SpanKind kind = SpanKind::kLookup;
  std::uint32_t key_hash = 0;      // mix64(key) truncated; spreads hot keys
  std::uint32_t thread = 0;        // recorder's ring (shard) index
  std::uint32_t cas_fails = 0;     // annotation deltas over the span
  std::uint32_t epoch_waits = 0;
  std::uint32_t pool_refills = 0;
};

/// Token returned by begin_span(); inert (active == false) on the
/// disabled/unsampled paths.
struct SpanStart {
  std::uint64_t ticks = 0;
  std::uint32_t cas_fails = 0;
  std::uint32_t epoch_waits = 0;
  std::uint32_t pool_refills = 0;
  bool active = false;
};

/// Global sampling control word: 0 = disabled, else
/// (generation << 8) | (sample_shift + 1).  The generation bump on every
/// enable() invalidates each thread's cached countdown, so a new shift
/// takes effect immediately (and the first op after enable is sampled).
inline std::atomic<std::uint32_t> g_control{0};

/// Raw timestamp-counter read; units are calibrated at enable() time.
inline std::uint64_t read_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  std::uint32_t lo, hi;
  asm volatile("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return AdaptTrace::now_ns();  // 1 tick == 1 ns, calibration finds ~1.0
#endif
}

class Recorder {
 public:
  /// Spans retained per thread ring; older spans are overwritten.
  static constexpr std::size_t kRingSize = 4096;

  /// Lazily constructed (and leaked) so the disabled path never touches —
  /// or allocates — the rings.
  static Recorder& instance();

  /// Calibrates the tick clock, clears the rings and turns sampling on at
  /// 1 in 2^sample_shift ops per thread (shift 0 = every op).
  void enable(unsigned sample_shift);
  void disable() { g_control.store(0, std::memory_order_release); }
  bool enabled() const {
    return g_control.load(std::memory_order_acquire) != 0;
  }
  /// Active shift, or negative when disabled.
  int sample_shift() const {
    const std::uint32_t control = g_control.load(std::memory_order_acquire);
    return control == 0 ? -1 : static_cast<int>((control & 0xffu) - 1);
  }
  double ticks_per_ns() const {
    return ticks_per_ns_.load(std::memory_order_acquire);
  }

  /// Hot path; called via begin_span() only when g_control != 0.
  SpanStart begin(std::uint32_t control) {
    Sampler& tl = sampler();
    if (tl.control != control) {
      tl.control = control;
      tl.countdown = 0;
    }
    if (tl.countdown != 0) {
      --tl.countdown;
      return {};
    }
    tl.countdown = (1u << ((control & 0xffu) - 1)) - 1;
    SpanStart s;
    s.active = true;
    const OpAnnot& annot = op_annot();
    s.cas_fails = annot.cas_fails;
    s.epoch_waits = annot.epoch_waits;
    s.pool_refills = annot.pool_refills;
    s.ticks = read_ticks();
    return s;
  }

  /// Seals a sampled span into the calling thread's ring.
  void end(const SpanStart& s, SpanKind kind, Key key) {
    const std::uint64_t end_ticks = read_ticks();
    const OpAnnot& annot = op_annot();
    SpanRecord r;
    r.start_ticks = s.ticks;
    // TSC reads may jump backwards across a core migration; clamp.
    r.dur_ticks = end_ticks > s.ticks ? end_ticks - s.ticks : 0;
    r.kind = kind;
    r.key_hash =
        static_cast<std::uint32_t>(mix64(static_cast<std::uint64_t>(key)));
    r.cas_fails = annot.cas_fails - s.cas_fails;
    r.epoch_waits = annot.epoch_waits - s.epoch_waits;
    r.pool_refills = annot.pool_refills - s.pool_refills;
    rings_.write(r);
  }

  /// Merged timeline of every ring, sorted by start time.  Entries being
  /// overwritten mid-read are dropped (same contract as AdaptTrace::dump).
  std::vector<SpanEvent> dump() const;

  /// Total spans ever recorded (including overwritten ones).
  std::uint64_t recorded() const { return rings_.recorded(); }
  /// Spans lost to ring wraparound (recorded minus still-resident).
  std::uint64_t dropped() const { return rings_.dropped(); }

  /// Clears the rings (control plane; not safe against live recording).
  void reset() { rings_.reset(); }

 private:
  struct Sampler {
    std::uint32_t control = 0;
    std::uint32_t countdown = 0;
  };
  static Sampler& sampler() {
    thread_local Sampler tl;
    return tl;
  }

  /// A span as stored: raw ticks, converted to nanoseconds by dump().
  struct SpanRecord {
    std::uint64_t start_ticks = 0;
    std::uint64_t dur_ticks = 0;
    SpanKind kind = SpanKind::kLookup;
    std::uint32_t key_hash = 0;
    std::uint32_t cas_fails = 0;
    std::uint32_t epoch_waits = 0;
    std::uint32_t pool_refills = 0;
    std::uint32_t thread = 0;
  };

  Recorder() = default;

  // Calibration anchors, written by enable() before the g_control release
  // store; dump() reads them acquire.  Spans always store raw ticks — the
  // conversion happens only at dump time.
  std::atomic<std::uint64_t> origin_ticks_{0};
  std::atomic<std::uint64_t> origin_ns_{0};
  std::atomic<double> ticks_per_ns_{1.0};
  std::uint32_t generation_ = 0;  // control plane only

  SeqlockRings<SpanRecord, kRingSize> rings_;
};

/// Hot-path entry: inert token unless sampling is on and this op won the
/// thread's countdown.
inline SpanStart begin_span() {
  const std::uint32_t control = g_control.load(std::memory_order_relaxed);
  if (control == 0) return {};
  return Recorder::instance().begin(control);
}

inline void end_span(const SpanStart& s, SpanKind kind, Key key) {
  if (!s.active) return;
  Recorder::instance().end(s, kind, key);
}

}  // namespace cats::obs::flight
