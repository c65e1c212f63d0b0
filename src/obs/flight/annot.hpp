// Per-operation annotation counters for the flight recorder.
//
// The substrates below the tree — the EBR domain and the slab node pool —
// see interesting per-operation events (an epoch that could not advance, a
// thread-cache refill) but must not depend on the obs library: cats_obs
// links cats_alloc, so a pool → obs call would be a link cycle.  These
// counters are therefore header-only plain thread-locals: the substrate
// bumps them, and the flight recorder (flight.hpp) reads them at span
// begin/end and attributes the delta to the sampled operation.
//
// Cumulative, never reset: consumers subtract two readings.  A bump costs
// one thread-local increment.
#pragma once

#include <cstdint>

namespace cats::obs::flight {

/// Cumulative per-thread annotation counters.
struct OpAnnot {
  std::uint32_t cas_fails = 0;     // lost CAS / retry events (lfca hooks)
  std::uint32_t epoch_waits = 0;   // EBR try_advance blocked by a reader
  std::uint32_t pool_refills = 0;  // node-pool thread-cache refills
};

inline OpAnnot& op_annot() {
  thread_local OpAnnot annot;
  return annot;
}

inline void note_cas_fail() { ++op_annot().cas_fails; }
inline void note_epoch_wait() { ++op_annot().epoch_waits; }
inline void note_pool_refill() { ++op_annot().pool_refills; }

}  // namespace cats::obs::flight
