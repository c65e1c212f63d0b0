// Observability build gate.
//
// The obs subsystem (sharded counters, log-scale histograms, the adaptation
// event trace and the exporters) is compiled behind the CATS_OBS CMake
// option.  `CATS_OBS_ENABLED` is defined 0 or 1 on every target through the
// cats_common interface library; hot-path hooks are written as
//
//     CATS_OBS_ONLY(obs::g_counters.add(obs::GCounter::kEbrRetire));
//
// so an OFF build compiles them to nothing — no loads, no stores, no code.
//
// The 18 per-tree counters (lfca/stats.hpp: the paper's Tables 1-2 plus the
// contention and help diagnostics) are NOT behind the gate: the paper's
// tables and the adaptation tests read them, and they use the cheap sharded
// implementation in obs/counters.hpp.  Everything else here is gated.
#pragma once

#ifndef CATS_OBS_ENABLED
#define CATS_OBS_ENABLED 1
#endif

#if CATS_OBS_ENABLED
#define CATS_OBS_ONLY(...) \
  do {                     \
    __VA_ARGS__;           \
  } while (0)
#else
#define CATS_OBS_ONLY(...) \
  do {                     \
  } while (0)
#endif

namespace cats::obs {

/// True in builds where the obs hooks are live.
inline constexpr bool kEnabled = CATS_OBS_ENABLED != 0;

}  // namespace cats::obs
