// Chrome/Perfetto trace_event JSON writer.
//
// Merges the flight recorder's op spans (flight.hpp) and the adaptation
// trace's split/join/epoch instants (obs/trace.hpp) into one JSON Trace
// Event Format document that chrome://tracing and https://ui.perfetto.dev
// load directly:
//
//   spans    -> complete events  ("ph":"X", ts/dur in microseconds)
//   instants -> instant events   ("ph":"i", global scope)
//
// Both sources share the AdaptTrace::now_ns() timeline, so a split lands
// visually between the op spans that provoked it.  One track per recorder
// shard ("tid" = shard index); thread-name metadata rows label them.
#pragma once

#include <iosfwd>
#include <vector>

#include "obs/flight/flight.hpp"
#include "obs/trace.hpp"

namespace cats::obs::flight {

/// Writes one self-contained trace document from explicit event lists.
void write_chrome_trace(std::ostream& os,
                        const std::vector<SpanEvent>& spans,
                        const std::vector<TraceEvent>& instants);

/// Convenience: dumps the recorder and the global adaptation trace — the
/// payload of the /trace.json endpoint and of --trace-out.
void write_chrome_trace(std::ostream& os);

}  // namespace cats::obs::flight
