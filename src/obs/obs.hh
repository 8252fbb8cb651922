/**
 * @file
 * Umbrella header of the `leo::obs` observability subsystem.
 *
 * Two cooperating halves (see DESIGN.md "Observability"):
 *
 *  - registry.hh — named counters / gauges / fixed-bucket histograms
 *    with per-thread sharded lock-free storage, deterministic
 *    snapshot merging, and JSON export.
 *  - trace.hh — RAII scoped spans collected into a bounded buffer
 *    and exported in Chrome trace_event format (Perfetto-loadable).
 *
 * Both halves honour the null-sink contract: with the registry
 * disabled (LEO_OBS=off) and the tracer off, every instrumentation
 * site reduces to a couple of branches and the pipeline output is
 * bitwise identical to the uninstrumented build.
 */

#ifndef LEO_OBS_OBS_HH
#define LEO_OBS_OBS_HH

#include "obs/names.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

#endif // LEO_OBS_OBS_HH
