/**
 * @file
 * The scenario DSL: declarative workload x fault x phase
 * compositions.
 *
 * A Spec is a plain-value description of one closed-loop experiment:
 * which workload runs (an analytic suite application, a phase
 * schedule over scaled applications, or a replayed trace), which
 * sensor-fault scenario corrupts its telemetry, what performance
 * demand it paces, and which controller adaptation policy watches
 * for phase changes. Specs parse from a small line-based text
 * grammar and expand into combinatorial grids — so robustness/property
 * tests and the change-point bench enumerate generated scenarios
 * instead of hand-written ones.
 *
 * Text grammar (one directive per line; '#' comments; CRLF ok):
 *
 *     name drifting_load
 *     workload phased              # analytic | phased | trace
 *     app x264                     # suite application (analytic)
 *     target 4.0                   # heartbeats/s (0 = auto)
 *     frames 240                   # closed-loop windows
 *     seed 42                      # run RNG seed
 *     changepoint coldrefit        # off | coldrefit
 *     fault nan=0.05 outlier=0.05 outlier_scale=25 seed=99
 *     phase x264 frames=60 scale=1.0
 *     phase x264 frames=60 scale=0.7
 *     trace_file examples/traces/web_requests.csv
 *     trace_inline <<END          # inline trace text until END
 *       segment,40
 *       0,1.0,100
 *     END
 *
 * A directive without options takes exactly one value. Free-text
 * values (name, app, trace_file, a phase's app) are one token: no
 * blank, '#' or control character. A heredoc body is stored without
 * carriage returns at line ends. Numbers and counts follow
 * workloads/fields.hh.
 *
 * Grid expansion (expandGrid) takes a base Spec and a list of axes —
 * each a directive key plus the values it sweeps — and produces the
 * cross product, naming each cell "<base>/<key>=<value>/...". Axis
 * keys route through the same setter as the text grammar, so
 * anything the grammar can say, a grid can sweep.
 */

#ifndef LEO_SCENARIO_SPEC_HH
#define LEO_SCENARIO_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "faults/faults.hh"
#include "runtime/changepoint.hh"

namespace leo::scenario
{

/** Which workload backend a scenario runs. */
enum class WorkloadKind
{
    Analytic, //!< One suite application, stationary.
    Phased,   //!< A schedule of scaled applications.
    Trace     //!< A replayed TraceTable.
};

/** One phase of a Phased workload. */
struct PhaseSpec
{
    /** Suite application the phase runs. */
    std::string app = "x264";
    /** Multiplier on the application's base heartbeat rate: > 1
     *  models the work getting lighter, < 1 a load spike. */
    double scale = 1.0;
    /** Frames the phase lasts. */
    std::size_t frames = 0;
};

/** One declarative scenario. */
struct Spec
{
    /** Scenario name (labels, bench rows, grid cells). */
    std::string name = "scenario";
    /** Workload backend. */
    WorkloadKind workload = WorkloadKind::Analytic;
    /** Application for Analytic workloads. */
    std::string app = "x264";
    /** Phase schedule for Phased workloads. */
    std::vector<PhaseSpec> phases;
    /** Trace file path for Trace workloads (resolved at
     *  materialization). */
    std::string traceFile;
    /** Inline trace text; takes precedence over traceFile. */
    std::string traceText;
    /** Performance demand in heartbeats/s; 0 = auto (half the
     *  workload's peak rate in its first phase/segment). */
    double targetRate = 0.0;
    /** Closed-loop windows to simulate. */
    std::size_t frames = 200;
    /** RNG seed of the run (probes + measurement noise). */
    std::uint64_t seed = 42;
    /** Sensor faults injected into the controller's telemetry. */
    faults::FaultScenario faults;
    /** Controller adaptation policy. */
    runtime::ChangePointPolicy changePointPolicy =
        runtime::ChangePointPolicy::Off;

    /**
     * Parse a spec from its text form (see the file comment).
     * @throws leo::FatalError on malformed input.
     */
    static Spec fromString(const std::string &text);
};

/**
 * Apply one "key value" directive to a spec — the routine behind
 * the text grammar's single-value directives and grid axes. Keys:
 * name, workload, app, target (finite, >= 0), frames, seed,
 * changepoint, trace_file, fault.<field> (nan, inf, dropout,
 * outlier, outlier_scale, stale, seed).
 *
 * @throws leo::FatalError on an unknown key or unparsable value.
 */
void setField(Spec &spec, const std::string &key,
              const std::string &value);

/** One grid axis: a directive key and the values it sweeps. */
struct GridAxis
{
    std::string key;
    std::vector<std::string> values;
};

/**
 * Cross product of the axes over a base spec. Cell names append
 * "/<key>=<value>" per axis, in axis order; cells inherit everything
 * else from the base. Axis order is significant only for naming.
 */
std::vector<Spec> expandGrid(const Spec &base,
                             const std::vector<GridAxis> &axes);

} // namespace leo::scenario

#endif // LEO_SCENARIO_SPEC_HH
