/**
 * @file
 * Trace-driven application models.
 *
 * Replays measured (config -> performance, power) tables instead of
 * evaluating an analytic surface, so real machine profiles — or
 * crafted adversarial ones — become first-class application
 * behaviors usable by every estimator, sampler, bench and the
 * service. A TraceTable is a list of segments; each segment holds
 * sparse rows (configIndex, heartbeatRate, powerWatts) and a
 * work-unit budget, and the model switches segments when its
 * work-unit clock crosses a boundary (the trace analogue of
 * fluidanimate's phases).
 *
 * Text format (TraceTable::fromString / fromFile), CSV: '#'
 * comments, blank lines and CRLF endings tolerated; an optional
 * "config,performance,power" header; "segment,<workUnits>"
 * directives open a new segment (a first data row before any
 * directive opens an unbounded one):
 *
 *     # two-phase adversarial trace
 *     segment,120
 *     0,1.45,98.0
 *     4,2.90,131.5
 *     segment,0          # 0 = unbounded (terminal segment)
 *     0,0.95,102.0
 *
 * Cells follow the grammar the CSV and scenario readers share
 * (workloads/fields.hh): config indices and work-unit counts are
 * exact non-negative decimal integers, performance and power are
 * finite numbers, and a line splits on every comma. Malformed
 * input (missing columns, non-integer indices, non-finite or
 * non-positive cells, empty segments, duplicate configs in a
 * segment) throws leo::FatalError. Config indices are validated
 * against the actual ConfigSpace when a TraceApplicationModel is
 * built.
 *
 * Missing configs are filled at construction by index-linear
 * interpolation between the measured neighbors, clamped at the ends;
 * measured rows replay bit-exactly.
 */

#ifndef LEO_WORKLOADS_TRACE_HH
#define LEO_WORKLOADS_TRACE_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "linalg/vector.hh"
#include "platform/config_space.hh"
#include "workloads/app_model.hh"

namespace leo::workloads
{

/** One contiguous phase of a trace. */
struct TraceSegment
{
    /** Work units this segment lasts; 0 = unbounded (runs forever,
     *  only meaningful for the final segment). */
    std::size_t workUnits = 0;
    /** Config indices with measured rows, strictly increasing. */
    std::vector<std::size_t> indices;
    /** Heartbeat rate per row, positive and finite. */
    std::vector<double> performance;
    /** Wall power per row, positive and finite. */
    std::vector<double> power;
};

/**
 * A parsed trace: one or more segments. Plain data, validated at
 * parse time; see the file comment for the accepted formats.
 */
struct TraceTable
{
    std::vector<TraceSegment> segments;

    /**
     * Parse a trace from CSV text (see the file comment).
     *
     * @throws leo::FatalError on malformed input.
     */
    static TraceTable fromString(const std::string &text);

    /**
     * Parse a trace from a file on disk.
     *
     * @throws leo::FatalError when the file is unreadable or
     *         malformed.
     */
    static TraceTable fromFile(const std::string &path);

    /** @return The largest config index appearing in any segment. */
    std::size_t maxIndex() const;
};

/** Construction knobs for TraceApplicationModel. */
struct TraceModelOptions
{
    /** Wall power of the idle system (the trace measures the active
     *  system, so idle comes from the machine description). */
    double idlePowerWatts = 85.0;
    /** Name reported to estimators / priors / the service. */
    std::string name = "trace";
};

/**
 * An ApplicationBehavior that replays a TraceTable on a ConfigSpace.
 *
 * Dense per-segment performance/power vectors are materialized once
 * at construction (interpolation), so queries are pure table lookups
 * and bitwise reproducible. The model carries a work-unit clock:
 * setWorkUnit() selects the active segment, mirroring how the phased
 * runner advances frames.
 */
class TraceApplicationModel : public ApplicationBehavior
{
  public:
    /**
     * @param table   The parsed trace (validated against @p space).
     * @param space   The configuration space replayed over (borrowed;
     *                must outlive the model).
     * @param options Idle power and naming knobs.
     * @throws leo::FatalError when a row's config index is outside
     *         the space.
     */
    TraceApplicationModel(const TraceTable &table,
                          const platform::ConfigSpace &space,
                          TraceModelOptions options = {});

    // ApplicationBehavior
    const std::string &name() const override { return options_.name; }
    double heartbeatRate(
        const platform::ResourceAssignment &ra) const override;
    double
    powerWatts(const platform::ResourceAssignment &ra) const override;
    double idlePowerWatts() const override;

    /** Move the work-unit clock (absolute): the segment it sits in
     *  answers the rate and power queries. */
    void setWorkUnit(std::size_t unit);
    /** @return Number of segments. */
    std::size_t numSegments() const { return perf_.size(); }
    /** @return The segment active at an arbitrary work unit. */
    std::size_t segmentAt(std::size_t unit) const;

    /** Dense replayed heartbeat table of one segment. */
    const linalg::Vector &segmentPerformance(std::size_t seg) const;
    /** Dense replayed power table of one segment. */
    const linalg::Vector &segmentPower(std::size_t seg) const;

  private:
    std::size_t indexOf(const platform::ResourceAssignment &ra) const;

    TraceModelOptions options_;
    std::vector<linalg::Vector> perf_;  //!< [segment] dense rates.
    std::vector<linalg::Vector> power_; //!< [segment] dense watts.
    std::vector<std::size_t> starts_;   //!< Segment start work units.
    /** Segment lengths in work units (0 = unbounded). */
    std::vector<std::size_t> lengths_;
    std::map<std::array<std::uint64_t, 7>, std::size_t> lookup_;
    std::size_t active_ = 0;
};

} // namespace leo::workloads

#endif // LEO_WORKLOADS_TRACE_HH
