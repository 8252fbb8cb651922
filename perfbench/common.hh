/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, sample
 * statistics, the result report, and the traced run's span recorder.
 *
 * The benchmark drives the program only through its public APIs and
 * times those calls from the outside. In a traced run (--trace 1) it
 * also records its own spans around the calls it makes and harvests
 * the program's existing obs spans; both share the steady-clock time
 * base of obs::Tracer::nowMicros(), so one nesting pass turns the
 * merged timeline into per-layer self times.
 */

#ifndef LEO_PERFBENCH_COMMON_HH
#define LEO_PERFBENCH_COMMON_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "estimators/leo.hh"
#include "obs/obs.hh"
#include "workloads/ground_truth.hh"

namespace perfbench
{

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Minimum rate jump, at the paced configuration, of the model a
 *  workload switches an application to: large enough that the
 *  controller's drift test (20 % gap) fires on three straight
 *  windows. */
constexpr double kSwitchRatio = 1.5;

/** Monotone microseconds on the tracer's time base. */
inline double
nowUs()
{
    return leo::obs::Tracer::nowMicros();
}

/** Deterministic 64-bit mix of a seed and a stream of tags. */
std::uint64_t mix(std::uint64_t seed, std::uint64_t a,
                  std::uint64_t b = 0, std::uint64_t c = 0);

/** A bag of measurements with order statistics. */
class Samples
{
  public:
    void add(double v) { values_.push_back(v); }
    std::size_t size() const { return values_.size(); }
    double sum() const;
    double mean() const;
    /** Linear-interpolated quantile, q in [0, 1] (0 when empty). */
    double quantile(double q) const;

  private:
    std::vector<double> values_;
};

/**
 * A p95 that one noisy stretch of a run cannot move: samples are
 * grouped into consecutive blocks of the run (200 periods or
 * episodes), and the tail is the median over the run's complete
 * blocks of each block's p95.
 */
class BlockTail
{
  public:
    static constexpr std::size_t kBlock = 200;

    /** Add a sample taken in the run's `unit`-th period or episode. */
    void add(std::size_t unit, double v);
    /** The tail over the blocks that `units` periods or episodes
     *  complete; the plain p95 when they complete none. */
    double p95(std::size_t units) const;
    /** Every sample added. */
    const Samples &all() const { return all_; }

  private:
    std::vector<Samples> blocks_;
    Samples all_;
};

/** FNV-1a over the bit patterns of values that must repeat exactly
 *  for a seed (quality metrics, exact counts). */
class Digest
{
  public:
    void add(double v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** The metrics of one run plus its operation tally and checks. */
class Report
{
  public:
    /** Add a metric; `n` is its sample count (printed, not in JSON). */
    void add(const std::string &name, double value,
             const std::string &unit, std::size_t n);

    /** Count one operation; a failure is tallied under `kind`. */
    void op(bool ok, const char *kind)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            ++failedKinds_[kind];
        }
    }

    /** Record a failed output check (the run is not correct). */
    void fail(const std::string &what);

    /** An informational line printed above the table. */
    void note(const std::string &line);

    /** Fold a value into the exact digest (counts, quality). */
    void digest(double v) { digest_.add(v); }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    double successRatio() const;

    /** Print the table, the digest line and the final JSON line. */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::size_t n = 0;
    };
    std::vector<Metric> metrics_;
    std::map<std::string, std::uint64_t> failures_; //!< With counts.
    std::vector<std::string> notes_;
    std::map<std::string, std::uint64_t> failedKinds_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    Digest digest_;
};

/**
 * The per-layer metrics of a traced run. Every workload prints the
 * whole catalogue (see Layers::report); a layer the workload's
 * traffic never reaches reads 0 with 0 samples.
 */
class Layers
{
  public:
    /** Set one catalogue metric; an unknown name fails the run. */
    void set(const std::string &name, double value, std::size_t n);
    /** Add the catalogue, in order, to the report. */
    void report(Report &report) const;

  private:
    std::map<std::string, std::pair<double, std::size_t>> values_;
};

/**
 * Span statistics of a traced run: the benchmark's own spans around
 * public calls merged with the program's obs spans, reduced to
 * per-name totals and self times (duration minus direct children).
 */
class Trace
{
  public:
    /** Per-name aggregate. */
    struct Stat
    {
        std::size_t count = 0;
        double totalUs = 0.0;
        double selfUs = 0.0;
        Samples durUs;
    };

    /** RAII span on the benchmark recorder (inert when off). */
    class Scope
    {
      public:
        Scope(Trace &trace, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Trace *trace_;
        const char *name_;
        double t0_ = 0.0;
    };

    /** Start recording (own spans and the program's obs spans). */
    void start();
    /** Stop recording after a final harvest. */
    void stop();
    bool on() const { return on_; }

    /**
     * The traced run's schedule: quarters of the run alternate
     * untraced and traced, so traced and untraced timings come from
     * interleaved stretches (obs.trace_overhead compares them). Call
     * between timed regions.
     */
    void follow(double elapsed_s, double run_s);

    /**
     * Fold everything recorded so far into the statistics and empty
     * both buffers. Call between timed regions.
     */
    void harvest();

    /** Discard what the program recorded since the last harvest
     *  (fits the benchmark replays must not count as traffic). */
    void discardProgramSpans();

    /** @return The aggregate for a span name (empty if unseen). */
    const Stat &stat(const std::string &name) const;

    /** Events the program's tracer dropped (must stay 0). */
    std::uint64_t dropped() const { return dropped_; }

  private:
    struct Span
    {
        std::string name;
        double ts = 0.0;
        double dur = 0.0;
    };
    bool on_ = false;
    std::vector<Span> own_;
    std::map<std::string, Stat> stats_;
    std::uint64_t dropped_ = 0;
};

/** Eq. 5 accuracy plus the energy ratio of one decision. */
struct Quality
{
    double perfAccuracy = 0.0;
    double powerAccuracy = 0.0;
    double energyRatio = 0.0;
    bool finite = false;
};

/**
 * Score estimates against ground truth: Eq. 5 accuracy of each
 * metric, and the guarded execution energy of the hull-walk plan over
 * the estimates divided by the optimum on the truth, for `work`
 * heartbeats by `deadline` seconds.
 */
Quality scoreEstimates(const leo::linalg::Vector &perf,
                       const leo::linalg::Vector &power,
                       const leo::workloads::GroundTruth &truth,
                       double idle_power, double work,
                       double deadline);

/** Peak true heartbeat rate of an application. */
double peakRate(const leo::workloads::GroundTruth &truth);

/**
 * Host-speed reference for the end-to-end timings.
 *
 * On a shared host the speed a single thread gets swings by 2x within
 * seconds to minutes (other tenants' load on the same cores), which
 * moves every wall-clock percentile with it. measure() runs a fixed,
 * benchmark-owned kernel, independent of the program under test, and
 * records its time relative to the kernel's nominal time. Timings are
 * reported divided by factor(), the median of the last three
 * measurements taken around the timed call: milliseconds at the
 * nominal host speed. The kernel has the two costs a fit pays:
 * dense multiply-adds of the EM's shapes (48x48 products and 48x1024
 * passes, run once untimed first so the program's cache state does
 * not enter), and page faults on freshly mapped memory, which the
 * fit's large temporaries take (about 260 per pair of fits at 1024
 * configurations) and which slow down differently from arithmetic when
 * the host is busy. A change to the program still moves the quotient
 * in full, since the kernel runs no program code.
 */
class HostSpeed
{
  public:
    /** Time one pass of the kernel; @return this measurement's
     *  factor. */
    double measure();
    /** Median factor of the last three measurements (1 before any,
     *  the mean of the two after the second). */
    double factor() const;
    /** Every factor measured so far. */
    const Samples &all() const { return all_; }

  private:
    /** The arithmetic part of the kernel. */
    void multiplyAdd();
    /** The page-fault part: map, touch and unmap fresh memory. */
    void touchFreshPages();

    std::vector<double> a_ = std::vector<double>(48 * 48, 0.5);
    std::vector<double> b_ = std::vector<double>(48 * 48, 0.25);
    std::vector<double> c_ = std::vector<double>(48 * 48, 0.0);
    std::vector<double> q_ = std::vector<double>(48 * 1024, 0.125);
    std::vector<double> x_ = std::vector<double>(1024, 1.0);
    std::vector<double> y_ = std::vector<double>(48, 0.0);
    double recent_[3] = {};
    std::size_t count_ = 0;
    Samples all_;
};

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** Estimator options of every workload: a strictly serial fit. */
inline leo::estimators::LeoOptions
serialLeoOptions()
{
    leo::estimators::LeoOptions o;
    o.threads = 1;
    return o;
}

/** Run one workload; defined per workload translation unit. */
void runPaperLoop(const Options &opt, Report &report);
void runFleetRolling(const Options &opt, Report &report);
void runFleetCapped(const Options &opt, Report &report);

} // namespace perfbench

#endif // LEO_PERFBENCH_COMMON_HH
