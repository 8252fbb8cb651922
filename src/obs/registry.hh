/**
 * @file
 * The metrics half of the `leo::obs` observability subsystem.
 *
 * A Registry is a named table of three instrument kinds —
 * monotone **counters**, last-write-wins **gauges** and fixed-bucket
 * **histograms** — designed so the *hot path pays no locks*:
 *
 *  - Registration allocates every cell an instrument will ever
 *    write: one atomic for a counter or a gauge; for a histogram,
 *    its edges, one atomic count per bucket and atomic sum/min/max.
 *    A handle points at those cells, so a write is one relaxed
 *    atomic op on them (a histogram's is a few), never allocates
 *    and never takes a lock. ThreadSanitizer-clean by construction.
 *  - Each kind has its own name-ordered table, so a counter and a
 *    gauge may share a name and stay two instruments, and
 *    snapshot() reads the tables in order. Counter and bucket adds
 *    are integer sums, so their values are *exactly* identical at
 *    any thread count — the determinism anchor the obs tests
 *    assert. (Histogram `sum` is a floating-point total and is
 *    deterministic only up to summation order; comparisons should
 *    use counts.)
 *  - A default-constructed handle is the **null sink**: every
 *    operation is a branch on a null pointer. Likewise
 *    setEnabled(false) — or the LEO_OBS=off environment variable for
 *    the process-wide Registry::global() — reduces every instrument
 *    to a single relaxed load and branch, which is what makes the
 *    instrumented build bitwise identical to (and within the
 *    overhead budget of) the bare one.
 *
 * Naming scheme (DESIGN.md "Observability"): instrument names are
 * `leo.<subsystem>.<noun>.<verb>` for counters
 * (`leo.em.fits.completed`), `leo.<subsystem>.<noun>.<unit>` for
 * histograms (`leo.em.iter.ms`) and gauges (`leo.em.workspace.bytes`).
 * Every name is declared once in names.hh and referenced as an
 * `obs::names::k...` constant — the obs-naming lint check rejects raw
 * literals at call sites.
 */

#ifndef LEO_OBS_REGISTRY_HH
#define LEO_OBS_REGISTRY_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace leo::obs
{

class Registry;

namespace detail
{
/** One histogram's cells, all allocated at registration. */
struct HistogramCells
{
    /** @param sorted_edges Strictly increasing upper bucket edges. */
    explicit HistogramCells(std::vector<double> sorted_edges);

    /** Upper bucket edges, strictly increasing. A value v lands in
     *  the first bucket with v <= edges[i]; values above the last
     *  edge land in the implicit overflow bucket. */
    const std::vector<double> edges;
    /** Per-bucket counts, size edges.size() + 1 (last = overflow). */
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
    std::atomic<double> min;
    std::atomic<double> max;
};
} // namespace detail

/**
 * A monotone event counter. Copyable value handle; the
 * default-constructed handle is a no-op null sink.
 */
class Counter
{
  public:
    Counter() = default;

    /** Add n to the counter (relaxed, lock-free). */
    void add(std::uint64_t n = 1) const;

    /** @return The counter's current value. */
    std::uint64_t value() const;

  private:
    friend class Registry;
    Counter(const Registry *r, std::atomic<std::uint64_t> *cell)
        : registry_(r), cell_(cell)
    {
    }
    const Registry *registry_ = nullptr;
    std::atomic<std::uint64_t> *cell_ = nullptr;
};

/**
 * A last-write-wins gauge: set() is a plain store into the gauge's
 * one cell.
 */
class Gauge
{
  public:
    Gauge() = default;

    /** Record the current value. */
    void set(double v) const;

  private:
    friend class Registry;
    Gauge(const Registry *r, std::atomic<double> *cell)
        : registry_(r), cell_(cell)
    {
    }
    const Registry *registry_ = nullptr;
    std::atomic<double> *cell_ = nullptr;
};

/**
 * A fixed-bucket histogram. Bucket edges are set at registration and
 * immutable afterwards; re-registering the same name returns the
 * existing instrument (the original edges win).
 */
class Histogram
{
  public:
    Histogram() = default;

    /** Record one observation. */
    void record(double v) const;

    /** @return True iff recording would actually land somewhere —
     *  the guard ScopedMs uses to skip its clock reads entirely. */
    bool live() const;

  private:
    friend class Registry;
    Histogram(const Registry *r, detail::HistogramCells *cells)
        : registry_(r), cells_(cells)
    {
    }
    const Registry *registry_ = nullptr;
    detail::HistogramCells *cells_ = nullptr;
};

/**
 * Default time buckets for millisecond histograms: powers of two
 * from ~1 us to ~16 s (25 edges + overflow).
 */
std::vector<double> defaultTimeBucketsMs();

/** One histogram's state inside a Snapshot. */
struct HistogramSnapshot
{
    std::string name;
    std::vector<double> edges;
    /** Per-bucket counts, size edges.size() + 1 (last = overflow). */
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0; //!< Total observations.
    double sum = 0.0;        //!< Sum of observations (order-dependent
                             //!< rounding; not bitwise deterministic).
    double min = 0.0;        //!< Smallest observation (0 if empty).
    double max = 0.0;        //!< Largest observation (0 if empty).
};

/**
 * A deterministic point-in-time view of a Registry: each kind's
 * instruments sorted by name.
 */
struct Snapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** @return Counter value by name, or fallback when absent. */
    std::uint64_t counterOr(const std::string &name,
                            std::uint64_t fallback = 0) const;

    /** @return Histogram by name, or nullptr when absent. */
    const HistogramSnapshot *histogram(const std::string &name) const;
};

/**
 * The instrument tables and the cells they own.
 *
 * Thread safe: any thread may register instruments, write through
 * handles, and snapshot concurrently. Registration and snapshot take
 * a mutex; handle writes never do. A handle is valid while its
 * registry lives: instruments are never removed, and a table insert
 * never moves another instrument's cells.
 */
class Registry
{
  public:
    Registry() = default;

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Get or create the named counter. */
    Counter counter(const std::string &name);

    /** Get or create the named gauge. */
    Gauge gauge(const std::string &name);

    /**
     * Get or create the named histogram.
     *
     * @param edges Strictly increasing upper bucket edges; ignored
     *              when the name already exists.
     */
    Histogram histogram(const std::string &name,
                        std::vector<double> edges);

    /** Enable or disable every instrument of this registry. */
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    /** @return True iff writes are being recorded. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** @return A deterministic view of every instrument. */
    Snapshot snapshot() const;

    /**
     * The process-wide registry. Enabled by default; the LEO_OBS
     * environment variable set to `off` or `0` disables it at first
     * use (the null-sink mode for overhead measurements). Never
     * destructed, so it is safe to use from static destructors.
     */
    static Registry &global();

  private:
    std::atomic<bool> enabled_{true};
    mutable std::mutex mutex_;
    std::map<std::string, std::atomic<std::uint64_t>> counters_;
    std::map<std::string, std::atomic<double>> gauges_;
    std::map<std::string, detail::HistogramCells> histograms_;
};

inline bool
Histogram::live() const
{
    return registry_ != nullptr && registry_->enabled();
}

/** Render a snapshot of `reg` as a pretty-printed JSON object. */
std::string snapshotJson(const Registry &reg = Registry::global());

/**
 * RAII millisecond timer: records the scope's wall time into a
 * histogram on destruction. The null-sink rule applies — timing a
 * default-constructed or disabled histogram costs two branches and
 * no clock reads.
 */
class ScopedMs
{
  public:
    explicit ScopedMs(Histogram h);
    ~ScopedMs();

    ScopedMs(const ScopedMs &) = delete;
    ScopedMs &operator=(const ScopedMs &) = delete;

  private:
    Histogram hist_;
    bool active_ = false;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace leo::obs

#endif // LEO_OBS_REGISTRY_HH
