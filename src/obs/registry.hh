/**
 * @file
 * The metrics half of the `leo::obs` observability subsystem.
 *
 * A Registry is a named table of three instrument kinds —
 * monotone **counters**, last-write-wins **gauges** and fixed-bucket
 * **histograms** — designed so the *hot path pays no locks*:
 *
 *  - Storage is sharded per thread. An increment touches only the
 *    calling thread's shard (a relaxed atomic add into a cell that
 *    no other thread writes), so writers never contend with each
 *    other. ThreadSanitizer-clean by construction.
 *  - Shards are merged at snapshot() time, in shard-creation order.
 *    Counter and histogram-bucket merges are integer sums, so the
 *    merged values are *exactly* identical at any thread count —
 *    the determinism anchor the obs tests assert. (Histogram `sum`
 *    is a floating-point total and is deterministic only up to
 *    summation order; comparisons should use counts.)
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
#include <deque>
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
/** Immutable histogram descriptor shared by handles and shards. */
struct HistDesc
{
    /** Upper bucket edges, strictly increasing. A value v lands in
     *  the first bucket with v <= edges[i]; values above the last
     *  edge land in the implicit overflow bucket. */
    std::vector<double> edges;
    /** First bucket cell of this histogram in the shard slot space. */
    std::size_t base = 0;
    /** Index of this histogram's sum/min/max stat cell. */
    std::size_t index = 0;
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

    /** Add n to the counter (relaxed, lock-free, per-thread cell). */
    void add(std::uint64_t n = 1) const;

    /** @return The merged value across every shard. */
    std::uint64_t value() const;

  private:
    friend class Registry;
    Counter(Registry *r, std::size_t slot) : registry_(r), slot_(slot)
    {
    }
    Registry *registry_ = nullptr;
    std::size_t slot_ = 0;
};

/**
 * A last-write-wins gauge. Writes are globally sequenced with a
 * relaxed atomic ticket so the merge is well defined (the highest
 * ticket wins); the snapshot merges across shards.
 */
class Gauge
{
  public:
    Gauge() = default;

    /** Record the current value. */
    void set(double v) const;

  private:
    friend class Registry;
    Gauge(Registry *r, std::size_t slot) : registry_(r), slot_(slot) {}
    Registry *registry_ = nullptr;
    std::size_t slot_ = 0;
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
    Histogram(Registry *r, const detail::HistDesc *desc)
        : registry_(r), desc_(desc)
    {
    }
    Registry *registry_ = nullptr;
    const detail::HistDesc *desc_ = nullptr;
};

/**
 * Default time buckets for millisecond histograms: powers of two
 * from ~1 us to ~16 s (25 edges + overflow).
 */
std::vector<double> defaultTimeBucketsMs();

/** One histogram's merged state inside a Snapshot. */
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
 * A deterministic point-in-time view of a Registry: instruments
 * sorted by name, shards merged in creation order.
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
 * The instrument table plus its per-thread shards.
 *
 * Thread safe: any thread may register instruments, write through
 * handles, and snapshot concurrently. Registration and snapshot take
 * a mutex; handle writes never do.
 */
class Registry
{
  public:
    Registry();
    ~Registry();

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

    /** @return A deterministic merged view of every instrument. */
    Snapshot snapshot() const;

    /**
     * Pre-create the calling thread's shard (and the cell blocks of
     * every instrument registered so far), so that later hot-path
     * writes from this thread are guaranteed allocation-free. Called
     * automatically on first write; call explicitly before entering
     * an allocation-audited loop.
     */
    void prepareThread();

    /**
     * The process-wide registry. Enabled by default; the LEO_OBS
     * environment variable set to `off` or `0` disables it at first
     * use (the null-sink mode for overhead measurements). Never
     * destructed, so it is safe to use from static destructors.
     */
    static Registry &global();

  private:
    friend class Counter;
    friend class Gauge;
    friend class Histogram;

    struct Shard;
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram
    };
    struct Instrument
    {
        std::string name;
        Kind kind;
        std::size_t slot;
        const detail::HistDesc *desc = nullptr;
    };

    Shard &shard();
    void counterAdd(std::size_t slot, std::uint64_t n);
    std::uint64_t counterValue(std::size_t slot) const;
    void gaugeSet(std::size_t slot, double v);
    void histRecord(const detail::HistDesc &desc, double v);

    const std::uint64_t id_;
    std::atomic<bool> enabled_{true};
    std::atomic<std::uint64_t> gauge_seq_{0};
    mutable std::mutex mutex_;
    std::map<std::string, std::size_t> index_;
    std::deque<Instrument> instruments_;
    std::deque<detail::HistDesc> hist_descs_;
    std::deque<Shard> shards_;
    std::size_t num_counters_ = 0;
    std::size_t num_gauges_ = 0;
    std::size_t num_hist_cells_ = 0;
    std::size_t num_hist_buckets_ = 0;
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
